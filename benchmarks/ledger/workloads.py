"""The four workloads: tables, operation streams and SQLite references.

Everything here is derived from the ``--seed``; the program under test
only ever sees the generated rows and SQL text.  A stream is built from
fixed-size *blocks* whose composition is exact (e.g. 8 prepared lookups
in every 20 operations) and whose order and literals come from the seed,
so a run that stops on the clock still measures the intended mix, and
the median and p95 fall inside one statement class instead of on the
boundary between two.

Every workload also carries ``Ledger``/``Tally`` write targets and the
shared write mix: ``mixed_rw`` interleaves it with reads on two clients;
the three read workloads run it as a fixed-count burst *after* the read
window, so the write-latency metrics exist on every workload without a
commit ever invalidating the plans the read window depends on.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import Database
from repro.catalog import Column, ColumnType
from repro.datagen import (
    EmpDeptQueryGen,
    QueryGenConfig,
    build_chain_tables,
    build_emp_dept,
    build_star_schema,
    mirror_to_sqlite,
)

from benchmarks.ledger.layers import to_sqlite
from benchmarks.ledger.oracle import Oracle, Row

WORKLOADS = ("oltp_point", "adhoc_optimize", "analytic_star", "mixed_rw")

LEDGER_COLUMNS = ("client", "seq", "amount")
TALLY_COLUMNS = ("id", "n")
TALLY_ROWS = 4
LEDGER_PRELOAD = 50

# The write mix of one block: autocommit single-row DML on the client's
# own Ledger rows (balanced, so the table keeps its size however long
# the run lasts), shared-Tally increments that two clients can conflict
# on, and explicit five-statement transactions that hold a Tally row
# across several statements (which is what makes conflicts happen).
WRITE_MIX = ("insert",) * 8 + ("update",) * 8 + ("delete",) * 8 + ("tally",) * 3 + ("txn",) * 3
EPILOGUE_BLOCKS = 240  # 7200 write operations, 8064 timed statements: about two seconds


@dataclass(frozen=True)
class Op:
    """One client operation.

    Attributes:
        cls: the latency class the sample is reported under.
        statements: SQL texts; one for a read or an autocommit write,
            ``BEGIN .. COMMIT`` for an explicit transaction.
        kinds: for writes, the statement kind of each text.
        prepared: name of the prepared statement to EXECUTE with
            ``args`` instead of sending ``statements[0]`` as text.
        ordered: the statement's ORDER BY is total, compare positionally.
        expect: reference rows (see ``oracle.rows_match``); None for writes.
    """

    cls: str
    statements: Tuple[str, ...]
    kinds: Tuple[str, ...] = ()
    prepared: Optional[str] = None
    args: Tuple = ()
    ordered: bool = False
    expect: Optional[List[Row]] = field(default=None, compare=False, repr=False)

    @property
    def write(self) -> bool:
        return bool(self.kinds)

    @property
    def text(self) -> str:
        return self.statements[0]

    @property
    def dml(self) -> List[str]:
        """The statements a committed write adds to the client's journal."""
        return [text for kind, text in zip(self.kinds, self.statements) if kind not in ("begin", "commit")]


@dataclass
class Workload:
    """A built workload: database, oracle, streams and check targets."""

    name: str
    db: Database
    oracle: Oracle
    streams: List[Iterator[Op]]  # one endless stream per client
    warmup: int  # operations per client run before the window, not measured
    block: int  # operations per block of the stream
    prepared: Dict[str, str]  # prepared-statement name -> SELECT text
    startup_sql: str  # a cached one-row plan, for engine.executor.startup_us
    epilogue: List[Op]  # post-window write burst (empty on mixed_rw)
    analyze_s: float

    @property
    def clients(self) -> int:
        return len(self.streams)


def _rng(seed: int, *scope: object) -> random.Random:
    """An independent deterministic stream per (seed, purpose)."""
    return random.Random(":".join(str(part) for part in (seed,) + scope))


# ----------------------------------------------------------------------
# Write targets and the shared write mix
# ----------------------------------------------------------------------
def _create_write_tables(db: Database, clients: int, rng: random.Random) -> List["_LedgerModel"]:
    ledger = db.create_table(
        "Ledger",
        [
            Column("client", ColumnType.INT, nullable=False),
            Column("seq", ColumnType.INT, nullable=False),
            Column("amount", ColumnType.INT, nullable=False),
        ],
    )
    tally = db.create_table(
        "Tally",
        [
            Column("id", ColumnType.INT, nullable=False),
            Column("n", ColumnType.INT, nullable=False),
        ],
    )
    for tally_id in range(TALLY_ROWS):
        tally.insert((tally_id, 0))
    models = []
    for client in range(clients):
        model = _LedgerModel(client)
        for _ in range(LEDGER_PRELOAD):
            seq, amount = model.insert(rng.randint(1, 999))
            ledger.insert((client, seq, amount))
        models.append(model)
    return models


class _LedgerModel:
    """What one client's own Ledger rows must contain after each write.

    Every write eventually commits (conflicts are retried), so the model
    advances deterministically with the stream and the expected result
    of a read-your-writes statement is known when the stream is built.
    """

    def __init__(self, client: int) -> None:
        self.client = client
        self.amounts: Dict[int, int] = {}
        self.next_seq = 0

    def insert(self, amount: int) -> Tuple[int, int]:
        seq = self.next_seq
        self.next_seq += 1
        self.amounts[seq] = amount
        return seq, amount

    def statement(self, kind: str, rng: random.Random) -> str:
        client = self.client
        if kind == "insert":
            seq, amount = self.insert(rng.randint(1, 999))
            return f"INSERT INTO Ledger (client, seq, amount) VALUES ({client}, {seq}, {amount})"
        if kind == "tally":
            return f"UPDATE Tally SET n = n + 1 WHERE id = {rng.randrange(TALLY_ROWS)}"
        seq = rng.choice(list(self.amounts))
        if kind == "update":
            delta = rng.randint(1, 9)
            self.amounts[seq] += delta
            return f"UPDATE Ledger SET amount = amount + {delta} WHERE client = {client} AND seq = {seq}"
        del self.amounts[seq]
        return f"DELETE FROM Ledger WHERE client = {client} AND seq = {seq}"

    def write_op(self, kind: str, rng: random.Random) -> Op:
        if kind == "txn":
            kinds = ("begin", "tally", "insert", "delete", "commit")
            body = tuple(self.statement(k, rng) for k in kinds[1:-1])
            return Op("write", ("BEGIN",) + body + ("COMMIT",), kinds)
        return Op("write", (self.statement(kind, rng),), (kind,))

    def sum_op(self) -> Op:
        """Read-your-writes: the client's own row count and total."""
        sql = f"SELECT COUNT(*) AS c, SUM(L.amount) AS s FROM Ledger L WHERE L.client = {self.client}"
        expect = [(len(self.amounts), sum(self.amounts.values()))]
        return Op("ledger_sum", (sql,), expect=expect)


def _write_burst(model: _LedgerModel, rng: random.Random, blocks: int) -> List[Op]:
    ops = []
    for _ in range(blocks):
        kinds = list(WRITE_MIX)
        rng.shuffle(kinds)
        ops.extend(model.write_op(kind, rng) for kind in kinds)
    return ops


# ----------------------------------------------------------------------
# Read statements and their references
# ----------------------------------------------------------------------
class _Reads:
    """Builds read Ops, computing each reference once from SQLite."""

    def __init__(self, oracle: Oracle) -> None:
        self.oracle = oracle
        self._sqlite_text: Dict[str, str] = {}

    def op(self, cls: str, sql: str, ordered: bool = False, prepared: Optional[str] = None, args: Tuple = ()) -> Op:
        translated = self._sqlite_text.get(sql)
        if translated is None:
            translated = self._sqlite_text[sql] = to_sqlite(sql)
        expect = self.oracle.reference(translated, args, ordered)
        return Op(cls, (sql,), prepared=prepared, args=args, ordered=ordered, expect=expect)


def _blocks(rng: random.Random, pattern: Sequence[Callable[[], Op]], count: int) -> List[Op]:
    """``count`` blocks; each runs every maker of ``pattern`` once, shuffled."""
    ops: List[Op] = []
    for _ in range(count):
        makers = list(pattern)
        rng.shuffle(makers)
        ops.extend(maker() for maker in makers)
    return ops


PK_LOOKUP = "SELECT E.emp_no, E.name, E.sal FROM Emp E WHERE E.emp_no = {}"
DEPT_RANGE = "SELECT E.emp_no, E.sal FROM Emp E WHERE E.dept_no = {} ORDER BY E.emp_no"
PK_JOIN = "SELECT E.name, D.name FROM Emp E, Dept D WHERE E.dept_no = D.dept_no AND E.emp_no = {}"
DEPT_STARTUP = "SELECT D.dept_no FROM Dept D WHERE D.dept_no = 1"


# -- oltp_point ---------------------------------------------------------
OLTP_EMP, OLTP_DEPT = 5000, 100
OLTP_PREPARED = {"pk_lookup": PK_LOOKUP.format("?"), "dept_range": DEPT_RANGE.format("?")}


def _oltp_tables(db: Database, seed: int, _scale: float) -> None:
    build_emp_dept(db.catalog, emp_rows=OLTP_EMP, dept_rows=OLTP_DEPT, rng=_rng(seed, "oltp", "data"))


def _oltp_streams(seed: int, scale: float, reads: _Reads, _models) -> List[Iterator[Op]]:
    rng = _rng(seed, "oltp", "ops")
    # 64 literal + 16 join texts + 2 prepared plans fit the 128-entry cache.
    hot = [PK_LOOKUP.format(k) for k in rng.sample(range(1, OLTP_EMP + 1), 64)]
    joins = [PK_JOIN.format(k) for k in rng.sample(range(1, OLTP_EMP + 1), 16)]
    pattern = (
        [lambda: reads.op("prepared_point", OLTP_PREPARED["pk_lookup"], prepared="pk_lookup",
                          args=(rng.randint(1, OLTP_EMP),))] * 8
        + [lambda: reads.op("literal_point", rng.choice(hot))] * 6
        + [lambda: reads.op("range", OLTP_PREPARED["dept_range"], ordered=True, prepared="dept_range",
                            args=(rng.randint(1, OLTP_DEPT),))] * 4
        + [lambda: reads.op("join", rng.choice(joins))] * 2
    )
    return [itertools.cycle(_blocks(rng, pattern, max(5, int(100 * scale))))]


# -- adhoc_optimize -----------------------------------------------------
def _join_sql(shape: str, size: int, start: int, literal: int) -> str:
    names = [f"R{(start + i) % 10 + 1}" for i in range(size)]
    if shape == "star":
        joins = [f"{names[0]}.b = {other}.a" for other in names[1:]]
    else:
        joins = [f"{a}.b = {b}.a" for a, b in zip(names, names[1:])]
        if shape == "cycle":
            joins.append(f"{names[-1]}.b = {names[0]}.a")
    joins.append(f"{names[0]}.payload > {literal}")
    return (
        f"SELECT {names[0]}.payload, {names[-1]}.payload FROM {', '.join(names)} "
        f"WHERE {' AND '.join(joins)}"
    )


# One block of 40 statements, cheapest class first.  Ten rewrite-mix
# statements (25 %), then joins of 4-9 relations; five chain-6 sit on the
# median and four star-8 on the p95, so neither lands between classes.
_ADHOC_JOINS = (
    [("chain", 4), ("star", 4), ("cycle", 4)] * 2
    + [("chain", 5)] * 2 + [("star", 5)]
    + [("chain", 6)] * 5
    + [("star", 6)] * 2 + [("cycle", 5)]
    + [("chain", 7)] * 3 + [("star", 7)] * 2 + [("cycle", 6)]
    + [("chain", 8), ("chain", 9), ("cycle", 7)]
    + [("star", 8)] * 4
)
_REWRITE_TEMPLATES = (
    "SELECT E.name FROM Emp E WHERE E.dept_no IN (SELECT D.dept_no FROM Dept D WHERE D.budget > {budget})",
    "SELECT D.name FROM Dept D WHERE EXISTS (SELECT E.emp_no FROM Emp E WHERE E.dept_no = D.dept_no AND E.sal > {sal})",
    "SELECT D.name, COUNT(*) AS c, SUM(E.sal) AS s FROM Emp E, Dept D WHERE E.dept_no = D.dept_no AND D.budget > {budget} GROUP BY D.name",
    "SELECT E.name, D.name FROM Emp E LEFT OUTER JOIN Dept D ON E.dept_no = D.dept_no WHERE E.sal > {sal} AND D.budget > {budget}",
)


def _adhoc_tables(db: Database, seed: int, _scale: float) -> None:
    data = _rng(seed, "adhoc", "data")
    # domain_ratio=1.0: every join keeps about one match per row, so
    # intermediate results neither explode nor vanish.
    build_chain_tables(db.catalog, 10, rows_per_relation=60, domain_ratio=1.0, rng=data)
    build_emp_dept(db.catalog, emp_rows=300, dept_rows=25, rng=data)


def _adhoc_streams(seed: int, scale: float, reads: _Reads, _models) -> List[Iterator[Op]]:
    rng = _rng(seed, "adhoc", "ops")
    generator = EmpDeptQueryGen(rng, QueryGenConfig(emp_rows=300, dept_rows=25))
    seen = set()

    def fresh(make: Callable[[], str]) -> str:
        # Every statement must be textually new: a repeat would hit the cache.
        while True:
            sql = make()
            if sql not in seen:
                seen.add(sql)
                return sql

    def join(shape: str, size: int) -> Callable[[], Op]:
        cls = "join_n4_6" if size <= 6 else "join_n7_9"
        return lambda: reads.op(
            cls, fresh(lambda: _join_sql(shape, size, rng.randrange(10), rng.randint(1, 700)))
        )

    def template(text: str) -> Callable[[], Op]:
        return lambda: reads.op("rewrite_mix", fresh(lambda: text.format(
            budget=f"{rng.uniform(60_000, 400_000):.2f}", sal=f"{rng.uniform(40_000, 140_000):.2f}")))

    def generated() -> Op:
        # Results past 500 rows only make the references (and the checks)
        # heavy; the rewrite rules fire just the same on the smaller ones.
        while True:
            op = reads.op("rewrite_mix", fresh(generator.query))
            if len(op.expect) <= 500:
                return op

    pattern = (
        [join(shape, size) for shape, size in _ADHOC_JOINS]
        + [template(text) for text in _REWRITE_TEMPLATES]
        + [generated] * 6
    )
    # Sized well past what one window executes (about 50 statements/s); if
    # a faster build wraps around, the 128-entry LRU cache has long since
    # evicted the repeats, so they still miss.
    return [itertools.cycle(_blocks(rng, pattern, max(2, int(24 * scale))))]


# -- analytic_star ------------------------------------------------------
STAR_FACTS = 20_000


def _star_tables(db: Database, seed: int, scale: float) -> None:
    # The one table a smoke run shrinks: at full size a single round of
    # the six statements takes longer than the whole smoke window.
    build_star_schema(db.catalog, fact_rows=int(STAR_FACTS * min(1.0, 2.5 * scale)), dimension_count=4,
                      dimension_rows=50, rng=_rng(seed, "star", "data"))


def _star_streams(seed: int, _scale: float, reads: _Reads, _models) -> List[Iterator[Op]]:
    rng = _rng(seed, "star", "ops")
    # Literal ranges are narrow: they differ by seed, selectivity barely does.
    group_agg = reads.op(
        "group_agg",
        f"SELECT S.d1_id, COUNT(*) AS c, SUM(S.amount) AS a FROM Sales S "
        f"WHERE S.amount > {rng.uniform(5, 25):.3f} GROUP BY S.d1_id")
    round_ = [
        reads.op("scan_filter",
                 f"SELECT S.sale_id, S.amount FROM Sales S "
                 f"WHERE S.quantity > 15 AND S.amount > {rng.uniform(480, 520):.3f}"),
        group_agg,
        reads.op("hash_join",
                 f"SELECT D.category, S.amount FROM Sales S, Dim1 D "
                 f"WHERE S.d1_id = D.id AND D.attr > 50 AND S.amount > {rng.uniform(880, 920):.3f}"),
        reads.op("star4",
                 f"SELECT D1.category, D2.category, COUNT(*) AS c, SUM(S.amount) AS s "
                 f"FROM Sales S, Dim1 D1, Dim2 D2, Dim3 D3, Dim4 D4 "
                 f"WHERE S.d1_id = D1.id AND S.d2_id = D2.id AND S.d3_id = D3.id AND S.d4_id = D4.id "
                 f"AND S.amount > {rng.uniform(5, 25):.3f} GROUP BY D1.category, D2.category"),
        reads.op("topn",
                 f"SELECT S.sale_id, S.amount FROM Sales S WHERE S.amount < {rng.uniform(975, 995):.3f} "
                 f"ORDER BY S.amount DESC, S.sale_id LIMIT 20", ordered=True),
        reads.op("distinct",
                 f"SELECT DISTINCT S.d1_id, S.d2_id FROM Sales S WHERE S.amount > {rng.uniform(5, 25):.3f}"),
        # The group-aggregate runs twice per round so the median of the
        # seven samples falls inside its class, not between two classes.
        group_agg,
    ]
    return [itertools.cycle(round_)]


# -- mixed_rw -----------------------------------------------------------
MIXED_EMP, MIXED_DEPT = 2000, 50


def _mixed_tables(db: Database, seed: int, _scale: float) -> None:
    build_emp_dept(db.catalog, emp_rows=MIXED_EMP, dept_rows=MIXED_DEPT, rng=_rng(seed, "mixed", "data"))


def _mixed_streams(seed: int, _scale: float, reads: _Reads, models: List[_LedgerModel]) -> List[Iterator[Op]]:
    rng = _rng(seed, "mixed", "pool")
    # Nine of the sixteen statements are pk lookups, so the median read is
    # one of them (parse, re-optimize after the last commit, index probe)
    # whatever the seed; the two group-aggregates carry the p95.
    pool = (
        [reads.op("literal_point", PK_LOOKUP.format(k)) for k in rng.sample(range(1, MIXED_EMP + 1), 9)]
        + [reads.op("range", DEPT_RANGE.format(d), ordered=True) for d in rng.sample(range(1, MIXED_DEPT + 1), 2)]
        + [reads.op("join", PK_JOIN.format(k)) for k in rng.sample(range(1, MIXED_EMP + 1), 2)]
        + [reads.op("group_agg",
                    f"SELECT E.dept_no, COUNT(*) AS c, AVG(E.sal) AS a FROM Emp E "
                    f"WHERE E.age > {age} GROUP BY E.dept_no") for age in rng.sample(range(30, 35), 2)]
    )  # 15 static statements; the 16th is the client's own ledger_sum

    def client_stream(model: _LedgerModel) -> Iterator[Op]:
        own = _rng(seed, "mixed", "client", model.client)
        while True:
            kinds = ["read"] * 70 + list(WRITE_MIX)
            own.shuffle(kinds)
            for kind in kinds:
                if kind != "read":
                    yield model.write_op(kind, own)
                elif own.randrange(16) == 0:
                    yield model.sum_op()
                else:
                    yield own.choice(pool)

    return [client_stream(model) for model in models]


@dataclass(frozen=True)
class _Spec:
    clients: int
    warmup: int  # operations per client at scale 1.0 (rounded to whole blocks)
    block: int  # operations per block of the stream
    trace_rate: float  # traced-pass operations per client per second of --seconds
    tables: Callable[[Database, int, float], None]
    streams: Callable[[int, float, _Reads, List[_LedgerModel]], List[Iterator[Op]]]
    startup_sql: str = DEPT_STARTUP
    prepared: Dict[str, str] = field(default_factory=dict)


_SPECS = {
    "oltp_point": _Spec(clients=1, warmup=500, block=20, trace_rate=20.0,
                        tables=_oltp_tables, streams=_oltp_streams, prepared=OLTP_PREPARED),
    "adhoc_optimize": _Spec(clients=1, warmup=40, block=40, trace_rate=10.0,
                            tables=_adhoc_tables, streams=_adhoc_streams),
    "analytic_star": _Spec(clients=1, warmup=7, block=7, trace_rate=1.4,
                           tables=_star_tables, streams=_star_streams,
                           startup_sql="SELECT D.id FROM Dim1 D WHERE D.id = 1"),
    "mixed_rw": _Spec(clients=2, warmup=200, block=100, trace_rate=60.0,
                      tables=_mixed_tables, streams=_mixed_streams),
}


def trace_sample(name: str, seconds: float) -> int:
    """Operations per client each traced-pass segment replays: a fixed
    count (whole blocks), so counts made by the program repeat exactly."""
    spec = _SPECS[name]
    blocks = max(1, int(spec.trace_rate * seconds / spec.block))
    return blocks * spec.block


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Set one workload up: tables, ANALYZE, SQLite mirror, references.

    ``scale`` (1.0, or 0.1 for ``--smoke``) sizes stream lengths, warm-up
    and the write burst; table sizes are fixed, but for the star facts.
    ``Database()`` is built with default arguments on purpose: the ledger
    measures what a user gets.
    """
    spec = _SPECS[name]
    db = Database()
    spec.tables(db, seed, scale)
    models = _create_write_tables(db, spec.clients, _rng(seed, name, "ledger"))
    started = time.perf_counter()
    db.analyze()
    analyze_s = time.perf_counter() - started
    for statement, sql in spec.prepared.items():
        db.prepare(statement, sql)
    oracle = Oracle(mirror_to_sqlite(db.catalog))
    streams = spec.streams(seed, scale, _Reads(oracle), models)
    epilogue: List[Op] = []
    if name != "mixed_rw":
        blocks = max(1, int(EPILOGUE_BLOCKS * scale))
        epilogue = _write_burst(models[0], _rng(seed, name, "burst"), blocks)
    return Workload(
        name=name,
        db=db,
        oracle=oracle,
        streams=streams,
        # Whole blocks, so the window starts on a block boundary.
        warmup=max(1, round(spec.warmup * scale / spec.block)) * spec.block,
        block=spec.block,
        prepared=spec.prepared,
        startup_sql=spec.startup_sql,
        epilogue=epilogue,
        analyze_s=analyze_s,
    )

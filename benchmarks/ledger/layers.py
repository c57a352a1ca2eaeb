"""The adapter: the only ledger file that names repro's internal entry points.

The traced pass replays operations *stage by stage from outside*: for
each one it calls the same functions ``Database.sql`` calls, in the same
order, each under a span named ``<module>:<function>`` (``trace.py``).
Nothing inside ``src/`` is instrumented; when a later change moves a
stage, this file is the one place to follow it.

Also here: the stand-alone probes for layers no workload reaches through
``Database`` (System-R vs Cascades on 8-relation graphs, admission
control, empty transactions, crash recovery).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import Database, Optimizer, plan_parallel_regions
from repro.catalog import Catalog
from repro.core.cascades import CascadesOptimizer
from repro.core.optimizer import OptimizedQuery, PlanCache
from repro.core.parallel.placement import place_exchanges
from repro.core.rewrite import RewriteContext
from repro.core.systemr import EnumeratorConfig, SystemRJoinEnumerator
from repro.datagen import build_chain_tables, chain_query_graph, graph_stats, star_query_graph
from repro.engine.admission import AdmissionConfig, AdmissionController
from repro.engine.context import ExecContext
from repro.engine.executor import execute
from repro.logical.lower import lower_block
from repro.physical.plans import walk_physical
from repro.sql.lexer import tokenize
from repro.sql.parser import normalize_sql, parse, parse_statement
from repro.sql.render import SQLITE, render_select

from benchmarks.ledger.oracle import rows_match
from benchmarks.ledger.stats import median

# Spans on the path a default ``Database.sql`` call takes; their sum is
# what the facade's own overhead is measured against.  The stand-alone
# tokenize span is not on it (parse_statement and normalize_sql each
# tokenize again internally), nor are the alternative engines.
DEFAULT_PATH = (
    "sql.parser:parse_statement",
    "sql.parser:normalize_sql",
    "core.plancache:get",
    "core.optimizer:optimize",
    "core.plancache:put",
    "storage.txn:pin_snapshot",
    "engine.executor:execute",
    "storage.txn:release_snapshot",
)
OPTIMIZER_STAGES = (
    "sql.binder:bind",
    "logical.lower:lower_block",
    "core.rewrite:rewrite",
    "core.physicalize:plan_query",
)
# Engine toggles the traced pass exercises on top of the default row
# engine.  A flag that no longer exists on ExecContext drops its spans
# (and its metrics read null) instead of failing the run.
_ENGINE_FLAGS = {
    "engine.columnar:execute": {"columnar_mode": True},
    "engine.parallel:execute_dop2": {"parallel_mode": True, "max_dop": 2},
    "engine.parallel:execute_col_dop2": {"columnar_mode": True, "parallel_mode": True, "max_dop": 2},
}
DOP = 2


@contextmanager
def _side_context(db: Database, **flags):
    """An ExecContext armed like the facade's, with engine ``flags`` set,
    no feedback harvest, and a read snapshot pinned for the block."""
    context = db._make_context()
    context.feedback = None
    for flag, value in flags.items():
        setattr(context, flag, value)
    release = db._pin_read_snapshot(context)
    try:
        yield context
    finally:
        release()


def to_sqlite(sql: str) -> str:
    """A SELECT of our dialect rendered for the SQLite oracle."""
    return render_select(parse(sql), SQLITE)


@dataclass
class OpRecord:
    """What one staged operation did, beyond its spans."""

    wall: float = 0.0
    key: Optional[Tuple[str, int]] = None  # plan-cache key; None for writes
    rows: int = 0
    rows_produced: int = 0
    rows_examined: int = 0
    pages_read: int = 0
    observed_cost: float = 0.0
    est_cost: float = 0.0
    rules_fired: int = 0
    regions: int = 0
    tokens: int = 0
    q_errors: List[float] = field(default_factory=list)
    wrong: int = 0


class StagedReplay:
    """Runs operations through the pipeline one named stage at a time.

    Uses its own :class:`PlanCache` (same capacity as the database's) so
    hit/miss behaviour follows the replayed stream alone, and the
    database's optimizer, catalog, feedback store and transaction
    manager, so plans and data are the ones the facade would use.
    """

    def __init__(self, db: Database, prepared: Dict[str, str], tracer) -> None:
        self.db = db
        self.tracer = tracer
        self.cache = PlanCache(db.plan_cache.capacity)
        self.prepared = {
            name: (sql, PlanCache.key(sql, parse(sql).param_count))
            for name, sql in prepared.items()
        }
        probe = ExecContext(db.params)
        self.engines = {
            span: flags
            for span, flags in _ENGINE_FLAGS.items()
            if all(hasattr(probe, flag) for flag in flags)
        }
        self._next_id = 0

    # -- reads ----------------------------------------------------------
    def read(self, op) -> OpRecord:
        db, span = self.db, self.tracer.span
        catalog = db.catalog
        record = OpRecord()
        op_id = self._next_id
        self._next_id += 1
        started = time.perf_counter()
        with span(op_id, "op") as root:
            stmt = None
            if op.prepared:
                text, key = self.prepared[op.prepared]
            else:
                text = op.text
                with span(op_id, "sql.lexer:tokenize", root):
                    tokens = tokenize(text)
                record.tokens = len(tokens)
                with span(op_id, "sql.parser:parse_statement", root):
                    stmt = parse_statement(text)
                with span(op_id, "sql.parser:normalize_sql", root):
                    key = (normalize_sql(text), stmt.param_count)
            with span(op_id, "core.plancache:get", root):
                entry = self.cache.get(key, catalog.version)
            record.key = key
            if entry is not None:
                physical = entry.plan.physical
            else:
                if stmt is None:
                    with span(op_id, "sql.parser:parse_statement", root):
                        stmt = parse(text)
                with span(op_id, "core.optimizer:optimize", root) as parent:
                    optimizer = db.optimizer()
                    with span(op_id, "sql.binder:bind", parent):
                        block = optimizer.binder.bind(stmt)
                    with span(op_id, "logical.lower:lower_block", parent):
                        logical = lower_block(block, catalog)
                    with span(op_id, "core.rewrite:rewrite", parent):
                        context = RewriteContext(catalog=catalog, estimator=optimizer._estimator(logical))
                        rewritten = optimizer.rule_engine.rewrite(logical, context)
                    with span(op_id, "core.physicalize:plan_query", parent):
                        physical = optimizer.physicalizer.plan_query(rewritten)
                record.rules_fired = len(context.trace)
                optimized = OptimizedQuery(block, logical, rewritten, physical, context.trace)
                with span(op_id, "core.plancache:put", root):
                    self.cache.put(key, optimized, catalog.version)
            record.est_cost = physical.est_cost.total
            with span(op_id, "core.parallel:place_exchanges", root):
                parallel_plan = place_exchanges(physical, db.params, DOP)
            record.regions = len(plan_parallel_regions(parallel_plan))

            # The default engine, with everything the facade arms on it.
            context = db._make_context()
            with span(op_id, "storage.txn:pin_snapshot", root):
                release = db._pin_read_snapshot(context)
            try:
                with span(op_id, "engine.executor:execute", root):
                    _schema, rows = execute(physical, catalog, context, parameters=op.args or None)
            finally:
                with span(op_id, "storage.txn:release_snapshot", root):
                    release()
            record.wrong += not rows_match(rows, op.expect, op.ordered)
            counters = context.counters
            record.rows = len(rows)
            record.rows_produced = counters.rows_produced
            record.rows_examined = counters.rows_produced + counters.rows_compared
            record.pages_read = counters.total_page_reads
            record.observed_cost = counters.observed_cost(db.params)
            for node in walk_physical(physical):
                stats = context.runtime.get(node)
                if stats is not None:
                    record.q_errors.append(stats.q_error)

            # The alternative engines: same plan (the DOP-2 ones with
            # exchanges placed), same snapshot rules, no feedback harvest.
            for name, flags in self.engines.items():
                plan = parallel_plan if "parallel_mode" in flags else physical
                with _side_context(db, **flags) as context, span(op_id, name, root):
                    _schema, rows = execute(plan, catalog, context, parameters=op.args or None)
                record.wrong += not rows_match(rows, op.expect, op.ordered)
        record.wall = time.perf_counter() - started
        return record

    # -- writes ---------------------------------------------------------
    def write(self, op) -> OpRecord:
        """DML is timed as whole ``db.sql`` calls, one span per statement."""
        span = self.tracer.span
        op_id = self._next_id
        self._next_id += 1
        in_txn = len(op.statements) > 1
        started = time.perf_counter()
        with span(op_id, "op") as root:
            for kind, text in zip(op.kinds, op.statements):
                if kind in ("begin", "commit"):
                    name = f"storage.txn:{kind}"
                else:
                    name = f"engine.dml:{'txn_' if in_txn else ''}{kind}"
                with span(op_id, name, root):
                    self.db.sql(text)
        return OpRecord(wall=time.perf_counter() - started)


# ----------------------------------------------------------------------
# Stand-alone probes
# ----------------------------------------------------------------------
def enumeration_probe(seed: int, repeats: int) -> Dict[str, Optional[float]]:
    """System-R vs Cascades on 8-relation chain and star graphs (Sec. 6).

    System-R is timed as ``Database`` configures it (default
    EnumeratorConfig); the same-optimum check compares Cascades with the
    bushy System-R run, which searches the same space.
    """
    catalog = Catalog()
    names = build_chain_tables(
        catalog, 8, rows_per_relation=60, domain_ratio=1.0, rng=random.Random(f"{seed}:enumeration")
    )
    graphs = [chain_query_graph(names), star_query_graph(names[0], names[1:])]
    systemr_s: List[float] = []
    cascades_s: List[float] = []
    plans = groups = rules = pruned = same = 0
    for graph in graphs:
        stats = graph_stats(catalog, graph)
        for _ in range(repeats):
            started = time.perf_counter()
            dp = SystemRJoinEnumerator(catalog, graph, stats, config=EnumeratorConfig())
            dp.best_plan()
            systemr_s.append(time.perf_counter() - started)
            started = time.perf_counter()
            cascades = CascadesOptimizer(catalog, graph, stats)
            _plan, cascades_cost = cascades.best_plan()
            cascades_s.append(time.perf_counter() - started)
        plans += dp.stats.plans_considered
        groups += cascades.stats.groups
        rules += cascades.stats.transformation_rules_fired + cascades.stats.implementation_rules_fired
        pruned += cascades.stats.pruned_by_bound
        bushy = SystemRJoinEnumerator(catalog, graph, stats, config=EnumeratorConfig(bushy=True))
        _plan, bushy_cost = bushy.best_plan()
        same += abs(bushy_cost.total - cascades_cost.total) <= 1e-6 * max(1.0, bushy_cost.total)
    return {
        "core.systemr.best_plan_us_n8": median(systemr_s) * 1e6,
        "core.systemr.plans_considered": plans,
        "core.cascades.best_plan_us_n8": median(cascades_s) * 1e6,
        "core.cascades.groups": groups,
        "core.cascades.rules_fired": rules,
        "core.cascades.pruned_by_bound": pruned,
        "core.cascades.same_optimum_share": same / len(graphs),
    }


def admission_probe(calls: int = 300) -> float:
    """Median seconds of one uncontended admit + release."""
    controller = AdmissionController(AdmissionConfig())
    samples = []
    for _ in range(calls):
        started = time.perf_counter()
        controller.admit().release()
        samples.append(time.perf_counter() - started)
    return median(samples)


def startup_probe(db: Database, sql: str, calls: int = 200) -> float:
    """Median seconds to execute an already-optimized one-row plan."""
    physical = db.optimize(sql).physical
    samples = []
    for _ in range(calls):
        with _side_context(db) as context:
            started = time.perf_counter()
            execute(physical, db.catalog, context)
            samples.append(time.perf_counter() - started)
    return median(samples)


def empty_txn_probe(db: Database, calls: int = 100) -> float:
    """Median seconds of BEGIN immediately followed by COMMIT."""
    samples = []
    for _ in range(calls):
        started = time.perf_counter()
        db.sql("BEGIN")
        db.sql("COMMIT")
        samples.append(time.perf_counter() - started)
    return median(samples)


def wal_state(db: Database) -> Tuple[int, int]:
    """(WAL records, commits) so far; both 0 before the first write."""
    manager = db._txn_manager
    if manager is None:
        return 0, 0
    return len(manager.wal), manager.commits


def columnar_cost_points(db: Database, statements: Sequence[str]) -> List[Tuple[float, float]]:
    """(estimated cost, measured wall) per statement under the columnar
    engine, planned with the columnar CPU discount the way
    ``Database(columnar_mode=True)`` plans -- the second engine of
    ``cost.rank_corr``."""
    if not hasattr(ExecContext(db.params), "columnar_mode"):
        return []
    params = db.params.with_overrides(columnar_execution=True)
    optimizer = Optimizer(db.catalog, params, db.config, feedback=db.feedback)
    points = []
    for sql in statements:
        physical = optimizer.optimize(sql).physical
        with _side_context(db, columnar_mode=True) as context:
            started = time.perf_counter()
            execute(physical, db.catalog, context)
            points.append((physical.est_cost.total, time.perf_counter() - started))
    return points

"""The two passes over one workload and the metrics each yields.

``untraced_pass`` is what a user sees: ``Database()`` with default
arguments, closed-loop clients, a window on the clock; every end-to-end
metric comes from it.  ``traced_pass`` replays a fixed-count sample of
the same streams stage by stage (``layers.StagedReplay``) and yields the
per-layer metrics; it never contributes an end-to-end number.

A metric that does not apply (a latency class the workload never issues,
an engine flag that no longer exists) is ``None`` here.
"""

from __future__ import annotations

import gc
import itertools
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from benchmarks.ledger import layers
from benchmarks.ledger.client import ClientLog, DbTarget, NoopTarget, run_burst, run_window
from benchmarks.ledger.oracle import table_mismatches
from benchmarks.ledger.stats import median, median_or_none, percentile, spearman
from benchmarks.ledger.trace import NullTracer, Tracer, durations_by_name, write_jsonl
from benchmarks.ledger.workloads import (
    LEDGER_COLUMNS,
    TALLY_COLUMNS,
    WRITE_MIX,
    Workload,
    build,
    trace_sample,
)

SEGMENTS = 5  # every end-to-end metric is the median over this many parts of the window
READ_CLASSES = (
    "prepared_point", "literal_point", "range", "join", "join_n4_6", "join_n7_9",
    "rewrite_mix", "scan_filter", "group_agg", "hash_join", "star4", "topn", "distinct",
)
RANK_CORR_STATEMENTS = 24
PROBE_REPEATS = 3
STAGED_BURST = 900  # write operations of the burst the traced pass stages


@dataclass
class PassResult:
    metrics: Dict[str, Optional[float]]
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def count(self, logs: Iterable[ClientLog]) -> None:
        for log in logs:
            self.attempted += log.attempted
            self.failed += log.failed
            self.errors.extend(log.errors)


# ----------------------------------------------------------------------
# Checks on final table contents
# ----------------------------------------------------------------------
def _check_tables(workload: Workload, result: PassResult, stage: str) -> None:
    """Ledger and Tally must equal the oracle's, row for row."""
    db, oracle = workload.db, workload.oracle
    for table, alias, columns in (("Ledger", "L", LEDGER_COLUMNS), ("Tally", "T", TALLY_COLUMNS)):
        listed = ", ".join(f"{alias}.{column}" for column in columns)
        got = db.sql(f"SELECT {listed} FROM {table} {alias}").rows
        want = oracle.table(table, columns)
        wrong = table_mismatches(got, want)
        result.attempted += max(len(got), len(want))
        result.failed += wrong
        if wrong:
            result.errors.append(f"{table} {stage}: {wrong} lost or phantom rows")


def _check_durability(workload: Workload, journals: Iterable[Sequence[str]], result: PassResult) -> float:
    """Replay the committed journals serially into SQLite and compare the
    write targets -- then crash, recover and compare again.  Returns the
    seconds ``recover()`` took."""
    for journal in journals:
        workload.oracle.replay(journal)
    _check_tables(workload, result, "after replay")
    workload.db.crash()
    started = time.perf_counter()
    workload.db.recover()
    recover_s = time.perf_counter() - started
    _check_tables(workload, result, "after recovery")
    return recover_s


# ----------------------------------------------------------------------
# The untraced pass: end-to-end metrics
# ----------------------------------------------------------------------
@dataclass
class _Segment:
    """A run of whole blocks of one client's window."""

    ops: int
    seconds: float
    reads: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)


def _segments(log: ClientLog, block_size: int) -> List[_Segment]:
    """Split a client's whole blocks into up to SEGMENTS equal runs.

    Every block has the same mix, so every segment does; a metric is
    computed per segment and reported as the median over segments, which
    a disturbance shorter than half the window cannot move.  Samples of
    the unfinished last block are left out.
    """
    blocks = len(log.block_ends)
    count = max(1, min(SEGMENTS, blocks))
    per = max(1, blocks // count)
    if blocks:
        edges, ops = [log.started] + log.block_ends, per * block_size
    else:  # a window shorter than one block (--smoke): all of it
        edges, ops = [log.started, log.ended], log.ops
    segments = [_Segment(ops, edges[(k + 1) * per] - edges[k * per]) for k in range(count)]
    for block, latency, _cls, write, _after in log.samples:
        if block // per < count:
            segment = segments[block // per]
            (segment.writes if write else segment.reads).append(latency)
    return segments


def _median_over(segments: Sequence[_Segment], pick: str, fraction: float) -> float:
    return median([percentile(getattr(s, pick), fraction) for s in segments if getattr(s, pick)])


def untraced_pass(name: str, seed: int, seconds: float, scale: float, setups: int) -> PassResult:
    workload = None
    setup_s = []
    for _ in range(setups):
        if workload is not None:
            workload.oracle.close()
            workload = None
        gc.collect()
        started = time.perf_counter()
        workload = build(name, seed, scale)
        setup_s.append(time.perf_counter() - started)

    target = DbTarget(workload.db)
    logs = run_window(workload, target, seconds=seconds)
    result = PassResult({})
    result.count(logs)
    per_client = [_segments(log, workload.block) for log in logs]
    read_segments = write_segments = [s for segments in per_client for s in segments]
    journals = [log.journal for log in logs]
    if workload.epilogue:
        burst = run_burst(workload, target, workload.epilogue)
        result.count([burst])
        write_segments = _segments(burst, len(WRITE_MIX))
        journals.append(burst.journal)
    _check_durability(workload, journals, result)
    result.metrics = {
        "setup_s": median(setup_s),
        # Clients run side by side: the system's rate is the sum of theirs.
        "qps": sum(median([s.ops / s.seconds for s in segments]) for segments in per_client),
        "latency_p50_ms": _median_over(read_segments, "reads", 0.50) * 1e3,
        "latency_p95_ms": _median_over(read_segments, "reads", 0.95) * 1e3,
        "write_latency_p50_ms": _median_over(write_segments, "writes", 0.50) * 1e3,
        "write_latency_p95_ms": _median_over(write_segments, "writes", 0.95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    workload.oracle.close()
    return result


# ----------------------------------------------------------------------
# The traced pass: per-layer metrics
# ----------------------------------------------------------------------
def _staged(plain: Optional[layers.StagedReplay], traced: layers.StagedReplay, ops: Iterable,
            result: PassResult, journal: List[str]):
    """Replay ``ops`` stage by stage; returns (plain, traced) read records.

    Each read runs twice, once per replay, in alternating order: the two
    differ only in whether spans are recorded, so the difference of their
    walls is what tracing costs.  Writes change state and run once.
    """
    records: Dict[int, List[layers.OpRecord]] = {id(plain): [], id(traced): []}
    for index, op in enumerate(ops):
        try:
            if op.kinds:
                traced.write(op)
                journal.extend(op.dml)
                result.attempted += len(op.statements)
                continue
            pair = (plain, traced) if index % 2 == 0 else (traced, plain)
            for replay in pair:
                if replay is None:
                    continue
                record = replay.read(op)
                records[id(replay)].append(record)
                result.attempted += 1 + len(replay.engines)
                result.failed += record.wrong
                if record.wrong:
                    result.errors.append(f"wrong staged result [{op.text}] args={op.args}")
        except Exception as error:  # noqa: BLE001 -- a failed operation is a counted failure
            result.attempted += 1
            result.failed += 1
            result.errors.append(f"{type(error).__name__}: {error} [{op.statements}]")
    return records[id(plain)], records[id(traced)]


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def traced_pass(name: str, seed: int, seconds: float, scale: float,
                trace_out: Optional[str] = None) -> PassResult:
    result = PassResult({})
    sample = trace_sample(name, seconds)
    workload = build(name, seed, scale)
    db = workload.db
    metrics: Dict[str, Optional[float]] = {"stats.analyze_s": workload.analyze_s}

    # 1. The generator alone: same streams, answers served from the references.
    idle = build(name, seed, scale)
    logs = run_window(idle, NoopTarget(), count=sample, warmup=0)
    metrics["client.generator_us"] = (
        max(log.ended - log.started for log in logs) / sample * 1e6
    )
    idle.oracle.close()

    # 2. A short untraced run through the facade: what the traced numbers
    #    are compared with, and the real plan cache's behaviour.
    cache = db.plan_cache
    before: List[int] = []
    logs = run_window(workload, DbTarget(db), count=sample,
                      before_window=lambda: before.extend((cache.hits, cache.misses, cache.invalidations)))
    hits, misses, invalidations = before
    result.count(logs)
    journals = [log.journal for log in logs]
    samples = [s for log in logs for s in log.samples]
    reads = [s[1] for s in samples if not s[3]]
    lookups = (cache.hits - hits) + (cache.misses - misses)
    metrics.update({
        "client.samples": len(samples),
        "client.latency_p99_ms": percentile(reads, 0.99) * 1e3,
        "client.read_after_commit_p50_ms": _ms(median_or_none([s[1] for s in samples if s[4]])),
        "core.plancache.hit_ratio": _ratio(cache.hits - hits, lookups),
        "core.plancache.invalidations": cache.invalidations - invalidations,
        "storage.txn.conflict_retries": sum(log.retries for log in logs),
        "storage.txn.retry_share": _ratio(
            sum(log.retries for log in logs), sum(log.write_ops for log in logs)) or 0.0,
    })
    by_class = defaultdict(list)
    for s in samples:
        by_class[s[2]].append(s[1])
    for cls in READ_CLASSES:
        metrics[f"client.{cls}_p50_ms"] = _ms(median_or_none(by_class[cls]))

    # 3. The staged replay of a further segment of client 0's stream, once
    #    without recording spans and once with (plan caches start empty, so
    #    every stage runs at least once even where the facade's cache is hot).
    stream = workload.streams[0]
    journal: List[str] = []
    journals.append(journal)
    wal_before = layers.wal_state(db)
    tracer = Tracer()
    traced = layers.StagedReplay(db, workload.prepared, tracer)
    gc.collect()
    plain_reads, staged_reads = _staged(
        layers.StagedReplay(db, workload.prepared, NullTracer()), traced,
        itertools.islice(stream, sample), result, journal)
    metrics["client.trace_overhead_share"] = _ratio(
        sum(r.wall for r in staged_reads) - sum(r.wall for r in plain_reads),
        sum(r.wall for r in plain_reads))
    # Read-only workloads: stage the write burst too, so the DML, commit
    # and WAL layers are measured on every database shape.
    _staged(None, traced, workload.epilogue[:STAGED_BURST], result, journal)
    wal_after = layers.wal_state(db)
    metrics.update(_layer_metrics(tracer.spans, staged_reads, median(reads)))
    metrics["storage.wal.records_per_commit"] = _ratio(
        wal_after[0] - wal_before[0], wal_after[1] - wal_before[1])

    # 4. Probes for what no workload reaches through Database().
    metrics.update(layers.enumeration_probe(seed, max(1, round(PROBE_REPEATS * scale))))
    metrics["engine.admission.admit_release_us"] = layers.admission_probe() * 1e6
    metrics["engine.executor.startup_us"] = layers.startup_probe(db, workload.startup_sql) * 1e6
    metrics["storage.txn.begin_commit_us"] = layers.empty_txn_probe(db) * 1e6
    metrics["cost.rank_corr"] = _rank_corr(
        db, tracer.spans, staged_reads, max(2, round(RANK_CORR_STATEMENTS * scale)))

    # 5. Durability: the journals of every segment above, replayed serially.
    recover_s = _check_durability(workload, journals, result)
    rows = sum(len(db.catalog.table(t).rows()) for t in ("Ledger", "Tally"))
    metrics["storage.wal.recover_s"] = recover_s
    metrics["storage.wal.replay_rows_per_s"] = rows / recover_s
    metrics["client.failed_share"] = result.failed / max(1, result.attempted)
    if trace_out:
        write_jsonl(tracer.spans, trace_out)
    workload.oracle.close()
    result.metrics = metrics
    return result


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e3


def _layer_metrics(spans, reads: Sequence[layers.OpRecord],
                   facade_median_s: float) -> Dict[str, Optional[float]]:
    by_name = durations_by_name(spans)

    def us(name: str) -> Optional[float]:
        value = median_or_none(by_name.get(name, []))
        return None if value is None else value * 1e6

    def total(name: str) -> float:
        return sum(by_name.get(name, []))

    # Per read operation, the time on the path Database.sql takes.
    default_path = defaultdict(float)
    reads_ids = {span[0] for span in spans if span[1] == "engine.executor:execute"}
    for op_id, name, start, end, _parent in spans:
        if op_id in reads_ids and name in layers.DEFAULT_PATH:
            default_path[op_id] += end - start
    path_total = sum(default_path.values())
    row_s = total("engine.executor:execute")
    columnar_s = total("engine.columnar:execute")
    q_errors = [q for record in reads for q in record.q_errors]
    return {
        "sql.lexer.tokenize_us": us("sql.lexer:tokenize"),
        "sql.lexer.tokens_per_s": _ratio(sum(r.tokens for r in reads), total("sql.lexer:tokenize")),
        "sql.parser.parse_us": us("sql.parser:parse_statement"),
        "sql.parser.normalize_us": us("sql.parser:normalize_sql"),
        "sql.binder.bind_us": us("sql.binder:bind"),
        "logical.lower.lower_us": us("logical.lower:lower_block"),
        "core.rewrite.rewrite_us": us("core.rewrite:rewrite"),
        "core.rewrite.rules_fired": sum(r.rules_fired for r in reads),
        "core.physicalize.plan_query_us": us("core.physicalize:plan_query"),
        "core.parallel.place_exchanges_us": us("core.parallel:place_exchanges"),
        "core.parallel.regions_placed": sum(r.regions for r in reads),
        "core.optimizer.optimize_us": us("core.optimizer:optimize"),
        "core.optimizer.facade_overhead_us": (facade_median_s - median(list(default_path.values()))) * 1e6,
        "core.plancache.get_us": us("core.plancache:get"),
        "core.plancache.put_us": us("core.plancache:put"),
        "stats.qerror_p50": percentile(q_errors, 0.50),
        "stats.qerror_p95": percentile(q_errors, 0.95),
        "cost.observed_cost": median([r.observed_cost for r in reads]),
        "engine.executor.execute_ms": _ms(median_or_none(by_name["engine.executor:execute"])),
        "engine.executor.rows_per_s": _ratio(sum(r.rows_produced for r in reads), row_s),
        "engine.executor.pages_read": sum(r.pages_read for r in reads),
        "engine.executor.rows_examined_per_row": _ratio(
            sum(r.rows_examined for r in reads), max(1, sum(r.rows for r in reads))),
        "engine.columnar.execute_ms": _ms(median_or_none(by_name.get("engine.columnar:execute", []))),
        "engine.columnar.speedup_vs_row": _ratio(row_s, columnar_s),
        "engine.parallel.execute_ms_dop2": _ms(
            median_or_none(by_name.get("engine.parallel:execute_dop2", []))),
        "engine.parallel.wall_speedup_dop2": _ratio(row_s, total("engine.parallel:execute_dop2")),
        "engine.parallel.col_wall_speedup_dop2": _ratio(
            columnar_s, total("engine.parallel:execute_col_dop2")),
        "engine.dml.insert_us": us("engine.dml:insert"),
        "engine.dml.update_us": us("engine.dml:update"),
        "engine.dml.delete_us": us("engine.dml:delete"),
        "storage.txn.commit_us": us("storage.txn:commit"),
        "trace.optimizer_share": _ratio(
            sum(total(stage) for stage in layers.OPTIMIZER_STAGES), path_total),
        "trace.executor_share": _ratio(row_s, path_total),
    }


def _rank_corr(db, spans, reads: Sequence[layers.OpRecord], statements: int) -> Optional[float]:
    """Spearman correlation of estimated plan cost with measured execute
    wall, over (statement, engine): the row engine from the staged spans,
    the columnar engine from a re-plan under its own cost parameters."""
    walls = [end - start for _id, name, start, end, _p in spans if name == "engine.executor:execute"]
    by_statement = defaultdict(list)
    for record, wall in zip(reads, walls):
        by_statement[record.key].append((record.est_cost, wall))
    points = [(runs[0][0], median([wall for _cost, wall in runs])) for runs in by_statement.values()]
    literal = [text for text, params in by_statement if params == 0]
    points += layers.columnar_cost_points(db, literal[:statements])
    return spearman([cost for cost, _wall in points], [wall for _cost, wall in points])

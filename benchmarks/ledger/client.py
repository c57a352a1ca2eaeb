"""The load generator: closed-loop clients over a workload's streams.

Each client sends its next operation only after the previous one
returned (callers that wait for a reply), from one process with one
thread per client.  Latency is wall-clock around the ``db.sql`` /
``execute_prepared`` call alone; the reference comparison happens after
the clock stops.  Every result is checked.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro import Database, SerializationError

from benchmarks.ledger.oracle import rows_match
from benchmarks.ledger.workloads import WRITE_MIX, Op, Workload

# Concurrent clients wait this long between a reply and their next
# statement -- the round trip any real client has.  Back to back, two
# Python threads are switched mid-statement every 5 ms, and the p95 of
# the writes sat exactly on the knee between preempted statements (3+ ms)
# and the rest (0.4 ms); with the pause a statement is rarely preempted
# and the p99 of the writes is within 15 % of their p95.
THINK_SECONDS = 0.0002

# (block index, latency seconds, class, is_write, directly follows a write)
Sample = Tuple[int, float, str, bool, bool]


class DbTarget:
    """Sends operations to the database under test."""

    def __init__(self, db: Database) -> None:
        self._sql = db.sql
        self._execute_prepared = db.execute_prepared

    def read(self, op: Op):
        if op.prepared:
            return self._execute_prepared(op.prepared, *op.args).rows
        return self._sql(op.statements[0]).rows

    def write(self, text: str) -> None:
        self._sql(text)


class NoopTarget:
    """Answers from the references: what is left is the generator's own
    cost per operation (``client.generator_us``)."""

    def read(self, op: Op):
        return op.expect

    def write(self, text: str) -> None:
        pass


@dataclass
class ClientLog:
    """Everything one client observed."""

    samples: List[Sample] = field(default_factory=list)
    block_ends: List[float] = field(default_factory=list)  # when each whole block completed
    journal: List[str] = field(default_factory=list)  # committed DML, in order
    ops: int = 0  # operations completed in the measured phase
    attempted: int = 0
    failed: int = 0
    retries: int = 0
    write_ops: int = 0
    errors: List[str] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0


def _note_failure(log: ClientLog, message: str) -> None:
    log.failed += 1
    if len(log.errors) < 5:
        log.errors.append(message)


def _run_read(target, op: Op, log: ClientLog, block: Optional[int], after_write: bool) -> None:
    log.attempted += 1
    started = perf_counter()
    try:
        rows = target.read(op)
    except Exception as error:  # noqa: BLE001 -- a failed read is a counted failure
        _note_failure(log, f"{type(error).__name__}: {error} [{op.text}]")
        return
    ended = perf_counter()
    if block is not None:
        log.samples.append((block, ended - started, op.cls, False, after_write))
    if not rows_match(rows, op.expect, op.ordered):
        _note_failure(log, f"wrong result [{op.text}] args={op.args}")


def _run_write(target, op: Op, log: ClientLog, block: Optional[int], think: float) -> None:
    """One autocommit statement or explicit transaction, retried on
    write-write conflict; the retry time stays in the latency of the
    statement that finally went through."""
    carried = 0.0
    attempt = 0
    while True:
        started = perf_counter()
        try:
            for kind, text in zip(op.kinds, op.statements):
                started = perf_counter()
                target.write(text)
                ended = perf_counter()
                if block is not None:
                    log.samples.append((block, ended - started + carried, kind, True, False))
                carried = 0.0
                if think and kind != op.kinds[-1]:
                    time.sleep(think)  # inside a transaction: one round trip per statement
        except SerializationError:
            # First-writer-wins: the engine already aborted us.  Back off
            # briefly (the winner needs the interpreter to commit) and
            # run the operation again from its first statement.
            attempt += 1
            log.retries += 1
            time.sleep(min(0.002, 0.0002 * attempt))
            carried += perf_counter() - started
            continue
        except Exception as error:  # noqa: BLE001 -- a failed write is a counted failure
            _note_failure(log, f"{type(error).__name__}: {error} [{op.statements}]")
            if len(op.statements) > 1:
                try:
                    target.write("ROLLBACK")
                except Exception:  # noqa: BLE001 -- no open transaction left to roll back
                    pass
            return
        break
    log.attempted += len(op.statements)
    log.write_ops += 1
    log.journal.extend(op.dml)


def _run_ops(target, stream: Iterator[Op], log: ClientLog, block_size: int, *,
             seconds: Optional[float] = None, count: Optional[int] = None, record: bool = True,
             think: float = 0.0) -> None:
    """Drive one client until ``seconds`` elapse or ``count`` operations ran.

    Samples carry the index of the stream block they belong to, and the
    time each whole block completed is noted: every block has the same
    composition, so blocks are the unit the metrics are aggregated over.
    ``think`` seconds pass between a reply and the client's next statement.
    """
    deadline = None if seconds is None else perf_counter() + seconds
    done = 0
    after_write = False
    while count is None or done < count:
        if deadline is not None and perf_counter() >= deadline:
            break
        op = next(stream)
        block = done // block_size if record else None
        done += 1
        if op.kinds:
            _run_write(target, op, log, block, think)
        else:
            _run_read(target, op, log, block, after_write)
        after_write = bool(op.kinds)
        if think:
            time.sleep(think)
        if record and done % block_size == 0:
            log.block_ends.append(perf_counter())
    if record:
        log.ops = done


def _pin_to_one_cpu() -> Callable[[], None]:
    """Confine the process to one CPU; returns the undo.

    Two Python client threads only ever run one at a time.  Left to the
    OS they bounce between cores, and the cross-core hand-over of the
    interpreter lock made every latency of the two-client workload
    bimodal (p50 1.3 ms or 2.7 ms, run to run); on one core it repeats.
    """
    if not hasattr(os, "sched_setaffinity"):
        return lambda: None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return lambda: os.sched_setaffinity(0, allowed)


def run_window(workload: Workload, target, seconds: Optional[float] = None,
               count: Optional[int] = None, warmup: Optional[int] = None,
               before_window: Optional[Callable[[], None]] = None) -> List[ClientLog]:
    """Warm up, collect garbage, then measure every client at once.

    The window is ``seconds`` on the clock, or exactly ``count``
    operations per client (the traced pass, whose counts must repeat).
    The collector stays enabled while measuring -- users pay for it --
    but starts each window from the same state.
    """
    logs = [ClientLog() for _ in workload.streams]
    barrier = threading.Barrier(workload.clients + 1)
    crashes: List[BaseException] = []
    warmup = workload.warmup if warmup is None else warmup

    def client(number: int) -> None:
        log, stream = logs[number], workload.streams[number]
        try:
            _run_ops(target, stream, log, workload.block, count=warmup, record=False, think=think)
            barrier.wait()
            barrier.wait()  # released once the main thread has collected
            log.started = perf_counter()
            _run_ops(target, stream, log, workload.block, seconds=seconds, count=count, think=think)
            log.ended = perf_counter()
        except threading.BrokenBarrierError:
            return  # another client crashed; its error is the one to report
        except BaseException as error:  # re-raised by the main thread below
            crashes.append(error)
            barrier.abort()

    concurrent = workload.clients > 1
    unpin = _pin_to_one_cpu() if concurrent else (lambda: None)
    think = THINK_SECONDS if concurrent else 0.0
    threads = [
        threading.Thread(target=client, args=(number,), name=f"ledger-client-{number}")
        for number in range(workload.clients)
    ]
    try:
        for thread in threads:
            thread.start()
        try:
            barrier.wait()
            gc.collect()
            if before_window is not None:
                before_window()  # every client is warmed up and parked
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        for thread in threads:
            thread.join()
    finally:
        unpin()
    if crashes:
        raise crashes[0]
    return logs


def run_burst(workload: Workload, target, ops: Sequence[Op]) -> ClientLog:
    """A fixed list of operations on the calling thread (the write burst)."""
    log = ClientLog()
    gc.collect()
    log.started = perf_counter()
    _run_ops(target, iter(ops), log, len(WRITE_MIX), count=len(ops))
    log.ended = perf_counter()
    return log

"""Cost formulas for physical operators (Section 5.2).

Costs combine CPU, I/O, and (for parallel plans) communication into one
:class:`Cost` value.  Formulas follow the classical System-R / textbook
shapes and include the refinements the paper highlights:

* buffer-utilization modelling for index nested-loop joins, via the
  Cardenas--Yao page-hit estimate plus a buffer-pool cap ([40, 17]);
* sort costs that depend on whether the input already carries a useful
  order (interesting orders make this matter);
* external-memory spill terms for sorts and hash operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cost.parameters import CostParameters


_set_field = object.__setattr__


@dataclass(frozen=True, init=False)
class Cost:
    """A cost vector: CPU work, I/O work, and communication.

    ``total`` collapses the vector into the single comparable metric the
    optimizer minimizes, as the paper notes most systems do.
    """

    # Slotted by hand (``dataclass(slots=True)`` needs Python 3.10): field
    # defaults would collide with __slots__, so __init__ supplies them.
    __slots__ = ("cpu", "io", "comm")

    cpu: float
    io: float
    comm: float

    def __init__(self, cpu: float = 0.0, io: float = 0.0, comm: float = 0.0) -> None:
        _set_field(self, "cpu", cpu)
        _set_field(self, "io", io)
        _set_field(self, "comm", comm)

    def __reduce__(self):
        # Frozen + slotted: the default copy/pickle protocol would setattr.
        return (Cost, (self.cpu, self.io, self.comm))

    @property
    def total(self) -> float:
        """Combined scalar metric."""
        return self.cpu + self.io + self.comm

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.cpu + other.cpu, self.io + other.io, self.comm + other.comm)

    def scaled(self, factor: float) -> "Cost":
        """Cost multiplied by a repetition factor."""
        return Cost(self.cpu * factor, self.io * factor, self.comm * factor)

    def __lt__(self, other: "Cost") -> bool:
        return self.total < other.total

    def __repr__(self) -> str:
        return (
            f"Cost(total={self.total:.2f}, cpu={self.cpu:.2f}, "
            f"io={self.io:.2f}, comm={self.comm:.2f})"
        )


ZERO_COST = Cost()

INFINITE_COST = Cost(cpu=math.inf, io=math.inf, comm=math.inf)


def pages_for_rows(rows: float, row_width_bytes: float, params: CostParameters) -> float:
    """Pages needed to hold ``rows`` of a given width."""
    if rows <= 0:
        return 0.0
    per_page = max(1.0, params.page_size_bytes / max(row_width_bytes, 1.0))
    return max(1.0, rows / per_page)


def exchange_page_count(
    rows: int, width: float, scheme, degree: int, params: CostParameters
) -> int:
    """Pages an exchange moves between processors, scheme-aware.

    The counted twin of the two-phase cost model
    (:class:`repro.core.parallel.machine.ParallelMachine`): a hash or
    round-robin repartition moves the fraction of pages that change
    processors, ``(p-1)/p``; a broadcast replicates to every other
    processor, ``p-1`` copies; a gather (singleton) ships everything to
    the coordinator once.  Every engine's exchange pass-through charges
    through this one function, so ``counters.exchange_pages`` agrees
    across engines on the same plan.
    """
    # Imported here: repro.physical imports this module.
    from repro.physical.properties import PartitionScheme

    raw = pages_for_rows(rows, width, params)
    if degree <= 1:
        moved = raw
    elif scheme is PartitionScheme.BROADCAST:
        moved = raw * (degree - 1)
    elif scheme in (PartitionScheme.HASH, PartitionScheme.ROUND_ROBIN):
        moved = raw * (degree - 1) / degree
    else:
        moved = raw
    return int(moved)


def cardenas_yao_pages(rows_fetched: float, total_rows: float, total_pages: float) -> float:
    """Expected distinct pages touched when fetching ``rows_fetched`` random
    rows from a table of ``total_rows`` rows on ``total_pages`` pages.

    The classical Cardenas formula: P * (1 - (1 - 1/P) ** k).
    """
    if total_pages <= 0 or rows_fetched <= 0:
        return 0.0
    if total_rows <= 0:
        return min(rows_fetched, total_pages)
    probability_miss = (1.0 - 1.0 / total_pages) ** rows_fetched
    return total_pages * (1.0 - probability_miss)


def vector_cpu_factor(params: CostParameters) -> float:
    """The vectorization-aware CPU term (columnar execution).

    Per-row CPU constants (cpu_tuple_cost, cpu_operator_cost,
    cpu_hash_cost) were calibrated against interpreted row-at-a-time
    execution.  A numpy kernel pays the interpreter dispatch once per
    *batch*, so vectorizable operators scale those constants down by
    ``vector_cpu_discount`` when pricing for the columnar engine.
    Operators without a whole-batch form (nested loops, merge join,
    sorts, index fetches, UDF filters) keep the full constants, letting
    the physicalizer weigh row-friendly plan shapes against
    vector-friendly ones instead of discounting everything uniformly.
    """
    if params.columnar_execution:
        return params.vector_cpu_discount
    return 1.0


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------
def cost_seq_scan(
    rows: float, pages: float, predicate_ops: int, params: CostParameters
) -> Cost:
    """Full sequential scan with an optional pushed-down filter."""
    io = pages * params.seq_page_cost
    cpu = (
        rows
        * (params.cpu_tuple_cost + predicate_ops * params.cpu_operator_cost)
        * vector_cpu_factor(params)
    )
    return Cost(cpu=cpu + params.startup_cost_per_operator, io=io)


def cost_index_scan(
    matching_rows: float,
    table_rows: float,
    table_pages: float,
    index_height: int,
    clustered: bool,
    params: CostParameters,
) -> Cost:
    """Index seek + fetch of matching rows.

    A clustered index reads the covered data pages sequentially; an
    unclustered one pays a (buffer-capped) random page read per matching
    row, per the Cardenas--Yao estimate.
    """
    descend = index_height * params.random_page_cost
    if clustered:
        fraction = matching_rows / table_rows if table_rows > 0 else 0.0
        data_io = max(1.0, table_pages * fraction) * params.seq_page_cost
    else:
        touched = cardenas_yao_pages(matching_rows, table_rows, table_pages)
        # Buffer pool: pages beyond the pool capacity pay full random cost;
        # a pool at least as large as the table caps re-reads.
        touched = min(touched, max(table_pages, matching_rows))
        if table_pages <= params.buffer_pool_pages:
            data_io = touched * params.random_page_cost
        else:
            data_io = (
                min(matching_rows, touched * 1.5) * params.random_page_cost
            )
    cpu = matching_rows * params.cpu_tuple_cost
    return Cost(
        cpu=cpu + params.startup_cost_per_operator, io=descend + data_io
    )


# ----------------------------------------------------------------------
# Sorts
# ----------------------------------------------------------------------
def cost_sort(rows: float, pages: float, params: CostParameters) -> Cost:
    """External merge sort: n log n CPU plus spill I/O beyond workspace."""
    if rows <= 0:
        return Cost(cpu=params.startup_cost_per_operator)
    comparisons = rows * max(1.0, math.log2(max(rows, 2.0)))
    cpu = comparisons * params.cpu_operator_cost + rows * params.cpu_tuple_cost
    io = 0.0
    if pages > params.sort_memory_pages:
        merge_passes = max(
            1.0,
            math.ceil(
                math.log(max(pages / params.sort_memory_pages, 2.0))
                / math.log(max(params.sort_memory_pages - 1, 2))
            ),
        )
        io = 2.0 * pages * merge_passes * params.seq_page_cost
    return Cost(cpu=cpu + params.startup_cost_per_operator, io=io)


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
def cost_nested_loop_join(
    outer_rows: float,
    inner_rescan_cost: Cost,
    inner_rows: float,
    predicate_ops: int,
    params: CostParameters,
) -> Cost:
    """Tuple-at-a-time nested loop: the inner is re-evaluated per outer row.

    ``inner_rescan_cost`` is the cost of one rescan of the inner (a
    materialized inner rescan is cheap; a raw table scan is not).
    """
    rescans = max(outer_rows, 1.0)
    comparisons = outer_rows * inner_rows * max(1, predicate_ops)
    cpu = comparisons * params.cpu_operator_cost
    return Cost(
        cpu=inner_rescan_cost.cpu * rescans
        + (cpu + params.startup_cost_per_operator),
        io=inner_rescan_cost.io * rescans,
        comm=inner_rescan_cost.comm * rescans,
    )


def cost_index_nested_loop_join(
    outer_rows: float,
    matches_per_outer: float,
    inner_table_rows: float,
    inner_table_pages: float,
    index_height: int,
    clustered: bool,
    params: CostParameters,
) -> Cost:
    """Index nested loop: one index probe per outer row.

    Applies the buffer-locality adjustment of [40, 17]: when the inner
    index+data fit in the buffer pool, repeated probes hit memory, so
    the per-probe I/O collapses after the pool is warm.
    """
    probe = cost_index_scan(
        matches_per_outer,
        inner_table_rows,
        inner_table_pages,
        index_height,
        clustered,
        params,
    )
    total = probe.scaled(max(outer_rows, 1.0))
    if inner_table_pages <= params.buffer_pool_pages:
        # Warm-pool discount: only the first pass over the inner pays I/O.
        capped_io = min(
            total.io,
            inner_table_pages * params.random_page_cost
            + outer_rows * index_height * params.cpu_operator_cost,
        )
        total = Cost(cpu=total.cpu, io=capped_io, comm=total.comm)
    return total + Cost(cpu=params.startup_cost_per_operator)


def cost_merge_join(
    left_rows: float, right_rows: float, output_rows: float, params: CostParameters
) -> Cost:
    """Merge of two sorted streams (sort costs are charged separately)."""
    cpu = (
        (left_rows + right_rows) * params.cpu_operator_cost
        + output_rows * params.cpu_tuple_cost
    )
    return Cost(cpu=cpu + params.startup_cost_per_operator)


def cost_hash_join(
    build_rows: float,
    build_pages: float,
    probe_rows: float,
    probe_pages: float,
    output_rows: float,
    params: CostParameters,
) -> Cost:
    """Hash join: build + probe, with a partitioning pass when spilling."""
    cpu = (
        build_rows * params.cpu_hash_cost
        + probe_rows * params.cpu_hash_cost
        + output_rows * params.cpu_tuple_cost
    ) * vector_cpu_factor(params)
    io = 0.0
    if build_pages > params.hash_memory_pages:
        io = 2.0 * (build_pages + probe_pages) * params.seq_page_cost
    return Cost(cpu=cpu + params.startup_cost_per_operator, io=io)


# ----------------------------------------------------------------------
# Aggregation and others
# ----------------------------------------------------------------------
def cost_hash_aggregate(
    input_rows: float, groups: float, aggregate_count: int, params: CostParameters
) -> Cost:
    """Hash-based grouping."""
    cpu = (
        input_rows * params.cpu_hash_cost
        + input_rows * aggregate_count * params.cpu_operator_cost
        + groups * params.cpu_tuple_cost
    ) * vector_cpu_factor(params)
    return Cost(cpu=cpu + params.startup_cost_per_operator)


def cost_stream_aggregate(
    input_rows: float, groups: float, aggregate_count: int, params: CostParameters
) -> Cost:
    """Grouping over an input already sorted on the keys."""
    cpu = (
        input_rows * params.cpu_operator_cost * max(1, aggregate_count)
        + groups * params.cpu_tuple_cost
    ) * vector_cpu_factor(params)
    return Cost(cpu=cpu + params.startup_cost_per_operator)


def cost_filter(rows: float, predicate_ops: int, params: CostParameters) -> Cost:
    """Stand-alone filter over a stream."""
    return Cost(
        cpu=rows
        * max(1, predicate_ops)
        * params.cpu_operator_cost
        * vector_cpu_factor(params)
        + params.startup_cost_per_operator
    )


def cost_project(rows: float, expressions: int, params: CostParameters) -> Cost:
    """Projection / scalar computation."""
    return Cost(
        cpu=(
            rows * max(1, expressions) * params.cpu_operator_cost
            + rows * params.cpu_tuple_cost
        )
        * vector_cpu_factor(params)
        + params.startup_cost_per_operator
    )


def cost_materialize(rows: float, pages: float, params: CostParameters) -> Cost:
    """Materializing an intermediate stream (bushy joins pay this)."""
    io = 0.0
    if pages > params.sort_memory_pages:
        io = 2.0 * pages * params.seq_page_cost
    return Cost(
        cpu=rows * params.cpu_tuple_cost + params.startup_cost_per_operator, io=io
    )


def cost_exchange(rows: float, pages: float, params: CostParameters) -> Cost:
    """Repartitioning/shipping a stream between processors (Section 7.1)."""
    return Cost(
        cpu=rows * params.cpu_tuple_cost,
        comm=max(1.0, pages) * params.comm_cost_per_page,
    )


def cost_limit(output_rows: float, params: CostParameters) -> Cost:
    """Enforcing a row quota.

    Charged on the rows that pass, not the child's full output: under
    the pipelined executor a LIMIT stops pulling its child once the
    quota is met, and the operator itself holds no working memory (it
    forwards batches, trimming the last one).
    """
    return Cost(
        cpu=output_rows * params.cpu_tuple_cost
        + params.startup_cost_per_operator
    )


def cost_udf_filter(rows: float, per_tuple_cost: float, params: CostParameters) -> Cost:
    """Applying an expensive user-defined predicate (Section 7.2)."""
    return Cost(
        cpu=rows * per_tuple_cost * params.cpu_operator_cost
        + params.startup_cost_per_operator
    )

"""Propagation of statistical summaries through operators (Section 5.1.3).

Two services live here:

* :class:`CardinalityEstimator` -- the optimizer's inner-loop routine
  estimating output cardinalities for relation sets (used by the DP and
  Cascades enumerators) and for arbitrary logical trees (used to cost
  rewrites).  Cardinality is a *logical* property: every plan for the
  same expression shares it, which is why it is computed here and not in
  the cost model.
* ``join_histograms`` -- histogram "joining" with bucket alignment, the
  refinement the paper mentions beyond plain distinct-count estimates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.expr.expressions import ColumnRef, Expr
from repro.logical.operators import (
    Apply,
    Distinct,
    Filter,
    Get,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    LogicalOp,
    Project,
    Sort,
    Union,
)
from repro.logical.querygraph import QueryGraph, QueryGraphEdge
from repro.stats.histogram import Bucket, Histogram
from repro.stats.selectivity import SelectivityEstimator
from repro.stats.summaries import TableStats


class CardinalityEstimator:
    """Cardinality estimation over a fixed set of aliased base tables.

    Args:
        stats_by_alias: statistics of each base relation, keyed by alias.
        independence: forwarded to the selectivity estimator.
        damping: forwarded to the selectivity estimator; values below 1
            inflate selectivities for conservative re-optimization.
        feedback: forwarded to the selectivity estimator; runtime-observed
            selectivities correct the model's estimates.
    """

    def __init__(
        self,
        stats_by_alias: Dict[str, TableStats],
        independence: bool = True,
        damping: float = 1.0,
        feedback=None,
    ) -> None:
        self._stats = dict(stats_by_alias)
        self.selectivity = SelectivityEstimator(
            stats_by_alias,
            independence=independence,
            damping=damping,
            feedback=feedback,
        )
        # Per-graph factor memo (see _factors): the graph and version it
        # was filled for, each alias's filtered (rows, low, high) and each
        # edge's (selectivity, low, high), the edges keyed by position.
        self._factor_graph: Optional[QueryGraph] = None
        self._factor_version = -1
        self._alias_factors: Dict[str, Tuple[float, float, float]] = {}
        self._edge_factors: Dict[int, Tuple[float, float, float]] = {}

    def base_rows(self, alias: str, default: float = 1000.0) -> float:
        """Cardinality of a base relation (default when never analyzed)."""
        stats = self._stats.get(alias)
        return stats.row_count if stats is not None else default

    # ------------------------------------------------------------------
    # Query-graph based estimation (the DP enumerator's view)
    # ------------------------------------------------------------------
    def _factors(self, graph: QueryGraph) -> None:
        """Point the factor memo at ``graph`` (dropping another graph's).

        An enumeration asks for the cardinality of hundreds of subsets of
        one graph; each is a product of the same few per-alias and
        per-edge factors, estimated here once.
        """
        if self._factor_graph is not graph or self._factor_version != graph.version:
            self._factor_graph = graph
            self._factor_version = graph.version
            self._alias_factors = {}
            self._edge_factors = {}

    def _alias_factor(
        self, alias: str, graph: QueryGraph
    ) -> Tuple[float, float, float]:
        factor = self._alias_factors.get(alias)
        if factor is None:
            base = self.base_rows(alias)
            s_lo, s, s_hi = self.selectivity.selectivity_interval(
                graph.node(alias).local_predicate()
            )
            factor = self._alias_factors[alias] = (
                max(base * s, 0.0),
                max(base * s_lo, 0.0),
                max(base * s_hi, 0.0),
            )
        return factor

    def _edge_factor(
        self, position: int, edge: QueryGraphEdge
    ) -> Tuple[float, float, float]:
        factor = self._edge_factors.get(position)
        if factor is None:
            s_lo, s, s_hi = self.selectivity.selectivity_interval(edge.predicate)
            factor = self._edge_factors[position] = (s, s_lo, s_hi)
        return factor

    def relation_set_cardinality(
        self, aliases: FrozenSet[str], graph: QueryGraph
    ) -> float:
        """Estimated rows after joining a set of relations.

        Classical model: product of per-relation filtered cardinalities
        times the selectivity of every join edge internal to the set.
        Factors multiply in sorted-alias then edge order, so the product
        does not depend on the set's iteration order.
        """
        return self._relation_set_product(aliases, graph, 0)

    def _relation_set_product(
        self, aliases: FrozenSet[str], graph: QueryGraph, which: int
    ) -> float:
        """Product of factor component ``which`` (0 estimate, 1 low, 2 high)."""
        self._factors(graph)
        product = 1.0
        for alias in sorted(aliases):
            product *= self._alias_factor(alias, graph)[which]
        for position, edge in enumerate(graph.edges):
            if edge.aliases <= aliases and len(edge.aliases) > 1:
                product *= self._edge_factor(position, edge)[which]
        return max(product, 0.0)

    def relation_set_interval(
        self, aliases: FrozenSet[str], graph: QueryGraph
    ) -> Tuple[float, float]:
        """Uncertainty interval around :meth:`relation_set_cardinality`.

        Per-predicate uncertainty factors (see
        :meth:`SelectivityEstimator.selectivity_interval`) compound
        multiplicatively across the set's local predicates and internal
        join edges -- the classical error-propagation result that
        estimation error grows with the number of independence
        assumptions stacked (Ioannidis & Christodoulakis).  Returns
        ``(low, high)`` bracketing the point estimate; both bounds are
        non-negative and ``low <= estimate <= high``.
        """
        estimate, low, high = (
            self._relation_set_product(aliases, graph, which)
            for which in range(3)
        )
        return min(low, estimate), max(high, estimate)

    def scan_rows(self, alias: str, graph: QueryGraph) -> float:
        """Rows surviving a relation's local predicates."""
        node = graph.node(alias)
        return self.base_rows(alias) * self.selectivity.selectivity(
            node.local_predicate()
        )

    # ------------------------------------------------------------------
    # Logical-tree estimation (the rewrite engine's view)
    # ------------------------------------------------------------------
    def estimate(self, op: LogicalOp) -> float:
        """Estimated output cardinality of a logical operator tree."""
        if isinstance(op, Get):
            return self.base_rows(op.alias)
        if isinstance(op, Filter):
            child = self.estimate(op.child)
            return child * self.selectivity.selectivity(op.predicate)
        if isinstance(op, Project):
            return self.estimate(op.child)
        if isinstance(op, Join):
            return self._estimate_join(op)
        if isinstance(op, GroupBy):
            return self._estimate_groupby(op)
        if isinstance(op, Distinct):
            child = self.estimate(op.child)
            # Rough: distinct removes little unless the input is a join blowup.
            return max(1.0, child * 0.9) if child > 0 else 0.0
        if isinstance(op, Union):
            return self.estimate(op.left) + self.estimate(op.right)
        if isinstance(op, Sort):
            return self.estimate(op.child)
        if isinstance(op, Limit):
            child = max(0.0, self.estimate(op.child) - op.offset)
            if op.limit is None:
                return child
            return min(child, float(op.limit))
        if isinstance(op, Apply):
            left = self.estimate(op.left)
            if op.kind == "scalar":
                return left
            return left * 0.5
        return 1000.0

    def _estimate_join(self, op: Join) -> float:
        left = self.estimate(op.left)
        right = self.estimate(op.right)
        if op.kind is JoinKind.CROSS:
            return left * right
        selectivity = self.selectivity.selectivity(op.predicate)
        inner = left * right * selectivity
        if op.kind is JoinKind.INNER:
            return inner
        if op.kind is JoinKind.LEFT_OUTER:
            return max(inner, left)
        if op.kind is JoinKind.SEMI:
            return left * min(1.0, selectivity * max(right, 1.0))
        if op.kind is JoinKind.ANTI:
            return left * max(0.0, 1.0 - min(1.0, selectivity * max(right, 1.0)))
        return inner

    def _estimate_groupby(self, op: GroupBy) -> float:
        child = self.estimate(op.child)
        if not op.keys:
            return 1.0
        groups = 1.0
        for key in op.keys:
            distinct = self.selectivity.distinct_count(key)
            groups *= distinct if distinct is not None else max(child * 0.1, 1.0)
        return max(1.0, min(groups, child))

    def group_count(self, keys: Iterable[ColumnRef], input_rows: float) -> float:
        """Estimated number of groups for grouping keys over an input."""
        groups = 1.0
        for key in keys:
            distinct = self.selectivity.distinct_count(key)
            groups *= distinct if distinct is not None else max(input_rows * 0.1, 1.0)
        return max(1.0, min(groups, input_rows))


def join_histograms(
    left: Histogram, right: Histogram
) -> Tuple[float, Histogram]:
    """Join two histograms on their columns' equality (Section 5.1.3).

    Buckets are aligned on the union of boundary points; within each
    aligned slice the classical per-slice containment estimate
    ``rows_l * rows_r / max(d_l, d_r)`` applies.  Returns the estimated
    join *cardinality factor* (output rows given the two inputs) and the
    histogram of the join column in the output.
    """
    if not left.buckets or not right.buckets:
        return 0.0, Histogram([])
    boundaries = sorted(
        {b.low for b in left.buckets}
        | {b.high for b in left.buckets}
        | {b.low for b in right.buckets}
        | {b.high for b in right.buckets}
    )
    # Singleton values both sides know exactly get an exact point slice
    # below; they are excluded from the pair slices so the same rows are
    # not also smeared into a half-open range estimate.
    shared_points = {b.low for b in left.buckets if b.width == 0} & {
        b.low for b in right.buckets if b.width == 0
    }
    out_buckets: List[Bucket] = []
    total = 0.0
    for lo, hi in zip(boundaries, boundaries[1:]):
        rows_l, d_l = _slice(left, lo, hi, exclude_points=shared_points)
        rows_r, d_r = _slice(right, lo, hi, exclude_points=shared_points)
        if rows_l <= 0 or rows_r <= 0:
            continue
        d = max(d_l, d_r, 1.0)
        rows = rows_l * rows_r / d
        overlap_distinct = min(d_l, d_r)
        out_buckets.append(Bucket(lo, hi, rows, max(1.0, overlap_distinct)))
        total += rows
    # Point slices (singleton boundary values shared by both sides).
    for value in shared_points:
        rows_l, _ = _slice(left, value, value)
        rows_r, _ = _slice(right, value, value)
        if rows_l > 0 and rows_r > 0:
            rows = rows_l * rows_r
            out_buckets.append(Bucket(value, value, rows, 1.0))
            total += rows
    out_buckets.sort(key=lambda bucket: (bucket.low, bucket.high))
    merged = _merge_degenerate(out_buckets)
    return total, Histogram(merged)


def _slice(
    histogram: Histogram,
    lo: float,
    hi: float,
    exclude_points: FrozenSet[float] = frozenset(),
) -> Tuple[float, float]:
    rows = 0.0
    distinct = 0.0
    for bucket in histogram.buckets:
        b_lo = max(bucket.low, lo)
        b_hi = min(bucket.high, hi)
        if b_lo > b_hi:
            continue
        if bucket.width == 0:
            # Pair slices are half-open [lo, hi): a singleton sitting
            # exactly on the lower boundary belongs to this slice --
            # excluding it made frequent values on shared bucket edges
            # vanish from join estimates entirely.
            if bucket.low in exclude_points:
                continue
            if lo <= bucket.low < hi or (lo == bucket.low == hi):
                rows += bucket.row_count
                distinct += bucket.distinct_count
            continue
        fraction = (b_hi - b_lo) / bucket.width
        rows += bucket.row_count * fraction
        distinct += bucket.distinct_count * fraction
    return rows, distinct


def _merge_degenerate(buckets: List[Bucket]) -> List[Bucket]:
    """Drop empty buckets and merge exact duplicates produced by slicing."""
    result: List[Bucket] = []
    for bucket in buckets:
        if bucket.row_count <= 0:
            continue
        if result and result[-1].low == bucket.low and result[-1].high == bucket.high:
            previous = result[-1]
            result[-1] = Bucket(
                bucket.low,
                bucket.high,
                previous.row_count + bucket.row_count,
                max(previous.distinct_count, bucket.distinct_count),
            )
        elif result and bucket.low < result[-1].high:
            # Slight overlap from point slices: nudge into the previous.
            previous = result[-1]
            result[-1] = Bucket(
                previous.low,
                max(previous.high, bucket.high),
                previous.row_count + bucket.row_count,
                previous.distinct_count + bucket.distinct_count,
            )
        else:
            result.append(bucket)
    return result

"""Interesting orders and column equivalence classes (Section 3).

An order is *interesting* when some later operation can exploit it: the
columns of equijoin predicates (a sort-merge join on them is cheap),
GROUP BY columns (stream aggregation), and ORDER BY columns (the final
sort disappears).  The enumerator compares plans per interesting-order
class instead of globally -- System R's mechanism for surviving
violations of the principle of optimality.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.expr.expressions import ColumnRef, Comparison, ComparisonOp
from repro.logical.querygraph import QueryGraph
from repro.physical.properties import OrderCanonicalizer, SortOrder


def equijoin_column_pairs(graph: QueryGraph) -> List[Tuple[ColumnRef, ColumnRef]]:
    """All (left, right) column pairs of equijoin edges in the graph."""
    pairs: List[Tuple[ColumnRef, ColumnRef]] = []
    for edge in graph.edges:
        for conjunct in _edge_conjuncts(edge.predicate):
            if (
                isinstance(conjunct, Comparison)
                and conjunct.op is ComparisonOp.EQ
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
                and conjunct.left.table != conjunct.right.table
            ):
                pairs.append((conjunct.left, conjunct.right))
    return pairs


def _edge_conjuncts(predicate):
    from repro.expr.expressions import conjuncts

    return conjuncts(predicate)


def equivalence_classes(graph: QueryGraph) -> List[FrozenSet[ColumnRef]]:
    """Union-find over equijoin predicates: columns forced equal.

    After joining on ``R.x = S.x``, a stream ordered on ``R.x`` is also
    ordered on ``S.x`` -- the generalization used by order optimization
    ([58]) and needed to recognize satisfied interesting orders.
    """
    parent: Dict[ColumnRef, ColumnRef] = {}

    def find(ref: ColumnRef) -> ColumnRef:
        parent.setdefault(ref, ref)
        while parent[ref] != ref:
            parent[ref] = parent[parent[ref]]
            ref = parent[ref]
        return ref

    def union(a: ColumnRef, b: ColumnRef) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b

    for left, right in equijoin_column_pairs(graph):
        union(left, right)
    groups: Dict[ColumnRef, Set[ColumnRef]] = {}
    for ref in parent:
        groups.setdefault(find(ref), set()).add(ref)
    return [frozenset(group) for group in groups.values() if len(group) > 1]


def interesting_orders(
    graph: QueryGraph,
    extra: Sequence[SortOrder] = (),
) -> List[SortOrder]:
    """The interesting orders of a query: one per equijoin column, plus
    caller-provided orders (GROUP BY / ORDER BY requirements)."""
    seen: Set[SortOrder] = set()
    result: List[SortOrder] = []
    for left, right in equijoin_column_pairs(graph):
        for ref in (left, right):
            order: SortOrder = ((ref, True),)
            if order not in seen:
                seen.add(order)
                result.append(order)
    for order in extra:
        normalized = tuple(order)
        if normalized and normalized not in seen:
            seen.add(normalized)
            result.append(normalized)
    return result


def satisfied_orders(
    delivered: Optional[SortOrder],
    candidates: Sequence[SortOrder],
    equivalences: Sequence[FrozenSet[ColumnRef]],
) -> FrozenSet[SortOrder]:
    """Which interesting orders a delivered order satisfies."""
    if not delivered:
        return frozenset()
    canonicalizer = OrderCanonicalizer(equivalences)
    return frozenset(
        candidate
        for candidate in candidates
        if canonicalizer.satisfies(delivered, candidate)
    )

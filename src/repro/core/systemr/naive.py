"""Naive exhaustive join enumeration -- the O(n!) baseline of Section 3.

The dynamic-programming enumerator considers O(n * 2^n) plans; the naive
alternative walks every join *order* (n! permutations for linear trees,
and every binary tree shape for bushy ones) and costs each, re-deriving
plans for identical subexpressions over and over.  Benchmark E1 plots
both counters against n.

The naive enumerator reuses the DP enumerator's access paths, join
costing, and per-order pruning *within* one permutation, so the two
searches return the same optimal cost; only the amount of work differs.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence

from repro.catalog.catalog import Catalog
from repro.cost.parameters import DEFAULT_PARAMETERS, CostParameters
from repro.errors import OptimizerError
from repro.logical.querygraph import QueryGraph
from repro.core.systemr.enumerator import (
    EnumeratorConfig,
    EnumeratorStats,
    PlanEntry,
    SystemRJoinEnumerator,
)
from repro.stats.summaries import TableStats


class NaiveExhaustiveEnumerator:
    """Enumerate every join order without memoization.

    Args:
        bushy: enumerate all binary-tree shapes instead of only
            left-deep permutations.
        Other arguments as in :class:`SystemRJoinEnumerator`.
    """

    def __init__(
        self,
        catalog: Catalog,
        graph: QueryGraph,
        stats_by_alias: Dict[str, TableStats],
        params: CostParameters = DEFAULT_PARAMETERS,
        bushy: bool = False,
        allow_cartesian: bool = True,
    ) -> None:
        config = EnumeratorConfig(bushy=bushy, allow_cartesian=allow_cartesian)
        self._dp = SystemRJoinEnumerator(
            catalog, graph, stats_by_alias, params, config
        )
        self.graph = graph
        self.bushy = bushy
        self.allow_cartesian = allow_cartesian

    @property
    def stats(self) -> EnumeratorStats:
        """Work counters (``plans_considered`` is the headline number)."""
        return self._dp.stats

    # ------------------------------------------------------------------
    def run(self) -> List[PlanEntry]:
        """Enumerate every order; returns the surviving full-query entries."""
        count = len(self.graph.aliases)
        if not count:
            raise OptimizerError("query graph has no relations")
        self._dp.seed()
        best: List[PlanEntry] = []
        if self.bushy:
            for entry in self._all_trees((1 << count) - 1):
                self._dp.prune(best, entry)
        else:
            bits = [1 << position for position in range(count)]
            for permutation in itertools.permutations(bits):
                for entry in self._linear_chain(permutation):
                    self._dp.prune(best, entry)
        if not best:
            raise OptimizerError("naive enumeration found no plan")
        return best

    def best_cost(self) -> float:
        """Total cost of the best plan found."""
        return min(entry.total for entry in self.run())

    def best_plan(self, required_order=None):
        """The cheapest full plan (plus a final sort when order demands).

        Mirrors :meth:`SystemRJoinEnumerator.best_plan` so the
        physicalizer can swap the naive search in transparently (the
        ``EnumeratorConfig.naive`` knob).
        """
        return self._dp.choose(self.run(), required_order)

    # ------------------------------------------------------------------
    def _joinable(self, left: int, right: int) -> bool:
        return self.allow_cartesian or bool(self.graph.edges_spanning(left, right))

    def _linear_chain(self, permutation: Sequence[int]) -> List[PlanEntry]:
        """All pruned plans for one left-deep permutation (of relation bits)."""
        current = permutation[0]
        entries = self._dp.entries(current)
        for bit in permutation[1:]:
            if not self._joinable(current, bit):
                return []
            joined: List[PlanEntry] = []
            self._dp.join(current, bit, entries, self._dp.entries(bit), joined)
            if not joined:
                return []
            entries = joined
            current |= bit
        return entries

    def _all_trees(self, subset: int) -> List[PlanEntry]:
        """All pruned plans for every binary tree over ``subset`` --
        the un-memoized recursion whose cost DP avoids."""
        if not subset & (subset - 1):
            return self._dp.entries(subset)
        entries: List[PlanEntry] = []
        left = (-subset) & subset  # submasks in ascending order, as the DP's
        while left != subset:
            right = subset ^ left
            if self._joinable(left, right):
                left_entries = self._all_trees(left)
                right_entries = self._all_trees(right)
                if left_entries and right_entries:
                    self._dp.join(left, right, left_entries, right_entries, entries)
            left = (left - subset) & subset
        return entries

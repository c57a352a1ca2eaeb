"""The System-R style bottom-up dynamic-programming join enumerator (Section 3).

The enumerator views an SPJ query as a set of relations to join.  At
step j it holds optimal plans for every connected subset of size j and
extends them: linear mode joins a subset with one new relation (the
System R space), bushy mode considers every 2-partition (Section 4.1.1).
Plans for the same subset are comparable only when they satisfy the same
set of *interesting orders*; dominance pruning keeps, per subset, the
Pareto frontier over (cost, satisfied orders).

Knobs mirror the paper's discussion: ``bushy`` expands the search space,
``allow_cartesian`` permits early Cartesian products (profitable on star
queries), and ``use_interesting_orders=False`` reproduces the
sub-optimality System R's mechanism exists to avoid (benchmark E2).

The search is *cost first*: relation subsets are int bitmasks (bit ``i`` =
the ``i``-th alias in sorted order), delivered orders are canonical keys
with a bitmask of the interesting orders they satisfy, and a candidate
is a handful of floats plus a back-pointer to the entries it joins.
Dominance pruning runs on those scalars; the ``PhysicalOp`` tree of an
entry is built -- once, memoized -- only when :attr:`PlanEntry.plan` is
read, which on the ``Database`` path happens for the winner alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.cost.model import (
    Cost,
    cost_hash_join,
    cost_index_nested_loop_join,
    cost_materialize,
    cost_merge_join,
    cost_nested_loop_join,
    cost_sort,
    pages_for_rows,
)
from repro.cost.parameters import DEFAULT_PARAMETERS, CostParameters
from repro.errors import OptimizerError
from repro.expr.expressions import ColumnRef, Comparison, ComparisonOp, Expr, conjoin, conjuncts
from repro.logical.operators import JoinKind
from repro.logical.querygraph import QueryGraph
from repro.physical.plans import (
    HashJoinP,
    INLJoinP,
    MaterializeP,
    MergeJoinP,
    NLJoinP,
    PhysicalOp,
    SortP,
    card_sensitive,
)
from repro.physical.properties import OrderCanonicalizer, OrderKey, SortOrder
from repro.core.systemr.access import generate_access_paths
from repro.core.systemr.orders import equivalence_classes, interesting_orders
from repro.stats.propagation import CardinalityEstimator
from repro.stats.summaries import TableStats


@dataclass(frozen=True)
class EnumeratorConfig:
    """Search-space knobs of the enumerator.

    Attributes:
        bushy: consider all 2-partitions (bushy trees) instead of only
            extending by a single relation (linear/left-deep trees).
        allow_cartesian: permit joining disconnected subsets early;
            otherwise Cartesian products are deferred as in System R.
        use_interesting_orders: compare plans per interesting-order class;
            disabling this reproduces naive pruning (E2).
        join_algorithms: subset of {"nl", "inl", "merge", "hash"}.
        naive: replace the DP enumerator with the exhaustive O(n!)
            baseline of Section 3 (used as the differential-testing
            reference: same plan space, no memoization shortcuts).
        damping: selectivity-damping exponent in (0, 1]; below 1 the
            estimator inflates selectivities toward 1, yielding the
            conservative cardinalities used when re-optimizing a plan
            that failed at runtime.
        risk_aware: cost plans a second time at the high end of the
            cardinality uncertainty interval and break near-ties on
            expected cost by least worst-case cost, so a plan that is
            marginally cheaper on paper but catastrophic if the estimate
            is low (the classic warm-index-nested-loop trap) loses to a
            robust alternative.
        risk_epsilon: relative expected-cost window within which two
            plans count as tied for the risk tie-break.
    """

    bushy: bool = False
    allow_cartesian: bool = False
    use_interesting_orders: bool = True
    join_algorithms: Tuple[str, ...] = ("nl", "inl", "merge", "hash")
    naive: bool = False
    damping: float = 1.0
    risk_aware: bool = False
    risk_epsilon: float = 0.1


@dataclass
class EnumeratorStats:
    """Work counters: the quantities benchmark E1/E3/E10 report.

    Attributes:
        plans_considered: candidates costed (access paths and joins).
        entries_retained: entries kept per subset, summed over subsets.
        subsets_examined: relation subsets of size >= 2 visited.
        plans_materialized: ``PhysicalOp`` nodes constructed -- access
            paths at seeding, join/sort/materialize nodes only when an
            entry's plan is read.
        entries_by_size: retained entries per subset size.
    """

    plans_considered: int = 0
    entries_retained: int = 0
    subsets_examined: int = 0
    plans_materialized: int = 0
    entries_by_size: Dict[int, int] = field(default_factory=dict)

    def absorb(self, other: "EnumeratorStats") -> None:
        """Add another enumeration's counters (a query with several SPJ regions)."""
        self.plans_considered += other.plans_considered
        self.entries_retained += other.entries_retained
        self.subsets_examined += other.subsets_examined
        self.plans_materialized += other.plans_materialized
        for size, count in other.entries_by_size.items():
            self.entries_by_size[size] = self.entries_by_size.get(size, 0) + count

    def summary(self) -> str:
        """The one-line rendering EXPLAIN and ``\\metrics`` show."""
        return (
            f"search: subsets={self.subsets_examined} "
            f"considered={self.plans_considered} "
            f"retained={self.entries_retained} "
            f"materialized={self.plans_materialized}"
        )


class PlanEntry:
    """One costed plan for a relation subset; its operator tree is lazy.

    The cost vector travels as three floats (``cpu``/``io``/``comm``,
    summed in the same association order the ``Cost`` additions of the
    built tree use, so ``total`` is bit-identical to
    ``plan.est_cost.total``).  ``order_key`` is the delivered order's
    canonical key and ``satisfied`` the bitmask of interesting orders it
    satisfies.  ``rows_hi``/``cost_hi`` carry the high end of the
    cardinality uncertainty interval and the plan's cost re-evaluated
    there; with ``risk_aware`` off they degenerate to ``rows``/``total``.
    Cardinality is a logical property: all entries of one subset share
    ``rows`` and ``rows_hi``.

    ``plan`` builds the ``PhysicalOp`` tree from the entry's recipe --
    ``(builder, *arguments)``, the arguments naming the joined child
    entries -- on first read and keeps it.
    """

    __slots__ = (
        "total", "cpu", "io", "comm", "rows", "rows_hi", "cost_hi",
        "order", "order_key", "satisfied", "_recipe", "_plan",
    )

    def __init__(
        self,
        total: float,
        cpu: float,
        io: float,
        comm: float,
        rows: float,
        rows_hi: float,
        cost_hi: float,
        order: Optional[SortOrder],
        order_key: OrderKey,
        satisfied: int,
        recipe: Optional[tuple] = None,
        plan: Optional[PhysicalOp] = None,
    ) -> None:
        self.total = total
        self.cpu = cpu
        self.io = io
        self.comm = comm
        self.rows = rows
        self.rows_hi = rows_hi
        self.cost_hi = cost_hi
        self.order = order
        self.order_key = order_key
        self.satisfied = satisfied
        self._recipe = recipe
        self._plan = plan

    @property
    def cost(self) -> Cost:
        """The cost vector of the (sub)plan."""
        return Cost(self.cpu, self.io, self.comm)

    @property
    def plan(self) -> PhysicalOp:
        """The physical operator tree, built on first read."""
        if self._plan is None:
            build = self._recipe[0]
            self._plan = build(self, *self._recipe[1:])
        return self._plan


class _Subset:
    """Logical properties of one relation subset, shared by all its plans,
    and the enforcer costs that depend on nothing else (priced on first
    use: a single-relation query never sorts or materializes)."""

    __slots__ = (
        "rows", "rows_hi", "width", "sort", "sort_hi",
        "materialize", "materialize_hi",
    )

    def __init__(self, rows: float, rows_hi: float, width: float) -> None:
        self.rows = rows
        self.rows_hi = rows_hi
        self.width = width
        self.sort: Optional[Cost] = None

    def price_enforcers(self, params: CostParameters) -> "_Subset":
        """Fill in the sort / materialize costs (and their high ends)."""
        if self.sort is None:
            rows, rows_hi, width = self.rows, self.rows_hi, self.width
            pages = pages_for_rows(rows, width, params)
            self.sort = self.sort_hi = cost_sort(rows, pages, params)
            self.materialize = self.materialize_hi = cost_materialize(
                rows, pages, params
            )
            if rows_hi != rows:
                pages_hi = pages_for_rows(rows_hi, width, params)
                self.sort_hi = cost_sort(rows_hi, pages_hi, params)
                self.materialize_hi = cost_materialize(rows_hi, pages_hi, params)
        return self


class _JoinSpec:
    """Everything the candidates of one 2-partition share.

    The connecting predicate and its equi/residual split, the merge
    orders, and -- because cardinality is per subset, not per plan -- the
    join cost of every algorithm: a candidate adds these constants to its
    two children's costs.  ``*_hi`` are the same costs at the interval's
    high end (totals; 0.0 with ``risk_aware`` off).
    """

    __slots__ = (
        "left", "right", "rows", "rows_hi", "predicate", "equi_pairs",
        "residual", "left_keys", "right_keys", "left_order", "right_order",
        "left_key", "right_key", "merge_satisfied",
        "nl_join", "nl_hi", "probes", "merge_join", "merge_hi",
        "hash_join", "hash_hi",
    )


class SystemRJoinEnumerator:
    """Bottom-up DP enumeration over one SPJ query graph.

    Args:
        catalog: table/index metadata and data.
        graph: the query graph (relations + predicates).
        stats_by_alias: statistics per relation alias.
        params: cost-model parameters.
        config: search-space knobs.
        extra_orders: additional interesting orders from GROUP BY /
            ORDER BY above the join.

    Besides :meth:`run` / :meth:`best_plan`, four operations form the
    seam other searches over the same plan space build on (the naive
    exhaustive baseline does): :meth:`seed`, :meth:`entries`,
    :meth:`join` and :meth:`prune`, plus :meth:`choose` to pick the
    winner from a list of full-query entries.
    """

    def __init__(
        self,
        catalog: Catalog,
        graph: QueryGraph,
        stats_by_alias: Dict[str, TableStats],
        params: CostParameters = DEFAULT_PARAMETERS,
        config: EnumeratorConfig = EnumeratorConfig(),
        extra_orders: Sequence[SortOrder] = (),
        feedback=None,
    ) -> None:
        self.catalog = catalog
        self.graph = graph
        self.params = params
        self.config = config
        self.estimator = CardinalityEstimator(
            stats_by_alias, damping=config.damping, feedback=feedback
        )
        self.equivalences = equivalence_classes(graph)
        self.orders = interesting_orders(graph, extra_orders)
        self.stats = EnumeratorStats()
        self._canon = OrderCanonicalizer(
            self.equivalences,
            self.orders if config.use_interesting_orders else (),
        )
        self._full = (1 << len(graph.aliases)) - 1
        self._widths = [
            float(catalog.schema(graph.node(alias).table).row_width_bytes)
            for alias in graph.aliases
        ]
        self._edges = [
            (mask, edge.predicate, self._equijoin_bits(edge.predicate))
            for mask, edge in zip(graph.edge_masks, graph.edges)
        ]
        self._table: Dict[int, List[PlanEntry]] = {}
        self._subsets: Dict[int, _Subset] = {}
        # Single relations (bit -> alias) whose table has an index: the
        # only inners an index nested-loop join can probe.
        self._indexed: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> List[PlanEntry]:
        """Enumerate and return the retained entries for the full query."""
        count = len(self.graph.aliases)
        if not count:
            raise OptimizerError("query graph has no relations")
        self.seed()
        bits = [1 << position for position in range(count)]
        for size in range(2, count + 1):
            for combination in itertools.combinations(bits, size):
                self._build_subset(sum(combination), size)
        entries = self.entries(self._full)
        if not entries:
            raise OptimizerError("enumeration produced no plan for the full query")
        return entries

    def best_plan(
        self, required_order: Optional[SortOrder] = None
    ) -> Tuple[PhysicalOp, Cost]:
        """The cheapest full plan, adding a final sort if an order is required."""
        return self.choose(self.entries(self._full) or self.run(), required_order)

    def choose(
        self,
        entries: Sequence[PlanEntry],
        required_order: Optional[SortOrder] = None,
    ) -> Tuple[PhysicalOp, Cost]:
        """Pick the winner among full-query entries and build its plan.

        An entry whose order does not satisfy ``required_order`` is
        charged a final sort; only the winner's tree (and sort) is built.
        """
        full = self._subset(self._full)
        required_key = self._canon.key(required_order)
        candidates: List[Tuple[float, float, PlanEntry, bool]] = []
        for entry in entries:
            total, cost_hi = entry.total, entry.cost_hi
            needs_sort = bool(required_key) and not self._canon.key_satisfies(
                entry.order_key, required_key
            )
            if needs_sort:
                full.price_enforcers(self.params)
                total = (entry.cost + full.sort).total
                cost_hi += full.sort_hi.total
            candidates.append((total, cost_hi, entry, needs_sort))
        best = min(candidates, key=lambda c: c[0])
        if self.config.risk_aware:
            # Risk-aware tie-break: among plans whose expected cost is
            # within (1 + epsilon) of the cheapest, prefer the least
            # worst-case cost over the uncertainty interval.
            window = best[0] * (1.0 + self.config.risk_epsilon)
            near = [c for c in candidates if c[0] <= window]
            best = min(near, key=lambda c: (c[1], c[0]))
        total, cost_hi, entry, needs_sort = best
        plan = entry.plan
        if needs_sort:
            plan = self._sorted(entry, full, required_order)
        plan.est_cost_hi = max(cost_hi, total)
        return plan, plan.est_cost

    # ------------------------------------------------------------------
    # The seam: seed / entries / join / prune
    # ------------------------------------------------------------------
    def seed(self) -> None:
        """Cost every access path of every relation (the size-1 subsets)."""
        risk = self.config.risk_aware
        graph = self.graph
        for position, alias in enumerate(graph.aliases):
            bit = 1 << position
            paths = generate_access_paths(
                alias, graph, self.catalog, self.estimator, self.params
            )
            rows = rows_hi = paths[0].est_rows
            if risk:
                rows_hi = self.estimator.relation_set_interval(
                    frozenset((alias,)), graph
                )[1]
            self._subsets[bit] = _Subset(rows, rows_hi, self._width(bit))
            if self.catalog.indexes_on(graph.node(alias).table):
                self._indexed[bit] = alias
            entries: List[PlanEntry] = []
            for path in paths:
                cost = path.est_cost
                cost_hi = total = cost.total
                if risk and card_sensitive(path):
                    # An index scan's cost is per matching row; a sequential
                    # scan reads the whole table no matter what the predicate
                    # selects, so only the former inflates at the high bound.
                    cost_hi *= rows_hi / max(path.est_rows, 1.0)
                key = self._canon.key(path.order)
                self.prune(
                    entries,
                    PlanEntry(
                        total, cost.cpu, cost.io, cost.comm,
                        path.est_rows, rows_hi, cost_hi, path.order, key,
                        self._canon.satisfied_mask(key), plan=path,
                    ),
                )
            self.stats.plans_considered += len(paths)
            self.stats.plans_materialized += len(paths)
            self._retain(bit, 1, entries)

    def entries(self, mask: int) -> List[PlanEntry]:
        """The retained entries of a relation subset (empty when none)."""
        return self._table.get(mask, [])

    def prune(self, entries: List[PlanEntry], candidate: PlanEntry) -> None:
        """Dominance pruning: keep the Pareto frontier over (cost, orders).

        With ``risk_aware`` on, worst-case cost joins the frontier
        criteria (hedge retention): a plan that is slightly more
        expensive on expectation but much safer at the interval's high
        end survives to the final risk tie-break instead of being pruned
        bottom-up.
        """
        if self._admits(
            entries, candidate.total, candidate.satisfied, candidate.cost_hi
        ):
            entries.append(candidate)

    def join(
        self,
        left_mask: int,
        right_mask: int,
        left_entries: Sequence[PlanEntry],
        right_entries: Sequence[PlanEntry],
        into: List[PlanEntry],
    ) -> None:
        """Cost every join of a left entry with a right entry, under every
        enabled algorithm, and prune the candidates into ``into``."""
        self._join(
            self._join_spec(left_mask, right_mask), left_entries, right_entries, into
        )

    def _join(self, spec, left_entries, right_entries, into) -> None:
        algorithms = self.config.join_algorithms
        equi = bool(spec.equi_pairs)
        nested_loop = "nl" in algorithms
        merge = equi and "merge" in algorithms
        hashed = equi and "hash" in algorithms
        inners = self._materialized(spec, right_entries) if nested_loop else ()
        ordered = self._ensure_order(spec, right_entries) if merge else ()
        for left in left_entries:
            if nested_loop:
                self._nested_loop(spec, left, inners, into)
            if spec.probes:
                self._index_nested_loop(spec, left, into)
            if merge:
                self._merge(spec, left, ordered, into)
            if hashed:
                self._hash(spec, left, right_entries, into)

    # ------------------------------------------------------------------
    # DP step
    # ------------------------------------------------------------------
    def _build_subset(self, subset: int, size: int) -> None:
        self.stats.subsets_examined += 1
        connected_only = False
        if not self.config.allow_cartesian:
            connected_only = self.graph.has_edge_within(subset)
            # Cartesian products are deferred (Section 3): a subset no
            # 2-partition of which is connected is built only when
            # unavoidable -- the full query, or a subset with no join
            # edge to the outside (a union of whole components, which
            # must eventually be crossed anyway).
            if (
                not connected_only
                and subset != self._full
                and self.graph.neighbour_mask(subset)
            ):
                return
        entries: List[PlanEntry] = []
        table = self._table
        for left_mask, right_mask in self._partitions(subset):
            left_entries = table.get(left_mask)
            right_entries = table.get(right_mask)
            if not left_entries or not right_entries:
                continue
            spec = self._join_spec(left_mask, right_mask, connected_only)
            if spec is not None:
                self._join(spec, left_entries, right_entries, entries)
        if entries:
            self._retain(subset, size, entries)

    def _partitions(self, subset: int) -> Iterator[Tuple[int, int]]:
        """2-partitions in ascending order of the left side's sorted aliases."""
        if self.config.bushy:
            left = (-subset) & subset
            while left != subset:
                yield left, subset ^ left
                left = (left - subset) & subset
        else:
            remaining = subset
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                yield subset ^ bit, bit

    def _retain(self, mask: int, size: int, entries: List[PlanEntry]) -> None:
        self._table[mask] = entries
        self.stats.entries_retained += len(entries)
        by_size = self.stats.entries_by_size
        by_size[size] = by_size.get(size, 0) + len(entries)

    def _admits(
        self, entries: List[PlanEntry], total: float, satisfied: int, cost_hi: float
    ) -> bool:
        """Whether a candidate with these scalars survives ``entries``;
        if so, the entries it dominates are dropped."""
        risk = self.config.risk_aware
        for existing in entries:
            if (
                existing.total <= total
                and existing.satisfied | satisfied == existing.satisfied
                and (not risk or existing.cost_hi <= cost_hi)
            ):
                return False
        entries[:] = [
            existing
            for existing in entries
            if not (
                total <= existing.total
                and satisfied | existing.satisfied == satisfied
                and (not risk or cost_hi <= existing.cost_hi)
            )
        ]
        return True

    # ------------------------------------------------------------------
    # Per-subset and per-partition invariants
    # ------------------------------------------------------------------
    def _width(self, mask: int) -> float:
        return sum(
            width for position, width in enumerate(self._widths)
            if mask >> position & 1
        )

    def _subset(self, mask: int) -> _Subset:
        subset = self._subsets.get(mask)
        if subset is None:
            aliases = frozenset(self.graph.aliases_in(mask))
            rows = rows_hi = self.estimator.relation_set_cardinality(
                aliases, self.graph
            )
            if self.config.risk_aware:
                rows_hi = self.estimator.relation_set_interval(
                    aliases, self.graph
                )[1]
            subset = self._subsets[mask] = _Subset(rows, rows_hi, self._width(mask))
        return subset

    def _join_spec(
        self, left_mask: int, right_mask: int, connected_only: bool = False
    ) -> Optional[_JoinSpec]:
        """The shared part of joining two subsets; None when
        ``connected_only`` and no edge connects them."""
        # Each edge predicate is one conjunct of the connecting predicate
        # (QueryGraph splits conjunctions, BoolExpr flattens nested ANDs).
        outside = ~(left_mask | right_mask)
        connecting: List[Expr] = []
        pairs: List[Tuple[ColumnRef, ColumnRef]] = []
        residual: List[Expr] = []
        for mask, predicate, equijoin in self._edges:
            if not (mask & left_mask and mask & right_mask) or mask & outside:
                continue
            connecting.append(predicate)
            if equijoin is not None:
                l, l_bit, r, r_bit = equijoin
                if l_bit & left_mask and r_bit & right_mask:
                    pairs.append((l, r))
                    continue
                if r_bit & left_mask and l_bit & right_mask:
                    pairs.append((r, l))
                    continue
            residual.append(predicate)
        if connected_only and not connecting:
            return None
        params = self.params
        risk = self.config.risk_aware
        algorithms = self.config.join_algorithms
        spec = _JoinSpec()
        left = spec.left = self._subset(left_mask).price_enforcers(params)
        right = spec.right = self._subset(right_mask).price_enforcers(params)
        out = self._subset(left_mask | right_mask)
        rows = spec.rows = out.rows
        rows_hi = spec.rows_hi = out.rows_hi
        spec.predicate = conjoin(connecting)
        spec.residual = conjoin(residual)
        spec.equi_pairs = pairs
        spec.probes = ()
        if "nl" in algorithms:
            operators = len(connecting)
            spec.nl_join = cost_nested_loop_join(
                left.rows, Cost(cpu=right.rows * params.cpu_tuple_cost),
                right.rows, operators, params,
            )
            spec.nl_hi = 0.0
            if risk:
                spec.nl_hi = cost_nested_loop_join(
                    left.rows_hi, Cost(cpu=right.rows_hi * params.cpu_tuple_cost),
                    right.rows_hi, operators, params,
                ).total
        if not pairs:
            return spec
        if "inl" in algorithms and right_mask in self._indexed:
            spec.probes = self._index_probes(spec, self._indexed[right_mask])
        spec.left_keys = [l for l, _r in pairs]
        spec.right_keys = [r for _l, r in pairs]
        if "merge" in algorithms:
            spec.left_order = tuple((ref, True) for ref in spec.left_keys)
            spec.right_order = tuple((ref, True) for ref in spec.right_keys)
            spec.left_key = self._canon.key(spec.left_order)
            spec.right_key = self._canon.key(spec.right_order)
            spec.merge_satisfied = self._canon.satisfied_mask(spec.left_key)
            spec.merge_join = cost_merge_join(left.rows, right.rows, rows, params)
            spec.merge_hi = 0.0
            if risk:
                spec.merge_hi = cost_merge_join(
                    left.rows_hi, right.rows_hi, rows_hi, params
                ).total
        if "hash" in algorithms:
            spec.hash_join = cost_hash_join(
                right.rows,
                pages_for_rows(right.rows, right.width, params),
                left.rows,
                pages_for_rows(left.rows, 16.0, params),
                rows,
                params,
            )
            spec.hash_hi = 0.0
            if risk:
                spec.hash_hi = cost_hash_join(
                    right.rows_hi,
                    pages_for_rows(right.rows_hi, right.width, params),
                    left.rows_hi,
                    pages_for_rows(left.rows_hi, 16.0, params),
                    rows_hi,
                    params,
                ).total
        return spec

    def _equijoin_bits(
        self, predicate: Expr
    ) -> Optional[Tuple[ColumnRef, int, ColumnRef, int]]:
        """``(left column, its relation's bit, right column, its bit)`` of
        a column = column predicate; None for any other predicate."""
        if (
            isinstance(predicate, Comparison)
            and predicate.op is ComparisonOp.EQ
            and isinstance(predicate.left, ColumnRef)
            and isinstance(predicate.right, ColumnRef)
        ):
            l, r = predicate.left, predicate.right
            mask_of = self.graph.mask_of
            return l, mask_of((l.table,)), r, mask_of((r.table,))
        return None

    def _fingerprint(self, spec: _JoinSpec) -> Optional[str]:
        """Stamped on a built join so the runtime harvest can attribute
        observed join selectivity to the connecting predicate."""
        return self.estimator.selectivity.predicate_fingerprint(spec.predicate)

    # ------------------------------------------------------------------
    # Join methods: each costs candidates as scalars, and the builder
    # next to it turns a surviving entry into operators.
    # ------------------------------------------------------------------
    def _stamp(
        self, plan: PhysicalOp, entry: PlanEntry, fingerprint: Optional[str]
    ) -> PhysicalOp:
        plan.est_rows = entry.rows
        plan.est_cost = entry.cost
        plan.order = entry.order
        plan.feedback_fingerprint = fingerprint
        return plan

    def _materialized(
        self, spec: _JoinSpec, right_entries: Sequence[PlanEntry]
    ) -> List[Tuple[PlanEntry, float, float, float]]:
        """Each inner with its materialization charged: the nested-loop
        join rescans a materialized inner."""
        cost = spec.right.materialize
        return [
            (right, right.cpu + cost.cpu, right.io + cost.io, right.comm + cost.comm)
            for right in right_entries
        ]

    def _offer(
        self, into, spec, cpu, io, comm, cost_hi, order, order_key, satisfied, *recipe
    ) -> None:
        """Keep a join candidate in ``into`` unless an entry dominates it
        (``cost_hi`` counts under ``risk_aware`` only)."""
        total = cpu + io + comm
        if not self.config.risk_aware:
            cost_hi = total
        if self._admits(into, total, satisfied, cost_hi):
            into.append(
                PlanEntry(
                    total, cpu, io, comm, spec.rows, spec.rows_hi, cost_hi,
                    order, order_key, satisfied, recipe,
                )
            )

    def _nested_loop(self, spec, left, inners, into: List[PlanEntry]) -> None:
        self.stats.plans_considered += len(inners)
        join = spec.nl_join
        materialize_hi = spec.right.materialize_hi.total
        for right, inner_cpu, inner_io, inner_comm in inners:
            self._offer(
                into, spec,
                left.cpu + inner_cpu + join.cpu,
                left.io + inner_io + join.io,
                left.comm + inner_comm + join.comm,
                left.cost_hi + right.cost_hi + materialize_hi + spec.nl_hi,
                # NL preserves the outer order.
                left.order, left.order_key, left.satisfied,
                self._build_nested_loop, spec, left, right,
            )

    def _build_nested_loop(self, entry, spec, left, right) -> PhysicalOp:
        inner = MaterializeP(right.plan)
        inner.est_rows = right.rows
        inner.est_cost = right.cost + spec.right.materialize
        inner.order = right.order
        self.stats.plans_materialized += 2
        plan = NLJoinP(left.plan, inner, spec.predicate, JoinKind.INNER)
        return self._stamp(plan, entry, self._fingerprint(spec))

    def _index_probes(self, spec: _JoinSpec, alias: str) -> List[tuple]:
        """``(alias, index, matched pairs, probe cost, its total at the
        high end)`` for each index of the inner relation whose leading
        columns the equijoin pairs cover."""
        node = self.graph.node(alias)
        table = self.catalog.table(node.table)
        probes = []
        for index in self.catalog.indexes_on(node.table):
            matched: List[Tuple[ColumnRef, ColumnRef]] = []
            for column in index.definition.columns:
                pair = next(
                    (p for p in spec.equi_pairs if p[1].column == column), None
                )
                if pair is None:
                    break
                matched.append(pair)
            if not matched:
                continue
            selectivity = 1.0
            for _l, r in matched:
                distinct = self.estimator.selectivity.distinct_count(r)
                selectivity *= 1.0 / distinct if distinct else 0.1

            def probe_cost(outer_rows: float) -> Cost:
                return cost_index_nested_loop_join(
                    outer_rows,
                    max(table.row_count * selectivity, 0.0),
                    float(table.row_count),
                    float(table.page_count),
                    index.height,
                    index.definition.clustered,
                    self.params,
                )

            # The INL trap: per-probe cost looks negligible at the
            # estimated outer cardinality (warm buffer pool), but it is
            # paid once per outer row -- at the interval's high end the
            # probes dominate everything else in the plan.
            join_hi = (
                probe_cost(spec.left.rows_hi).total if self.config.risk_aware else 0.0
            )
            probes.append((alias, index, matched, probe_cost(spec.left.rows), join_hi))
        return probes

    def _index_nested_loop(self, spec, left, into: List[PlanEntry]) -> None:
        self.stats.plans_considered += len(spec.probes)
        for probe in spec.probes:
            join, join_hi = probe[3:]
            self._offer(
                into, spec,
                left.cpu + join.cpu, left.io + join.io, left.comm + join.comm,
                left.cost_hi + join_hi,
                left.order, left.order_key, left.satisfied,
                self._build_index_nested_loop, spec, left, probe,
            )

    def _build_index_nested_loop(self, entry, spec, left, probe) -> PhysicalOp:
        alias, index, matched = probe[:3]
        node = self.graph.node(alias)
        table = self.catalog.table(node.table)
        residual_parts = list(conjuncts(spec.residual))
        residual_parts.extend(
            Comparison(ComparisonOp.EQ, l, r)
            for l, r in spec.equi_pairs
            if (l, r) not in matched
        )
        local = node.local_predicate()
        if local is not None:
            residual_parts.append(local)
        self.stats.plans_materialized += 1
        plan = INLJoinP(
            left.plan,
            node.table,
            alias,
            table.schema.column_names,
            index.definition.name,
            [l for l, _r in matched],
            JoinKind.INNER,
            conjoin(residual_parts),
            column_types=table.schema.column_types,
        )
        # With a local predicate folded into the residual, the
        # operator's output no longer reflects the join edge alone;
        # only the clean case is attributed to the edge.
        fingerprint = self._fingerprint(spec) if local is None else None
        return self._stamp(plan, entry, fingerprint)

    def _ensure_order(
        self, spec: _JoinSpec, right_entries: Sequence[PlanEntry]
    ) -> List[Tuple[PlanEntry, bool, float, float, float, float]]:
        """Each merge inner with a sort charged unless its order already
        satisfies the join keys."""
        return [
            (right, *self._sort_charged(right, spec.right, spec.right_key))
            for right in right_entries
        ]

    def _sort_charged(
        self, entry: PlanEntry, subset: _Subset, required: OrderKey
    ) -> Tuple[bool, float, float, float, float]:
        """``(sort needed, cpu, io, comm, cost_hi)`` of ``entry`` delivered
        in the ``required`` order."""
        if entry.order_key[: len(required)] == required:
            return False, entry.cpu, entry.io, entry.comm, entry.cost_hi
        sort = subset.sort
        return (
            True,
            entry.cpu + sort.cpu,
            entry.io + sort.io,
            entry.comm + sort.comm,
            entry.cost_hi + subset.sort_hi.total,
        )

    def _merge(self, spec, left, ordered, into: List[PlanEntry]) -> None:
        self.stats.plans_considered += len(ordered)
        join = spec.merge_join
        sort_left, left_cpu, left_io, left_comm, left_hi = self._sort_charged(
            left, spec.left, spec.left_key
        )
        for right, sort_right, right_cpu, right_io, right_comm, right_hi in ordered:
            self._offer(
                into, spec,
                left_cpu + right_cpu + join.cpu,
                left_io + right_io + join.io,
                left_comm + right_comm + join.comm,
                left_hi + right_hi + spec.merge_hi,
                # Merge output is ordered on the join keys.
                spec.left_order, spec.left_key, spec.merge_satisfied,
                self._build_merge, spec, left, right, sort_left, sort_right,
            )

    def _build_merge(
        self, entry, spec, left, right, sort_left: bool, sort_right: bool
    ) -> PhysicalOp:
        left_plan = (
            self._sorted(left, spec.left, spec.left_order) if sort_left else left.plan
        )
        right_plan = (
            self._sorted(right, spec.right, spec.right_order)
            if sort_right
            else right.plan
        )
        self.stats.plans_materialized += 1
        plan = MergeJoinP(
            left_plan, right_plan, spec.left_keys, spec.right_keys,
            JoinKind.INNER, spec.residual,
        )
        return self._stamp(plan, entry, self._fingerprint(spec))

    def _sorted(
        self, entry: PlanEntry, subset: _Subset, order: SortOrder
    ) -> PhysicalOp:
        """A sort enforcer over an entry's plan."""
        self.stats.plans_materialized += 1
        sort = SortP(entry.plan, order)
        sort.est_rows = entry.rows
        sort.est_cost = entry.cost + subset.sort
        sort.order = order
        return sort

    def _hash(self, spec, left, right_entries, into: List[PlanEntry]) -> None:
        self.stats.plans_considered += len(right_entries)
        join = spec.hash_join
        for right in right_entries:
            self._offer(
                into, spec,
                left.cpu + right.cpu + join.cpu,
                left.io + right.io + join.io,
                left.comm + right.comm + join.comm,
                left.cost_hi + right.cost_hi + spec.hash_hi,
                # Hashing destroys order.
                None, (), 0,
                self._build_hash, spec, left, right,
            )

    def _build_hash(self, entry, spec, left, right) -> PhysicalOp:
        self.stats.plans_materialized += 1
        plan = HashJoinP(
            left.plan, right.plan, spec.left_keys, spec.right_keys,
            JoinKind.INNER, spec.residual,
        )
        return self._stamp(plan, entry, self._fingerprint(spec))

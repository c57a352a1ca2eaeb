"""The Cascades-style top-down optimizer (Section 6.2).

Differences from the System-R enumerator, mirroring the paper's list:

* no separate rewrite/plan phases -- transformation rules (join
  commutativity and associativity) and implementation rules (scan and
  join algorithms) live in one goal-driven search;
* dynamic programming runs *top-down* with memoization: a group is
  optimized for a required physical property only once, and the result
  (the "winner") is looked up afterwards;
* physical requirements flow downward: a merge join *requests* sorted
  inputs from its children rather than hoping a sorted plan was retained
  (System R's interesting orders seen from the other side);
* rule applications are ordered by a programmable *promise* score, and
  branch-and-bound pruning abandons alternatives that exceed the best
  cost found so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

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
from repro.expr.expressions import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    conjoin,
    conjuncts,
)
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
from repro.physical.properties import OrderCanonicalizer, SortOrder
from repro.core.cascades.memo import Group, Memo, MExpr, Winner
from repro.core.systemr.access import generate_access_paths
from repro.core.systemr.orders import equivalence_classes
from repro.stats.propagation import CardinalityEstimator
from repro.stats.summaries import TableStats


@dataclass
class CascadesStats:
    """Search-effort counters (compared with the DP enumerator in E10)."""

    groups: int = 0
    mexprs: int = 0
    transformation_rules_fired: int = 0
    implementation_rules_fired: int = 0
    enforcers_added: int = 0
    optimize_calls: int = 0
    memo_hits: int = 0
    pruned_by_bound: int = 0


@dataclass(frozen=True)
class CascadesConfig:
    """Search knobs.

    Attributes:
        allow_cartesian: permit joins between disconnected groups.
        use_pruning: branch-and-bound on the running best cost.
        promise: implementation-rule priority order (highest first);
            the paper's programmable "promise of an action".
        risk_aware: mirror of the System-R enumerator's knob -- cost
            candidates a second time at the high end of the cardinality
            uncertainty interval and break near-ties on expected cost by
            least worst-case cost.
        risk_epsilon: relative expected-cost window within which two
            plans count as tied for the risk tie-break.
    """

    allow_cartesian: bool = False
    use_pruning: bool = True
    promise: Tuple[str, ...] = ("hash", "merge", "inl", "nl")
    risk_aware: bool = False
    risk_epsilon: float = 0.1


class CascadesOptimizer:
    """Top-down memoized join optimization over a query graph.

    Args:
        catalog / graph / stats_by_alias / params: as in the System-R
            enumerator, so the two architectures are directly comparable.
    """

    def __init__(
        self,
        catalog: Catalog,
        graph: QueryGraph,
        stats_by_alias: Dict[str, TableStats],
        params: CostParameters = DEFAULT_PARAMETERS,
        config: CascadesConfig = CascadesConfig(),
        feedback=None,
    ) -> None:
        self.catalog = catalog
        self.graph = graph
        self.params = params
        self.config = config
        self.estimator = CardinalityEstimator(stats_by_alias, feedback=feedback)
        self.equivalences = equivalence_classes(graph)
        self._orders = OrderCanonicalizer(self.equivalences)
        self.memo = Memo()
        self.stats = CascadesStats()
        self._rows_cache: Dict[FrozenSet[str], float] = {}
        self._interval_cache: Dict[FrozenSet[str], Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def best_plan(
        self, required_order: Optional[SortOrder] = None
    ) -> Tuple[PhysicalOp, Cost]:
        """Optimize the full query for an optional required order."""
        aliases = self.graph.aliases
        if not aliases:
            raise OptimizerError("query graph has no relations")
        root = frozenset(aliases)
        self._seed(root)
        winner = self._optimize_group(root, required_order, limit=float("inf"))
        if winner is None:
            raise OptimizerError("cascades search found no plan")
        self.stats.groups = self.memo.group_count
        self.stats.mexprs = self.memo.mexpr_count
        return winner.plan, winner.cost

    # ------------------------------------------------------------------
    # Seeding: the initial left-deep expression
    # ------------------------------------------------------------------
    def _seed(self, root: FrozenSet[str]) -> None:
        aliases = sorted(root)
        for alias in aliases:
            self.memo.group(frozenset((alias,))).add(MExpr("get", alias=alias))
        current = frozenset((aliases[0],))
        for alias in aliases[1:]:
            single = frozenset((alias,))
            union = current | single
            self.memo.group(union).add(MExpr("join", left=current, right=single))
            current = union

    # ------------------------------------------------------------------
    # Exploration: transformation rules to fixpoint per group
    # ------------------------------------------------------------------
    def _explore(self, aliases: FrozenSet[str]) -> None:
        group = self.memo.group(aliases)
        if group.explored:
            return
        group.explored = True
        changed = True
        while changed:
            changed = False
            for mexpr in list(group.mexprs):
                if mexpr.kind != "join":
                    continue
                # Children must be explored before associativity can see
                # their join shapes.
                self._explore(mexpr.left)
                self._explore(mexpr.right)
                # Rule: commutativity.
                flipped = MExpr("join", left=mexpr.right, right=mexpr.left)
                if group.add(flipped):
                    self.stats.transformation_rules_fired += 1
                    changed = True
                # Rule: associativity  (X ⋈ Y) ⋈ R  ->  X ⋈ (Y ⋈ R).
                left_group = self.memo.group(mexpr.left)
                for inner in list(left_group.mexprs):
                    if inner.kind != "join":
                        continue
                    x_set, y_set, r_set = inner.left, inner.right, mexpr.right
                    new_right = y_set | r_set
                    if not self._joinable(y_set, r_set):
                        continue
                    if not self._joinable(x_set, new_right):
                        continue
                    right_group = self.memo.group(new_right)
                    if right_group.add(MExpr("join", left=y_set, right=r_set)):
                        self.stats.transformation_rules_fired += 1
                        changed = True
                    if group.add(MExpr("join", left=x_set, right=new_right)):
                        self.stats.transformation_rules_fired += 1
                        changed = True

    def _joinable(self, left: FrozenSet[str], right: FrozenSet[str]) -> bool:
        if self.config.allow_cartesian:
            return True
        return self.graph.connected(left, right)

    # ------------------------------------------------------------------
    # Optimization: implementation rules + enforcers, memoized
    # ------------------------------------------------------------------
    def _optimize_group(
        self,
        aliases: FrozenSet[str],
        required: Optional[SortOrder],
        limit: float,
    ) -> Optional[Winner]:
        self.stats.optimize_calls += 1
        group = self.memo.group(aliases)
        key = required if required else None
        if key in group.winners:
            self.stats.memo_hits += 1
            winner = group.winners[key]
            if winner is not None and winner.cost.total > limit:
                return None
            return winner
        self._explore(aliases)
        best: Optional[Winner] = None

        def consider(plan: PhysicalOp) -> None:
            nonlocal best
            if not self._orders.satisfies(plan.order, required):
                plan = self._enforce(plan, required, aliases)
            if self.config.use_pruning and plan.est_cost.total > limit:
                self.stats.pruned_by_bound += 1
                return
            if best is None:
                best = Winner(plan=plan, cost=plan.est_cost)
                return
            cost = plan.est_cost.total
            if self.config.risk_aware:
                # Risk-aware near-tie: within (1 + epsilon) on expected
                # cost, the winner is the plan with the least worst-case
                # cost over the uncertainty interval.
                low = min(cost, best.cost.total)
                if max(cost, best.cost.total) <= low * (
                    1.0 + self.config.risk_epsilon
                ):
                    if (self._plan_hi(plan), cost) < (
                        self._plan_hi(best.plan),
                        best.cost.total,
                    ):
                        best = Winner(plan=plan, cost=plan.est_cost)
                    return
            if cost < best.cost.total:
                best = Winner(plan=plan, cost=plan.est_cost)

        if len(aliases) == 1:
            alias = next(iter(aliases))
            for path in generate_access_paths(
                alias, self.graph, self.catalog, self.estimator, self.params
            ):
                self.stats.implementation_rules_fired += 1
                if self.config.risk_aware:
                    hi_rows = self._rows_hi(aliases)
                    path.est_cost_hi = path.est_cost.total
                    if card_sensitive(path):
                        path.est_cost_hi *= hi_rows / max(path.est_rows, 1.0)
                consider(path)
        else:
            for mexpr in group.mexprs:
                if mexpr.kind != "join":
                    continue
                bound = limit if best is None else min(limit, best.cost.total)
                for plan in self._implement_join(mexpr, required, bound):
                    consider(plan)
        # Memoize only complete results: a None produced under a tight
        # branch-and-bound limit must not poison later, looser requests.
        if best is not None:
            group.winners[key] = best
        return best

    def _enforce(
        self, plan: PhysicalOp, required: SortOrder, aliases: FrozenSet[str]
    ) -> PhysicalOp:
        self.stats.enforcers_added += 1
        sort = SortP(plan, required)
        sort.est_rows = plan.est_rows
        sort.est_cost = plan.est_cost + cost_sort(
            plan.est_rows, self._pages(aliases, plan.est_rows), self.params
        )
        sort.order = required
        if self.config.risk_aware:
            hi_rows = self._rows_hi(aliases)
            extra_hi = cost_sort(
                hi_rows, self._pages(aliases, hi_rows), self.params
            )
            sort.est_cost_hi = self._plan_hi(plan) + extra_hi.total
        return sort

    # ------------------------------------------------------------------
    # Implementation rules for a join multi-expression
    # ------------------------------------------------------------------
    def _implement_join(
        self,
        mexpr: MExpr,
        required: Optional[SortOrder],
        limit: float,
    ) -> List[PhysicalOp]:
        left_set, right_set = mexpr.left, mexpr.right
        union = left_set | right_set
        rows = self._rows(union)
        predicate = self.graph.connecting_predicate(left_set, right_set)
        equi_pairs, residual = self._split_equi(predicate, left_set, right_set)
        plans: List[PhysicalOp] = []
        for algorithm in self.config.promise:
            if algorithm == "hash" and equi_pairs:
                plan = self._impl_hash(
                    left_set, right_set, equi_pairs, residual, rows, limit
                )
                if plan is not None:
                    plans.append(plan)
            elif algorithm == "merge" and equi_pairs:
                plan = self._impl_merge(
                    left_set, right_set, equi_pairs, residual, rows, limit
                )
                if plan is not None:
                    plans.append(plan)
            elif algorithm == "inl" and equi_pairs and len(right_set) == 1:
                plans.extend(
                    self._impl_inl(
                        left_set, right_set, equi_pairs, residual, rows,
                        required, limit,
                    )
                )
            elif algorithm == "nl":
                plan = self._impl_nl(
                    left_set, right_set, predicate, rows, required, limit
                )
                if plan is not None:
                    plans.append(plan)
        # All algorithms for this 2-partition apply the same connecting
        # predicate; stamp it for the runtime feedback harvest.  INL
        # joins that folded the inner's local predicate into their
        # residual are skipped -- their output mixes two predicates.
        edge_fp = self.estimator.selectivity.predicate_fingerprint(predicate)
        for plan in plans:
            if (
                isinstance(plan, INLJoinP)
                and self.graph.node(plan.alias).local_predicate() is not None
            ):
                continue
            plan.feedback_fingerprint = edge_fp
        return plans

    def _impl_hash(
        self, left_set, right_set, equi_pairs, residual, rows, limit
    ) -> Optional[PhysicalOp]:
        self.stats.implementation_rules_fired += 1
        left = self._optimize_group(left_set, None, limit)
        if left is None:
            return None
        right = self._optimize_group(right_set, None, limit - left.cost.total)
        if right is None:
            return None
        build_pages = self._pages(right_set, right.plan.est_rows)
        probe_pages = pages_for_rows(left.plan.est_rows, 16.0, self.params)
        join_cost = cost_hash_join(
            right.plan.est_rows, build_pages, left.plan.est_rows, probe_pages,
            rows, self.params,
        )
        plan = HashJoinP(
            left.plan,
            right.plan,
            [l for l, _r in equi_pairs],
            [r for _l, r in equi_pairs],
            JoinKind.INNER,
            residual,
        )
        plan.est_rows = rows
        plan.est_cost = left.cost + right.cost + join_cost
        plan.order = None
        if self.config.risk_aware:
            build_hi = self._rows_hi(right_set)
            probe_hi = self._rows_hi(left_set)
            join_hi = cost_hash_join(
                build_hi,
                self._pages(right_set, build_hi),
                probe_hi,
                pages_for_rows(probe_hi, 16.0, self.params),
                self._rows_hi(left_set | right_set),
                self.params,
            )
            plan.est_cost_hi = (
                self._plan_hi(left.plan) + self._plan_hi(right.plan)
                + join_hi.total
            )
        return plan

    def _impl_merge(
        self, left_set, right_set, equi_pairs, residual, rows, limit
    ) -> Optional[PhysicalOp]:
        self.stats.implementation_rules_fired += 1
        left_order: SortOrder = tuple((l, True) for l, _r in equi_pairs)
        right_order: SortOrder = tuple((r, True) for _l, r in equi_pairs)
        # Top-down property passing: *request* sorted children.
        left = self._optimize_group(left_set, left_order, limit)
        if left is None:
            return None
        right = self._optimize_group(
            right_set, right_order, limit - left.cost.total
        )
        if right is None:
            return None
        join_cost = cost_merge_join(
            left.plan.est_rows, right.plan.est_rows, rows, self.params
        )
        plan = MergeJoinP(
            left.plan,
            right.plan,
            [l for l, _r in equi_pairs],
            [r for _l, r in equi_pairs],
            JoinKind.INNER,
            residual,
        )
        plan.est_rows = rows
        plan.est_cost = left.cost + right.cost + join_cost
        plan.order = left_order
        if self.config.risk_aware:
            join_hi = cost_merge_join(
                self._rows_hi(left_set),
                self._rows_hi(right_set),
                self._rows_hi(left_set | right_set),
                self.params,
            )
            plan.est_cost_hi = (
                self._plan_hi(left.plan) + self._plan_hi(right.plan)
                + join_hi.total
            )
        return plan

    def _impl_inl(
        self, left_set, right_set, equi_pairs, residual, rows, required, limit
    ) -> List[PhysicalOp]:
        alias = next(iter(right_set))
        node = self.graph.node(alias)
        table = self.catalog.table(node.table)
        plans: List[PhysicalOp] = []
        left = self._optimize_group(left_set, required, limit)
        if left is None:
            return plans
        for index in self.catalog.indexes_on(node.table):
            matched = []
            for column in index.definition.columns:
                pair = next((p for p in equi_pairs if p[1].column == column), None)
                if pair is None:
                    break
                matched.append(pair)
            if not matched:
                continue
            self.stats.implementation_rules_fired += 1
            unmatched = [p for p in equi_pairs if p not in matched]
            residual_parts = list(conjuncts(residual))
            residual_parts.extend(
                Comparison(ComparisonOp.EQ, l, r) for l, r in unmatched
            )
            local = node.local_predicate()
            if local is not None:
                residual_parts.append(local)
            selectivity = 1.0
            for _l, r in matched:
                distinct = self.estimator.selectivity.distinct_count(r)
                selectivity *= 1.0 / distinct if distinct else 0.1
            join_cost = cost_index_nested_loop_join(
                left.plan.est_rows,
                max(table.row_count * selectivity, 0.0),
                float(table.row_count),
                float(table.page_count),
                index.height,
                index.definition.clustered,
                self.params,
            )
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
            plan.est_rows = rows
            plan.est_cost = left.cost + join_cost
            plan.order = left.plan.order
            if self.config.risk_aware:
                join_hi = cost_index_nested_loop_join(
                    self._rows_hi(left_set),
                    max(table.row_count * selectivity, 0.0),
                    float(table.row_count),
                    float(table.page_count),
                    index.height,
                    index.definition.clustered,
                    self.params,
                )
                plan.est_cost_hi = self._plan_hi(left.plan) + join_hi.total
            plans.append(plan)
        return plans

    def _impl_nl(
        self, left_set, right_set, predicate, rows, required, limit
    ) -> Optional[PhysicalOp]:
        self.stats.implementation_rules_fired += 1
        # NL preserves the outer order, so pass the requirement down left.
        left = self._optimize_group(left_set, required, limit)
        if left is None:
            return None
        right = self._optimize_group(right_set, None, limit - left.cost.total)
        if right is None:
            return None
        inner = MaterializeP(right.plan)
        inner_pages = self._pages(right_set, right.plan.est_rows)
        inner.est_rows = right.plan.est_rows
        inner.est_cost = right.cost + cost_materialize(
            right.plan.est_rows, inner_pages, self.params
        )
        inner.order = right.plan.order
        rescan = Cost(cpu=right.plan.est_rows * self.params.cpu_tuple_cost)
        join_cost = cost_nested_loop_join(
            left.plan.est_rows,
            rescan,
            right.plan.est_rows,
            len(conjuncts(predicate)),
            self.params,
        )
        plan = NLJoinP(left.plan, inner, predicate, JoinKind.INNER)
        plan.est_rows = rows
        plan.est_cost = left.cost + inner.est_cost + join_cost
        plan.order = left.plan.order
        if self.config.risk_aware:
            inner_hi_rows = self._rows_hi(right_set)
            outer_hi_rows = self._rows_hi(left_set)
            rescan_hi = Cost(cpu=inner_hi_rows * self.params.cpu_tuple_cost)
            join_hi = cost_nested_loop_join(
                outer_hi_rows,
                rescan_hi,
                inner_hi_rows,
                len(conjuncts(predicate)),
                self.params,
            )
            mat_hi = cost_materialize(
                inner_hi_rows, self._pages(right_set, inner_hi_rows), self.params
            )
            plan.est_cost_hi = (
                self._plan_hi(left.plan) + self._plan_hi(right.plan)
                + mat_hi.total + join_hi.total
            )
        return plan

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _split_equi(
        self,
        predicate: Optional[Expr],
        left_set: FrozenSet[str],
        right_set: FrozenSet[str],
    ):
        pairs: List[Tuple[ColumnRef, ColumnRef]] = []
        residual: List[Expr] = []
        for conjunct in conjuncts(predicate):
            if (
                isinstance(conjunct, Comparison)
                and conjunct.op is ComparisonOp.EQ
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                l, r = conjunct.left, conjunct.right
                if l.table in left_set and r.table in right_set:
                    pairs.append((l, r))
                    continue
                if r.table in left_set and l.table in right_set:
                    pairs.append((r, l))
                    continue
            residual.append(conjunct)
        return pairs, conjoin(residual)

    def _rows(self, aliases: FrozenSet[str]) -> float:
        if aliases not in self._rows_cache:
            self._rows_cache[aliases] = self.estimator.relation_set_cardinality(
                aliases, self.graph
            )
        return self._rows_cache[aliases]

    def _rows_hi(self, aliases: FrozenSet[str]) -> float:
        if aliases not in self._interval_cache:
            self._interval_cache[aliases] = self.estimator.relation_set_interval(
                aliases, self.graph
            )
        return self._interval_cache[aliases][1]

    @staticmethod
    def _plan_hi(plan: PhysicalOp) -> float:
        """Worst-case cost of a (sub)plan; expected cost when unstamped."""
        if plan.est_cost_hi is not None:
            return plan.est_cost_hi
        return plan.est_cost.total

    def _pages(self, aliases: FrozenSet[str], rows: float) -> float:
        width = sum(
            self.catalog.schema(self.graph.node(alias).table).row_width_bytes
            for alias in aliases
        )
        return pages_for_rows(rows, width, self.params)

"""Tests for the System-R DP enumerator: optimality, interesting orders,
search-space knobs, and the naive baseline (paper Section 3, 4.1.1)."""

import random

import pytest

from repro.catalog import Catalog
from repro.datagen import (
    build_chain_tables,
    chain_query_graph,
    clique_query_graph,
    graph_stats,
    star_query_graph,
)
from repro.core.systemr import (
    EnumeratorConfig,
    NaiveExhaustiveEnumerator,
    SystemRJoinEnumerator,
    equijoin_column_pairs,
    equivalence_classes,
    interesting_orders,
)
from repro.engine import execute
from repro.expr import col
from repro.expr.expressions import Comparison, ComparisonOp
from repro.physical import walk_physical
from repro.physical.plans import MergeJoinP, SortP


@pytest.fixture(scope="module")
def chain4():
    catalog = Catalog()
    names = build_chain_tables(catalog, 4, rows_per_relation=80)
    graph = chain_query_graph(names)
    return catalog, graph, graph_stats(catalog, graph)


class TestOptimality:
    def test_dp_matches_exhaustive_linear(self, chain4):
        catalog, graph, stats = chain4
        dp = SystemRJoinEnumerator(catalog, graph, stats)
        _plan, dp_cost = dp.best_plan()
        naive = NaiveExhaustiveEnumerator(
            catalog, graph, stats, allow_cartesian=False
        )
        assert dp_cost.total == pytest.approx(naive.best_cost())

    def test_dp_matches_exhaustive_bushy(self, chain4):
        catalog, graph, stats = chain4
        dp = SystemRJoinEnumerator(
            catalog, graph, stats, config=EnumeratorConfig(bushy=True)
        )
        _plan, dp_cost = dp.best_plan()
        naive = NaiveExhaustiveEnumerator(
            catalog, graph, stats, bushy=True, allow_cartesian=False
        )
        assert dp_cost.total == pytest.approx(naive.best_cost())

    def test_dp_considers_fewer_plans(self, chain4):
        catalog, graph, stats = chain4
        dp = SystemRJoinEnumerator(catalog, graph, stats)
        dp.run()
        naive = NaiveExhaustiveEnumerator(
            catalog, graph, stats, allow_cartesian=False
        )
        naive.run()
        assert dp.stats.plans_considered < naive.stats.plans_considered

    def test_bushy_at_least_as_good(self, chain4):
        catalog, graph, stats = chain4
        linear = SystemRJoinEnumerator(catalog, graph, stats)
        _lp, linear_cost = linear.best_plan()
        bushy = SystemRJoinEnumerator(
            catalog, graph, stats, config=EnumeratorConfig(bushy=True)
        )
        _bp, bushy_cost = bushy.best_plan()
        assert bushy_cost.total <= linear_cost.total + 1e-9

    def test_bushy_explores_more(self, chain4):
        catalog, graph, stats = chain4
        linear = SystemRJoinEnumerator(catalog, graph, stats)
        linear.run()
        bushy = SystemRJoinEnumerator(
            catalog, graph, stats, config=EnumeratorConfig(bushy=True)
        )
        bushy.run()
        assert bushy.stats.plans_considered > linear.stats.plans_considered


class TestInterestingOrders:
    def test_orders_derived_from_equijoins(self, chain4):
        _catalog, graph, _stats = chain4
        orders = interesting_orders(graph)
        # Each of the 3 chain edges contributes two column orders.
        assert len(orders) == 6

    def test_equivalence_classes(self, chain4):
        _catalog, graph, _stats = chain4
        classes = equivalence_classes(graph)
        assert len(classes) == 3
        assert all(len(group) == 2 for group in classes)

    def test_extra_orders_respected(self, chain4):
        catalog, graph, stats = chain4
        extra = ((col("R1", "payload"), True),)
        enum = SystemRJoinEnumerator(
            catalog, graph, stats, extra_orders=[extra]
        )
        assert extra in enum.orders

    def test_disabling_orders_never_wins(self, chain4):
        """Pruning without interesting orders can only produce a plan that
        is as good or worse (Section 3's sub-optimality argument)."""
        catalog, graph, stats = chain4
        with_orders = SystemRJoinEnumerator(catalog, graph, stats)
        _p1, cost_with = with_orders.best_plan()
        without = SystemRJoinEnumerator(
            catalog,
            graph,
            stats,
            config=EnumeratorConfig(use_interesting_orders=False),
        )
        _p2, cost_without = without.best_plan()
        assert cost_without.total >= cost_with.total - 1e-9

    def test_required_order_adds_sort_when_needed(self, chain4):
        catalog, graph, stats = chain4
        enum = SystemRJoinEnumerator(catalog, graph, stats)
        required = ((col("R1", "payload"), True),)
        plan, _cost = enum.best_plan(required_order=required)
        from repro.physical.properties import order_satisfies

        assert order_satisfies(plan.order, required, enum.equivalences)

    def test_retains_multiple_entries_per_subset(self, chain4):
        catalog, graph, stats = chain4
        enum = SystemRJoinEnumerator(catalog, graph, stats)
        entries = enum.run()
        # The full query retains at least the cheapest plan.
        assert len(entries) >= 1
        assert enum.stats.entries_retained >= enum.stats.subsets_examined


class TestCartesianKnob:
    def test_star_query_cartesian_can_help(self):
        """On a star query with tiny dimension tables, allowing an early
        Cartesian product among dimensions can reduce cost (Sec 4.1.1)."""
        catalog = Catalog()
        # Big center, two tiny points.
        names = build_chain_tables(catalog, 3, rows_per_relation=30)
        # Rebuild: center = R1 large, points small.
        catalog2 = Catalog()
        from repro.datagen import build_chain_tables as build

        center = catalog2.create_table
        names = build(catalog2, 1, rows_per_relation=3000)  # R1 center
        from repro.catalog import Column, ColumnType

        for number, rows in (("2", 5), ("3", 5)):
            table = catalog2.create_table(
                f"R{number}",
                [
                    Column("a", ColumnType.INT),
                    Column("b", ColumnType.INT),
                    Column("payload", ColumnType.INT),
                ],
            )
            for value in range(rows):
                table.insert((value + 1, value + 1, value))
            from repro.stats import analyze_table

            analyze_table(catalog2, f"R{number}")
        graph = star_query_graph("R1", ["R2", "R3"])
        stats = graph_stats(catalog2, graph)
        deferred = SystemRJoinEnumerator(
            catalog2,
            graph,
            stats,
            config=EnumeratorConfig(bushy=True, allow_cartesian=False),
        )
        _p1, cost_deferred = deferred.best_plan()
        eager = SystemRJoinEnumerator(
            catalog2,
            graph,
            stats,
            config=EnumeratorConfig(bushy=True, allow_cartesian=True),
        )
        _p2, cost_eager = eager.best_plan()
        assert cost_eager.total <= cost_deferred.total + 1e-9

    def test_cartesian_expands_search(self, chain4):
        catalog, graph, stats = chain4
        off = SystemRJoinEnumerator(catalog, graph, stats)
        off.run()
        on = SystemRJoinEnumerator(
            catalog, graph, stats, config=EnumeratorConfig(allow_cartesian=True)
        )
        on.run()
        assert on.stats.plans_considered >= off.stats.plans_considered


class TestPlanShape:
    def test_plans_execute(self, chain4):
        catalog, graph, stats = chain4
        for bushy in (False, True):
            enum = SystemRJoinEnumerator(
                catalog, graph, stats, config=EnumeratorConfig(bushy=bushy)
            )
            plan, _cost = enum.best_plan()
            _schema, rows = execute(plan, catalog)
            assert rows  # chain data always joins

    def test_join_algorithm_restriction(self, chain4):
        catalog, graph, stats = chain4
        enum = SystemRJoinEnumerator(
            catalog,
            graph,
            stats,
            config=EnumeratorConfig(join_algorithms=("nl",)),
        )
        plan, _cost = enum.best_plan()
        from repro.physical.plans import HashJoinP, MergeJoinP

        for node in walk_physical(plan):
            assert not isinstance(node, (HashJoinP, MergeJoinP))

    def test_clique_enumeration(self):
        catalog = Catalog()
        names = build_chain_tables(catalog, 4, rows_per_relation=40)
        graph = clique_query_graph(names)
        stats = graph_stats(catalog, graph)
        enum = SystemRJoinEnumerator(catalog, graph, stats)
        plan, cost = enum.best_plan()
        assert cost.total > 0
        _schema, _rows = execute(plan, catalog)


# ----------------------------------------------------------------------
# Plan identity: the enumerator reproduces the checked-in snapshot
# ----------------------------------------------------------------------
def test_enumerator_reproduces_golden_plans():
    """Same search, same plans: every pinned statement gets the snapshot's
    plan, delivered order and ``plans_considered``.  Estimates are compared
    to 1e-12: the snapshot comes from the commit before the bitmask
    enumerator, whose cardinality products ran in set-iteration order and
    so moved in the last ulp with PYTHONHASHSEED (see the regen script)."""
    from tests.golden import regen_enumerator_plans as golden

    expected = golden.load()
    assert expected is not None, (
        f"missing {golden.GOLDEN_PATH}; generate it with REGEN_GOLDEN=1 "
        "python tests/golden/regen_enumerator_plans.py"
    )
    actual = golden.snapshot()
    assert sorted(actual) == sorted(expected)
    for name, record in expected.items():
        got = actual[name]
        for field in ("sql", "plan_signature", "order", "plans_considered"):
            assert got[field] == record[field], f"{name}: {field} changed"
        for field in ("est_cost_total", "est_rows"):
            assert got[field] == pytest.approx(record[field], rel=1e-12), (
                f"{name}: {field} changed"
            )


# ----------------------------------------------------------------------
# Optimality matrix: DP vs the exhaustive baseline vs Cascades
# ----------------------------------------------------------------------
def _cycle_query_graph(names):
    graph = chain_query_graph(names)
    graph.add_predicate(
        Comparison(ComparisonOp.EQ, col(names[-1], "b"), col(names[0], "a"))
    )
    return graph


SHAPES = {
    "chain": chain_query_graph,
    "star": lambda names: star_query_graph(names[0], names[1:]),
    "cycle": _cycle_query_graph,
    "clique": clique_query_graph,
}


@pytest.fixture(scope="module")
def seeded_catalogs():
    catalogs = []
    for seed in range(5):
        catalog = Catalog()
        names = build_chain_tables(
            catalog, 7, rows_per_relation=40, rng=random.Random(seed)
        )
        catalogs.append((catalog, names))
    return catalogs


@pytest.mark.parametrize("bushy", [False, True], ids=["linear", "bushy"])
@pytest.mark.parametrize("size", [3, 4, 5, 6])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_dp_optimum_matches_exhaustive(seeded_catalogs, shape, size, bushy):
    """The DP's cheapest full plan costs what the exhaustive search's
    does, with and without risk-aware hedge retention; pruning without
    interesting orders can only do as well or worse (Section 3)."""
    for catalog, names in seeded_catalogs:
        graph = SHAPES[shape](names[:size])
        stats = graph_stats(catalog, graph)
        optimum = NaiveExhaustiveEnumerator(
            catalog, graph, stats, bushy=bushy, allow_cartesian=False
        ).best_cost()
        for orders in (True, False):
            for risk in (False, True):
                config = EnumeratorConfig(
                    bushy=bushy, use_interesting_orders=orders, risk_aware=risk
                )
                dp = SystemRJoinEnumerator(catalog, graph, stats, config=config)
                cheapest = min(entry.total for entry in dp.run())
                if orders:
                    assert cheapest == pytest.approx(optimum, rel=1e-12)
                else:
                    assert cheapest >= optimum * (1 - 1e-12)


@pytest.mark.parametrize(
    "shape,size",
    [(shape, size) for shape in ("chain", "star", "cycle") for size in range(3, 8)]
    + [("clique", size) for size in range(3, 6)],
)
def test_bushy_dp_matches_cascades(seeded_catalogs, shape, size):
    """Bushy System-R and Cascades search the same space (Section 6)."""
    from repro.core.cascades import CascadesOptimizer

    for catalog, names in seeded_catalogs[:2]:
        graph = SHAPES[shape](names[:size])
        stats = graph_stats(catalog, graph)
        _plan, dp_cost = SystemRJoinEnumerator(
            catalog, graph, stats, config=EnumeratorConfig(bushy=True)
        ).best_plan()
        _plan, cascades_cost = CascadesOptimizer(catalog, graph, stats).best_plan()
        assert dp_cost.total == pytest.approx(cascades_cost.total, rel=1e-9)


class TestCostFirst:
    def test_sibling_column_order_needs_no_sort(self, chain4):
        """A merge join on R1.b = R2.a delivers both columns' order: an
        ORDER BY on either one adds no enforcer above the join."""
        catalog, _graph, _stats = chain4
        graph = chain_query_graph(["R1", "R2"])
        stats = graph_stats(catalog, graph)
        config = EnumeratorConfig(join_algorithms=("merge",))
        for column in (col("R1", "b"), col("R2", "a")):
            required = ((column, True),)
            plan, _cost = SystemRJoinEnumerator(
                catalog, graph, stats, config=config, extra_orders=[required]
            ).best_plan(required_order=required)
            assert isinstance(plan, MergeJoinP)
        required = ((col("R1", "payload"), True),)
        plan, _cost = SystemRJoinEnumerator(
            catalog, graph, stats, config=config, extra_orders=[required]
        ).best_plan(required_order=required)
        assert isinstance(plan, SortP)

    def test_only_the_winner_is_materialized(self, chain4):
        """Operators are built for access paths and the winning plan, not
        per candidate."""
        catalog, graph, stats = chain4
        enum = SystemRJoinEnumerator(catalog, graph, stats)
        plan, cost = enum.best_plan()
        operators = sum(1 for _ in walk_physical(plan))
        assert enum.stats.plans_materialized <= 3 * operators
        assert enum.stats.plans_materialized < enum.stats.plans_considered
        assert sum(enum.stats.entries_by_size.values()) == enum.stats.entries_retained
        assert plan.est_cost.total == cost.total == min(
            entry.total for entry in enum.entries((1 << 4) - 1)
        )

    def test_lazy_plan_matches_entry_scalars(self, chain4):
        """Every retained entry builds a tree whose annotations are the
        scalars it was pruned on, and builds it once."""
        catalog, graph, stats = chain4
        enum = SystemRJoinEnumerator(
            catalog, graph, stats, config=EnumeratorConfig(bushy=True)
        )
        for entry in enum.run():
            plan = entry.plan
            assert plan is entry.plan
            assert plan.est_cost == entry.cost
            assert plan.est_cost.total == entry.total
            assert plan.est_rows == entry.rows
            assert plan.order == entry.order

"""Unit tests for the cost model (Section 5.2)."""

import math

import pytest

from repro.cost import (
    Cost,
    CostParameters,
    DEFAULT_PARAMETERS,
    cardenas_yao_pages,
    cost_exchange,
    cost_hash_join,
    cost_index_nested_loop_join,
    cost_index_scan,
    cost_merge_join,
    cost_nested_loop_join,
    cost_seq_scan,
    cost_sort,
    pages_for_rows,
)
from repro.cost.model import exchange_page_count
from repro.physical.properties import PartitionScheme as S

P = DEFAULT_PARAMETERS


class TestCostVector:
    def test_addition(self):
        total = Cost(cpu=1, io=2) + Cost(cpu=3, comm=4)
        assert total.cpu == 4 and total.io == 2 and total.comm == 4
        assert total.total == 10

    def test_scaling(self):
        assert Cost(cpu=1, io=2).scaled(3).total == 9

    def test_comparison(self):
        assert Cost(cpu=1) < Cost(io=5)


class TestHelpers:
    def test_pages_for_rows(self):
        assert pages_for_rows(0, 100, P) == 0.0
        assert pages_for_rows(1, 100, P) == 1.0
        # 8192-byte pages, 100-byte rows -> ~81 rows/page.
        assert pages_for_rows(8192, 100, P) == pytest.approx(100, rel=0.05)

    def test_cardenas_yao_bounds(self):
        # Fetching everything touches every page.
        assert cardenas_yao_pages(10_000, 1_000, 100) == pytest.approx(100, rel=0.01)
        # Fetching one row touches about one page.
        assert cardenas_yao_pages(1, 1_000, 100) == pytest.approx(1.0, abs=0.05)
        assert cardenas_yao_pages(0, 1_000, 100) == 0.0

    def test_cardenas_yao_monotone(self):
        values = [cardenas_yao_pages(k, 1000, 50) for k in (1, 10, 100, 1000)]
        assert values == sorted(values)

    # 8192 rows of 128 bytes on 8192-byte pages: 128 raw pages.
    @pytest.mark.parametrize(
        "scheme, degree, pages",
        [
            (S.HASH, 1, 128),  # degree 1: nothing changes processors
            (S.BROADCAST, 1, 128),
            (S.HASH, 2, 64),  # repartition moves (p-1)/p
            (S.HASH, 4, 96),
            (S.ROUND_ROBIN, 4, 96),
            (S.BROADCAST, 2, 128),  # broadcast replicates p-1 copies
            (S.BROADCAST, 4, 384),
            (S.SINGLETON, 4, 128),  # gather ships everything once
        ],
    )
    def test_exchange_page_count(self, scheme, degree, pages):
        assert pages_for_rows(8192, 128, P) == 128
        assert exchange_page_count(8192, 128, scheme, degree, P) == pages


class TestScanCosts:
    def test_seq_scan_io_dominates_large_tables(self):
        small = cost_seq_scan(100, 2, 1, P)
        large = cost_seq_scan(100_000, 2_000, 1, P)
        assert large.io > small.io * 100

    def test_clustered_index_cheaper_than_unclustered(self):
        clustered = cost_index_scan(1_000, 10_000, 200, 2, True, P)
        unclustered = cost_index_scan(1_000, 10_000, 200, 2, False, P)
        assert clustered.total < unclustered.total

    def test_selective_seek_beats_full_scan(self):
        scan = cost_seq_scan(10_000, 500, 1, P)
        seek = cost_index_scan(10, 10_000, 500, 3, False, P)
        assert seek.total < scan.total

    def test_unselective_probe_worse_than_scan(self):
        """The classic crossover: fetching most rows through an
        unclustered index costs more than scanning."""
        params = P.with_overrides(buffer_pool_pages=10)
        scan = cost_seq_scan(10_000, 500, 1, params)
        seek = cost_index_scan(9_000, 10_000, 500, 3, False, params)
        assert seek.total > scan.total


class TestSortCost:
    def test_in_memory_sort_no_io(self):
        assert cost_sort(100, 10, P).io == 0.0

    def test_spilling_sort_pays_io(self):
        assert cost_sort(1_000_000, P.sort_memory_pages * 10, P).io > 0.0

    def test_nlogn_growth(self):
        small = cost_sort(1_000, 10, P).cpu
        large = cost_sort(100_000, 10, P).cpu
        assert large > small * 100  # super-linear


class TestJoinCosts:
    def test_nested_loop_quadratic(self):
        rescan = Cost(cpu=1.0)
        small = cost_nested_loop_join(100, rescan, 100, 1, P)
        large = cost_nested_loop_join(1_000, rescan, 1_000, 1, P)
        # 10x on both sides: comparisons grow 100x, rescans 10x.
        assert large.total > small.total * 20

    def test_hash_join_linear_ish(self):
        # Both builds fit in memory: cost grows roughly linearly.
        small = cost_hash_join(100, 5, 100, 5, 100, P)
        large = cost_hash_join(10_000, 50, 10_000, 50, 10_000, P)
        ratio = large.total / small.total
        assert 50 < ratio < 200

    def test_hash_join_spill(self):
        fits = cost_hash_join(1_000, P.hash_memory_pages - 1, 1_000, 50, 100, P)
        spills = cost_hash_join(1_000, P.hash_memory_pages * 4, 1_000, 50, 100, P)
        assert spills.io > fits.io

    def test_merge_join_cheap_on_sorted_inputs(self):
        merge = cost_merge_join(10_000, 10_000, 10_000, P)
        nl = cost_nested_loop_join(10_000, Cost(cpu=100.0), 10_000, 1, P)
        assert merge.total < nl.total

    def test_inl_buffer_locality_discount(self):
        """A pool-resident inner makes index nested loops cheap ([40])."""
        resident = cost_index_nested_loop_join(
            10_000, 1.0, 5_000, P.buffer_pool_pages - 50, 2, False, P
        )
        oversized = cost_index_nested_loop_join(
            10_000, 1.0, 5_000_000, P.buffer_pool_pages * 50, 2, False, P
        )
        assert resident.io < oversized.io


class TestExchangeAndParameters:
    def test_exchange_comm_component(self):
        cost = cost_exchange(10_000, 100, P)
        assert cost.comm > 0
        assert cost.io == 0

    def test_with_overrides(self):
        custom = P.with_overrides(random_page_cost=40.0)
        assert custom.random_page_cost == 40.0
        assert custom.seq_page_cost == P.seq_page_cost

    def test_parameters_change_plan_costs(self):
        cheap_random = CostParameters(random_page_cost=1.0)
        pricey_random = CostParameters(random_page_cost=100.0)
        cheap = cost_index_scan(500, 10_000, 500, 3, False, cheap_random)
        pricey = cost_index_scan(500, 10_000, 500, 3, False, pricey_random)
        assert pricey.total > cheap.total

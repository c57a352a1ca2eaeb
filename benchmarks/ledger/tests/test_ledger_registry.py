"""BENCHMARK.json is the metric registry; the runs must agree with it."""

import json
import re

import pytest

from benchmarks.ledger import measure, registry
from benchmarks.ledger.compare import EXACT_COUNTS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_meets_the_contract():
    spec = json.loads(registry.BENCHMARK_JSON.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 10) <= 3420, "all runs must fit the driver's budget"
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128


@pytest.fixture(scope="module")
def smoke_runs():
    """Two traced and one untraced smoke pass of a single-client workload."""
    traced = [measure.traced_pass("oltp_point", 1998, 1.5, 0.1) for _ in range(2)]
    untraced = measure.untraced_pass("oltp_point", 1998, 1.0, 0.1, setups=1)
    return traced, untraced


def test_passes_emit_exactly_the_registered_names(smoke_runs):
    reg = registry.load()
    traced, untraced = smoke_runs
    assert set(traced[0].metrics) == set(reg.per_layer)
    assert set(untraced.metrics) == set(reg.end_to_end)
    assert all(value is not None and value > 0 for value in untraced.metrics.values())


def test_smoke_passes_check_results_and_find_none_wrong(smoke_runs):
    traced, untraced = smoke_runs
    for result in traced + [untraced]:
        assert result.attempted > 0 and result.failed == 0, result.errors


def test_exact_counts_repeat_between_two_runs(smoke_runs):
    first, second = (result.metrics for result in smoke_runs[0])
    for name in EXACT_COUNTS + ("core.parallel.regions_placed", "client.samples"):
        assert first[name] == second[name], name

"""The gate flags a regression, passes an identical pair, and admits
when the base is too noisy to tell."""

import copy
import json

from benchmarks.ledger import compare, registry


def _ledger(reg, scale=None):
    scale = scale or {}
    workloads = {}
    for workload in reg.workloads:
        metrics = {
            name: {"unit": metric.unit,
                   "values": [100.0 * scale.get((workload, name), 1.0) * wobble
                              for wobble in (0.99, 1.0, 1.01)]}
            for name, metric in reg.end_to_end.items()
        }
        metrics["core.systemr.plans_considered"] = {"unit": "count", "values": [2236, 2236, 2236]}
        workloads[workload] = {"attempted": 10, "failed": 0, "metrics": metrics}
    return {"seed": 1, "seconds": 1, "workloads": workloads}


def test_identical_pair_passes():
    reg = registry.load()
    lines, regressions = compare.compare(reg, _ledger(reg), _ledger(reg))
    assert regressions == 0
    assert not any("REGRESSION" in line for line in lines)
    assert sum("same" in line for line in lines) == len(compare.SINGLE_CLIENT)


def test_twenty_percent_regression_is_flagged_in_each_direction():
    reg = registry.load()
    slower = _ledger(reg, {("oltp_point", "latency_p50_ms"): 1.2, ("mixed_rw", "qps"): 0.8})
    lines, regressions = compare.compare(reg, _ledger(reg), slower)
    assert regressions == 2
    flagged = [line.split()[:2] for line in lines if "REGRESSION" in line]
    assert flagged == [["oltp_point", "latency_p50_ms"], ["mixed_rw", "qps"]]


def test_improvement_and_within_bound_change_pass():
    reg = registry.load()
    better = _ledger(reg, {("oltp_point", "latency_p50_ms"): 0.5, ("oltp_point", "qps"): 0.95})
    _lines, regressions = compare.compare(reg, _ledger(reg), better)
    assert regressions == 0


def test_noisy_base_is_unresolved_not_unchanged():
    reg = registry.load()
    base = _ledger(reg)
    base["workloads"]["mixed_rw"]["metrics"]["latency_p95_ms"]["values"] = [60.0, 100.0, 140.0, 80.0, 120.0]
    worse = copy.deepcopy(base)
    worse["workloads"]["mixed_rw"]["metrics"]["latency_p95_ms"]["values"] = [150.0] * 5
    lines, regressions = compare.compare(reg, base, worse)
    assert regressions == 0
    assert any("mixed_rw" in line and "latency_p95_ms" in line and "unresolved" in line for line in lines)


def test_changed_exact_count_is_reported():
    reg = registry.load()
    moved = _ledger(reg)
    moved["workloads"]["adhoc_optimize"]["metrics"]["core.systemr.plans_considered"]["values"] = [2000] * 3
    lines, regressions = compare.compare(reg, _ledger(reg), moved)
    assert regressions == 0
    assert any("adhoc_optimize" in line and "differs" in line for line in lines)


def test_command_exit_code(tmp_path):
    reg = registry.load()
    base, slow = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(_ledger(reg)))
    slow.write_text(json.dumps(_ledger(reg, {("analytic_star", "latency_p50_ms"): 1.2})))
    assert compare.main([str(base), str(base)]) == 0
    assert compare.main([str(base), str(slow)]) == 1

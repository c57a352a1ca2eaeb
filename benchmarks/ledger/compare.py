"""The regression gate: compare two ledger files against the fixed bounds.

    python3 benchmarks/ledger/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the candidate; both are
``run.py --out`` files, ideally with ``--repeats`` of three or more.  One
row per (workload, end-to-end metric): both medians, the ratio B/A, and
how much worse B is in the metric's own direction, judged against the
bound in ``BENCHMARK.json``:

* ``ok``          B is no worse than A by more than the bound;
* ``REGRESSION``  it is (the command then exits 1);
* ``unresolved``  A's own repeats spread (interquartile distance over the
  median) wider than the bound, so the pair cannot be called either way.

Counts the program makes that repeat exactly with one client are listed
too (``same`` / ``differs``); they never fail the gate, because a change
may legitimately move them -- but two runs of the same code must agree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

_ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    sys.path[0] = str(_ROOT)

from benchmarks.ledger import registry  # noqa: E402
from benchmarks.ledger.stats import median, spread  # noqa: E402

# Exact with one client: no timing enters them.
EXACT_COUNTS = (
    "core.systemr.plans_considered",
    "core.cascades.groups",
    "core.cascades.rules_fired",
    "core.rewrite.rules_fired",
    "engine.executor.pages_read",
    "core.plancache.invalidations",
)
SINGLE_CLIENT = ("oltp_point", "adhoc_optimize", "analytic_star")


def worse_by(metric: registry.Metric, base: float, candidate: float) -> float:
    """How much worse ``candidate`` is than ``base``, as a share of base."""
    change = (candidate - base) / abs(base)
    return change if metric.better == "lower" else -change


def judge(metric: registry.Metric, base: List[float], candidate: List[float]) -> Tuple[str, float]:
    """(verdict, worse-by share) for one (workload, metric) pair."""
    worse = worse_by(metric, median(base), median(candidate))
    if spread(base) > metric.bound:
        return "unresolved", worse
    return ("REGRESSION" if worse > metric.bound else "ok"), worse


def compare(reg: registry.Registry, base: Dict, candidate: Dict) -> Tuple[List[str], int]:
    """Report lines and the number of regressions."""
    lines = [f"{'workload':15s} {'metric':30s} {'A (base)':>12s} {'B':>12s} {'B/A':>7s} {'worse by':>9s} "
             f"{'bound':>6s}  verdict"]
    regressions = 0
    for workload in reg.workloads:
        a_metrics = base["workloads"].get(workload, {}).get("metrics", {})
        b_metrics = candidate["workloads"].get(workload, {}).get("metrics", {})
        for name, metric in reg.end_to_end.items():
            if name not in a_metrics or name not in b_metrics:
                continue
            a_values, b_values = a_metrics[name]["values"], b_metrics[name]["values"]
            verdict, worse = judge(metric, a_values, b_values)
            regressions += verdict == "REGRESSION"
            a_mid, b_mid = median(a_values), median(b_values)
            lines.append(
                f"{workload:15s} {name:30s} {a_mid:12.5g} {b_mid:12.5g} {b_mid / a_mid:7.3f} "
                f"{worse:+9.1%} {metric.bound:6.0%}  {verdict}"
            )
        if workload not in SINGLE_CLIENT:
            continue
        for name in EXACT_COUNTS:
            if name in a_metrics and name in b_metrics:
                a_values, b_values = a_metrics[name]["values"], b_metrics[name]["values"]
                same = len(set(a_values) | set(b_values)) == 1
                lines.append(f"{workload:15s} {name:30s} {a_values[0]:12g} {b_values[0]:12g} "
                             f"{'':7s} {'':9s} {'count':>6s}  {'same' if same else 'differs'}")
    return lines, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="ledger file of the parent commit (A)")
    parser.add_argument("candidate", help="ledger file of the change (B)")
    args = parser.parse_args(argv)
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.candidate) as handle:
        candidate = json.load(handle)
    lines, regressions = compare(registry.load(), base, candidate)
    print("\n".join(lines))
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

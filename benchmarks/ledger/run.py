"""Run the performance ledger.

Two ways in, one program:

* one pass over one workload, the form the benchmark driver calls::

      python3 benchmarks/ledger/run.py --workload oltp_point --seed 7 --seconds 15 --trace 0

  prints every metric by name and unit, then one JSON object on the last
  line: ``{"correct", "attempted", "failed", "metrics"}`` -- the
  end-to-end metrics with ``--trace 0``, the per-layer ones with
  ``--trace 1``;

* the whole ledger (no ``--trace``): every workload, each in its own
  subprocess so peak RSS is per workload, both passes, a table, and
  optionally ``--out FILE`` for ``compare.py``::

      python3 benchmarks/ledger/run.py --seed 1998 [--workload NAME] [--smoke] [--repeats N] [--out FILE]

Exits non-zero when any result was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    # Run as a script: the script's own directory leads sys.path, where
    # trace.py would shadow the standard library's.  Import by package
    # from the repo root instead, and find repro under src/.
    sys.path[0] = str(_ROOT)
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(1, str(_ROOT / "src"))

from benchmarks.ledger import registry  # noqa: E402

SETUPS = 3  # set-ups per untraced run; setup_s is their median
SMOKE_SCALE = 0.1  # --smoke: a tenth of every operation count ...
SMOKE_SECONDS = 1.0  # ... and a one-second window, whatever --seconds says


def _run_pass(args, reg: registry.Registry) -> int:
    from benchmarks.ledger import measure

    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    results = []
    if args.trace in ("0", "both"):
        setups = 1 if args.smoke else SETUPS
        results.append((reg.end_to_end, measure.untraced_pass(
            args.workload, args.seed, seconds, scale, setups)))
    if args.trace in ("1", "both"):
        results.append((reg.per_layer, measure.traced_pass(
            args.workload, args.seed, seconds, scale, args.trace_out)))
    metrics = {}
    attempted = failed = 0
    for expected, result in results:
        unknown = set(result.metrics) - set(expected)
        if unknown:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        attempted += result.attempted
        failed += result.failed
        for error in result.errors[:10]:
            print(f"FAILED: {error}", file=sys.stderr)
        for name, metric in expected.items():
            value = result.metrics.get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{args.workload:16s} {name:40s} {shown:>14s} {metric.unit}")
            # The driver's contract wants a number for every metric on
            # every workload, so one that does not apply here reads 0 --
            # except in the ledger's own files, which keep it null.
            if value is None and args.trace != "both":
                value = 0.0
            metrics[name] = {"value": value, "unit": metric.unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _machine() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _run_ledger(args, reg: registry.Registry) -> int:
    names = [args.workload] if args.workload else reg.workloads
    table = {name: {} for name in names}
    status = 0
    for repeat in range(args.repeats):
        for name in names:  # sequentially: the two cores belong to one workload at a time
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "both"]
            if args.smoke:
                command.append("--smoke")
            if args.trace_out:
                command += ["--trace-out", f"{args.trace_out}.{name}.jsonl"]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            status = status or done.returncode
            lines = done.stdout.strip().splitlines()
            if repeat == 0:
                print("\n".join(lines[:-1]))
            if not lines:
                continue
            outcome = json.loads(lines[-1])
            row = table[name]
            row["attempted"] = row.get("attempted", 0) + outcome["attempted"]
            row["failed"] = row.get("failed", 0) + outcome["failed"]
            for metric, entry in outcome["metrics"].items():
                row.setdefault("metrics", {}).setdefault(
                    metric, {"unit": entry["unit"], "values": []})["values"].append(entry["value"])
    for name in names:
        row = table[name]
        print(f"{name}: attempted={row.get('attempted', 0)} failed={row.get('failed', 0)}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
                       "machine": _machine(), "workloads": table}, handle, indent=1, sort_keys=True)
    return status


def main(argv=None) -> int:
    reg = registry.load()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=reg.workloads)
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per pass (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1", "both"),
                        help="run one pass of one workload in this process and print the result line")
    parser.add_argument("--smoke", action="store_true",
                        help="one-second windows and a tenth of every operation count; same checks, same names")
    parser.add_argument("--repeats", type=int, default=1, help="ledger mode: runs per workload")
    parser.add_argument("--out", help="ledger mode: write every value of every metric as JSON")
    parser.add_argument("--trace-out", help="write the traced pass's spans as JSON lines")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(reg.run_seconds)
    if args.trace is None:
        return _run_ledger(args, reg)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return _run_pass(args, reg)


if __name__ == "__main__":
    sys.exit(main())

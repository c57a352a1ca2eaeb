"""``BENCHMARK.json`` at the repo root is the metric registry: every
metric's name, unit, direction and (for end-to-end metrics) regression
bound live there and nowhere else."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float]  # None for per-layer metrics, which are not gated


@dataclass(frozen=True)
class Registry:
    run_seconds: int
    workloads: List[str]
    end_to_end: Dict[str, Metric]
    per_layer: Dict[str, Metric]


def load(path: Path = BENCHMARK_JSON) -> Registry:
    with open(path) as handle:
        spec = json.load(handle)

    def metrics(entries) -> Dict[str, Metric]:
        return {
            entry["name"]: Metric(entry["name"], entry["unit"], entry["better"], entry.get("bound"))
            for entry in entries
        }

    return Registry(
        run_seconds=spec["run_seconds"],
        workloads=[workload["name"] for workload in spec["workloads"]],
        end_to_end=metrics(spec["end_to_end"]),
        per_layer=metrics(spec["per_layer"]),
    )

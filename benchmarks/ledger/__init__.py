"""The repo's performance ledger: four wall-clock workloads, end-to-end
metrics with regression bounds, and per-layer spans.

Entry point: ``python3 benchmarks/ledger/run.py`` (see README.md here and
``BENCHMARK.json`` at the repo root, which is the metric registry).
"""

"""Percentiles, rank correlation, spread and span self-time arithmetic."""

import json

import pytest

from benchmarks.ledger.stats import median, percentile, spearman, spread
from benchmarks.ledger.trace import (
    NullTracer,
    Tracer,
    durations_by_name,
    self_times,
    write_jsonl,
)


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == 2.5
    assert median([5.0]) == 5.0
    assert percentile(list(range(101)), 0.95) == pytest.approx(95.0)


def test_percentile_of_nothing_is_an_error_not_zero():
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 10.0, 10.0, 10.0]
    assert spread(values) == 0.0
    assert spread([1.0]) == 0.0
    # Seven points: the exclusive-method quartiles are the 2nd, 4th and 6th.
    assert spread([97.0, 103.0, 98.0, 100.0, 102.0, 99.0, 101.0]) == pytest.approx(0.04)


def test_spearman():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert spearman([1, 1, 1], [1, 2, 3]) is None
    assert spearman([1, 2, 2, 3], [1, 2, 2, 3]) == pytest.approx(1.0)


def test_span_self_time_subtracts_direct_children_only():
    # op [0, 10] -> optimize [1, 7] -> bind [2, 3], plan [3, 6]; execute [7, 9]
    spans = [
        [0, "op", 0.0, 10.0, -1],
        [0, "core.optimizer:optimize", 1.0, 7.0, 0],
        [0, "sql.binder:bind", 2.0, 3.0, 1],
        [0, "core.physicalize:plan_query", 3.0, 6.0, 1],
        [0, "engine.executor:execute", 7.0, 9.0, 0],
    ]
    assert self_times(spans) == [2.0, 2.0, 1.0, 3.0, 2.0]
    assert sum(self_times(spans)) == 10.0  # self times partition the root
    assert durations_by_name(spans)["core.optimizer:optimize"] == [6.0]


def test_tracer_records_parent_links_and_writes_json_lines(tmp_path):
    tracer = Tracer()
    with tracer.span(7, "op") as root:
        with tracer.span(7, "sql.parser:parse_statement", root) as child:
            pass
    assert (root, child) == (0, 1)
    op, parse = tracer.spans
    assert op[4] == -1 and parse[4] == 0 and op[0] == parse[0] == 7
    assert op[2] <= parse[2] <= parse[3] <= op[3]
    path = tmp_path / "spans.jsonl"
    write_jsonl(tracer.spans, str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines] == ["op", "sql.parser:parse_statement"]
    assert lines[1]["parent"] == 0


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    with tracer.span(1, "op") as root:
        assert root == -1
    assert not tracer.spans

"""In-memory spans for the traced pass.

A span is ``[op_id, name, start, end, parent]``: ``name`` is
``<layer>:<function>`` (the layer is the repro module the call enters),
``parent`` the index of the span that caused it (-1 for an operation's
root) and ``op_id`` is shared by every span of one operation.  Spans are
recorded only around calls made from ``layers.py`` -- nothing inside
``src/`` is instrumented -- kept in a list, and written as JSON lines
when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Sequence

Span = List  # [op_id, name, start, end, parent]


class _OpenSpan:
    __slots__ = ("_spans", "_record")

    def __init__(self, spans: List[Span], record: Span) -> None:
        self._spans = spans
        self._record = record

    def __enter__(self) -> int:
        index = len(self._spans)
        self._spans.append(self._record)
        self._record[2] = perf_counter()
        return index

    def __exit__(self, *_exc) -> bool:
        self._record[3] = perf_counter()
        return False


class Tracer:
    """Records one span per ``with tracer.span(...)`` block."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def span(self, op_id: int, name: str, parent: int = -1) -> _OpenSpan:
        return _OpenSpan(self.spans, [op_id, name, 0.0, 0.0, parent])


class _NullSpan:
    def __enter__(self) -> int:
        return -1

    def __exit__(self, *_exc) -> bool:
        return False


class NullTracer:
    """Same interface, records nothing: the base of the overhead measure."""

    spans: Sequence[Span] = ()
    _span = _NullSpan()

    def span(self, op_id: int, name: str, parent: int = -1) -> _NullSpan:
        return self._span


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the durations of its direct children."""
    result = [span[3] - span[2] for span in spans]
    for span in spans:
        if span[4] >= 0:
            result[span[4]] -= span[3] - span[2]
    return result


def durations_by_name(spans: Sequence[Span]) -> Dict[str, List[float]]:
    """Inclusive durations (seconds) grouped by span name."""
    grouped: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        grouped[span[1]].append(span[3] - span[2])
    return grouped


def write_jsonl(spans: Sequence[Span], path: str) -> None:
    """One JSON object per span, in recording order."""
    with open(path, "w") as handle:
        for index, (op_id, name, start, end, parent) in enumerate(spans):
            handle.write(
                json.dumps(
                    {
                        "span": index,
                        "op_id": op_id,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                    }
                )
                + "\n"
            )

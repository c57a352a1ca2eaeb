"""The correctness oracle: every reference row comes from SQLite.

Set-up mirrors a workload's tables into an in-memory SQLite database and
computes each operation's expected rows there, never from ``repro``.
Committed writes are replayed serially into the same mirror, so the
final table contents (before and after crash/recovery) have an
independent reference too.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Any, Iterable, List, Sequence, Tuple

Row = Tuple[Any, ...]

# Join orders differ between the two systems, so float sums accumulate in
# different sequences; last-digit jitter is not a wrong answer.
_REL_TOL = 1e-6
_ABS_TOL = 1e-6


def _null_safe_key(row: Sequence[Any]) -> Tuple:
    return tuple(
        (value is None, isinstance(value, str), 0 if value is None else value)
        for value in row
    )


def canonical(rows: Iterable[Sequence[Any]]) -> List[Row]:
    """Rows as a sorted multiset of tuples (NULLs sort first per column)."""
    tuples = [tuple(row) for row in rows]
    try:
        return sorted(tuples)
    except TypeError:  # a NULL (or mixed types) in some column
        return sorted(tuples, key=_null_safe_key)


def _values_equal(a: Any, b: Any) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=_REL_TOL, abs_tol=_ABS_TOL)
    return a == b


def _rows_equal(got: Sequence[Row], want: Sequence[Row]) -> bool:
    if len(got) != len(want):
        return False
    if got == want:
        return True
    return all(
        len(a) == len(b) and all(_values_equal(x, y) for x, y in zip(a, b))
        for a, b in zip(got, want)
    )


def rows_match(got: Iterable[Sequence[Any]], expect: Sequence[Row], ordered: bool) -> bool:
    """Does a result equal its reference?

    ``expect`` is what :meth:`Oracle.reference` returned: canonical order
    for unordered statements, SQLite's own order when the statement's
    ORDER BY is total (then the comparison is positional).
    """
    if ordered:
        return _rows_equal([tuple(row) for row in got], expect)
    return _rows_equal(canonical(got), expect)


def table_mismatches(got: Iterable[Sequence[Any]], expect: Iterable[Sequence[Any]]) -> int:
    """Lost plus phantom rows between two table images (multiset difference)."""
    remaining = {}
    for row in expect:
        remaining[tuple(row)] = remaining.get(tuple(row), 0) + 1
    phantom = 0
    for row in got:
        key = tuple(row)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            phantom += 1
    return phantom + sum(remaining.values())


class Oracle:
    """An in-memory SQLite mirror of one workload's tables."""

    def __init__(self, connection: sqlite3.Connection) -> None:
        self.connection = connection

    def reference(self, sqlite_sql: str, args: Sequence[Any] = (), ordered: bool = False) -> List[Row]:
        """The expected rows of one statement, in the form rows_match wants."""
        rows = self.connection.execute(sqlite_sql, tuple(args)).fetchall()
        return [tuple(row) for row in rows] if ordered else canonical(rows)

    def replay(self, statements: Iterable[str]) -> None:
        """Apply committed DML serially (the texts are valid in both dialects)."""
        for text in statements:
            self.connection.execute(text)
        self.connection.commit()

    def table(self, name: str, columns: Sequence[str]) -> List[Row]:
        """Current contents of a mirrored table."""
        listed = ", ".join(f'"{column}"' for column in columns)
        return self.connection.execute(f'SELECT {listed} FROM "{name}"').fetchall()

    def close(self) -> None:
        self.connection.close()

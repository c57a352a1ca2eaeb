"""Unit tests for heap tables and index structures."""

import pytest

from repro.catalog import Column, ColumnType, IndexDef, TableSchema
from repro.errors import StorageError
from repro.storage import HashIndex, HeapTable, OrderedIndex


def small_table(rows=None, page_size=128) -> HeapTable:
    schema = TableSchema(
        "T",
        [
            Column("id", ColumnType.INT, nullable=False, width_bytes=8),
            Column("v", ColumnType.INT, width_bytes=8),
        ],
    )
    table = HeapTable(schema, page_size_bytes=page_size)
    for row in rows or []:
        table.insert(row)
    return table


class TestHeapTable:
    def test_insert_and_fetch(self):
        table = small_table([(1, 10), (2, 20)])
        assert table.row_count == 2
        assert table.fetch(0) == (1, 10)
        assert table.fetch(1) == (2, 20)

    def test_fetch_out_of_range(self):
        table = small_table([(1, 10)])
        with pytest.raises(StorageError):
            table.fetch(5)

    def test_page_model(self):
        # 128-byte pages, 16-byte rows -> 8 rows per page.
        table = small_table([(i, i) for i in range(20)])
        assert table.rows_per_page == 8
        assert table.page_count == 3
        assert table.page_of(0) == 0
        assert table.page_of(8) == 1
        assert table.page_of(19) == 2

    def test_empty_page_count(self):
        assert small_table().page_count == 0

    def test_truncate(self):
        table = small_table([(1, 1)])
        table.truncate()
        assert table.row_count == 0

    def test_column_values(self):
        table = small_table([(1, 10), (2, 20)])
        assert table.column_values("v") == [10, 20]

    def test_insert_many(self):
        table = small_table()
        assert table.insert_many([(1, 1), (2, 2), (3, 3)]) == 3

    def test_bad_page_size(self):
        schema = TableSchema("T", [Column("a", ColumnType.INT)])
        with pytest.raises(StorageError):
            HeapTable(schema, page_size_bytes=0)


class TestOrderedIndex:
    def build(self, values, unique=False, clustered=False):
        table = small_table([(i, v) for i, v in enumerate(values)])
        definition = IndexDef(
            "idx", "T", ("v",), clustered=clustered, unique=unique
        )
        return table, OrderedIndex(definition, table)

    def test_seek(self):
        _table, index = self.build([5, 3, 5, 1])
        assert sorted(index.seek(5)) == [0, 2]
        assert index.seek(99) == []

    def test_seek_skips_nulls(self):
        _table, index = self.build([5, None, 5])
        assert index.entry_count == 2
        assert index.seek(None) == []

    def test_range_inclusive(self):
        _table, index = self.build([1, 2, 3, 4, 5])
        row_ids = index.range(2, 4)
        values = sorted(ids for ids in row_ids)
        assert len(values) == 3

    def test_range_exclusive(self):
        table, index = self.build([1, 2, 3, 4, 5])
        row_ids = index.range(2, 4, include_low=False, include_high=False)
        assert [table.fetch(r)[1] for r in row_ids] == [3]

    def test_range_open_ended(self):
        table, index = self.build([1, 2, 3])
        assert len(index.range(None, None)) == 3
        assert len(index.range(2, None)) == 2
        assert len(index.range(None, 2)) == 2

    def test_ordered_row_ids(self):
        table, index = self.build([3, 1, 2])
        ordered = [table.fetch(r)[1] for r in index.ordered_row_ids()]
        assert ordered == [1, 2, 3]
        descending = [table.fetch(r)[1] for r in index.ordered_row_ids(True)]
        assert descending == [3, 2, 1]

    def test_unique_violation(self):
        with pytest.raises(StorageError):
            self.build([1, 1], unique=True)

    def test_page_count_and_height(self):
        _table, index = self.build(list(range(100)))
        assert index.page_count >= 1
        assert index.height >= 1

    def test_seek_prefix_multicolumn(self):
        schema = TableSchema(
            "M",
            [Column("a", ColumnType.INT), Column("b", ColumnType.INT)],
        )
        table = HeapTable(schema, page_size_bytes=256)
        for a in (1, 2):
            for b in (10, 20):
                table.insert((a, b))
        index = OrderedIndex(IndexDef("m", "M", ("a", "b")), table)
        assert len(index.seek_prefix((1,))) == 2
        assert len(index.seek((1, 10))) == 1

    def test_rebuild_after_insert(self):
        table, index = self.build([1, 2])
        table.insert((9, 7))
        index.build()
        assert index.seek(7) != []


class TestHashIndex:
    def test_seek(self):
        table = small_table([(0, 5), (1, 3), (2, 5)])
        index = HashIndex(IndexDef("h", "T", ("v",)), table)
        assert sorted(index.seek(5)) == [0, 2]
        assert index.seek(99) == []
        assert index.distinct_keys == 2
        assert index.entry_count == 3

    def test_nulls_excluded(self):
        table = small_table([(0, None), (1, 3)])
        index = HashIndex(IndexDef("h", "T", ("v",)), table)
        assert index.entry_count == 1

    def test_unique_violation(self):
        table = small_table([(0, 5), (1, 5)])
        with pytest.raises(StorageError):
            HashIndex(IndexDef("h", "T", ("v",), unique=True), table)


class TestIncrementalUniqueEnforcement:
    """insert_entry enforces unique constraints against *live* versions
    only: dead MVCC versions legally share keys (old halves of updates,
    aborted inserts) and must not trigger false positives."""

    def _unique_pair(self, index_cls):
        table = small_table([(0, 5), (1, 7)])
        definition = IndexDef("u", "T", ("v",), unique=True)
        return table, index_cls(definition, table)

    def test_ordered_duplicate_live_key_raises(self):
        table, index = self._unique_pair(OrderedIndex)
        row_id = table.insert((2, 5))
        with pytest.raises(StorageError):
            index.insert_entry((2, 5), row_id)

    def test_hash_duplicate_live_key_raises(self):
        table, index = self._unique_pair(HashIndex)
        row_id = table.insert((2, 7))
        with pytest.raises(StorageError):
            index.insert_entry((2, 7), row_id)

    def test_dead_version_does_not_conflict(self):
        # The old half of an UPDATE: xmax set on the existing version
        # makes it dead to read-latest, so re-indexing the same key for
        # the new version is legal.
        table, index = self._unique_pair(OrderedIndex)
        table.mvcc_delete(0, txid=42)
        new_id = table.mvcc_insert((0, 5), txid=42)
        index.insert_entry((0, 5), new_id)
        assert sorted(index.seek(5)) == [0, new_id]

    def test_non_unique_index_still_accepts_duplicates(self):
        table = small_table([(0, 5)])
        index = OrderedIndex(IndexDef("n", "T", ("v",)), table)
        row_id = table.insert((1, 5))
        index.insert_entry((1, 5), row_id)
        assert sorted(index.seek(5)) == [0, row_id]

    def test_null_keys_never_conflict(self):
        table, index = self._unique_pair(OrderedIndex)
        first = table.insert((2, None))
        second = table.insert((3, None))
        index.insert_entry((2, None), first)
        index.insert_entry((3, None), second)
        assert index.seek(None) == []


def test_scan_excludes_versions_appended_after_it_started():
    """A heap scan that found the table flat must not hand out versions a
    writer appends while the scan is suspended mid-way (the torn SUM of
    the writer-stampede test): they belong to a transaction that had not
    committed when the reader's snapshot was taken."""
    table = small_table([(0, 5), (1, 7)])
    scan = table.visible_rows(None)
    assert next(scan) == (0, (0, 5))
    table.mvcc_delete(0, txid=42)
    table.mvcc_insert((0, 6), txid=42)
    assert list(scan) == [(1, (1, 7))]

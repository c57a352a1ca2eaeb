"""Result comparison, and that a wrong reference fails the command."""

import sqlite3

from benchmarks.ledger import oracle, run
from benchmarks.ledger.oracle import Oracle, canonical, rows_match, table_mismatches


def test_unordered_match_is_null_safe_and_float_tolerant():
    expect = canonical([(1, None, 2.0), (1, "a", 3.0), (None, "b", 0.1 + 0.2)])
    assert rows_match([(None, "b", 0.3), (1, "a", 3.0), (1, None, 2)], expect, ordered=False)
    assert not rows_match([(None, "b", 0.31), (1, "a", 3.0), (1, None, 2)], expect, ordered=False)
    assert not rows_match([(1, "a", 3.0)], expect, ordered=False)


def test_multiset_semantics_count_duplicates():
    expect = canonical([(1,), (1,), (2,)])
    assert rows_match([(2,), (1,), (1,)], expect, ordered=False)
    assert not rows_match([(2,), (2,), (1,)], expect, ordered=False)


def test_ordered_match_is_positional():
    expect = [(3, "c"), (2, "b"), (1, "a")]
    assert rows_match([(3, "c"), (2, "b"), (1, "a")], expect, ordered=True)
    assert not rows_match([(1, "a"), (2, "b"), (3, "c")], expect, ordered=True)


def test_table_mismatches_counts_lost_and_phantom_rows():
    assert table_mismatches([(1, 2), (3, 4)], [(3, 4), (1, 2)]) == 0
    assert table_mismatches([(1, 2)], [(1, 2), (3, 4)]) == 1  # lost
    assert table_mismatches([(1, 2), (9, 9)], [(1, 2)]) == 1  # phantom
    assert table_mismatches([(1, 3)], [(1, 2)]) == 2  # one of each


def test_oracle_replays_journal_and_reads_tables():
    connection = sqlite3.connect(":memory:")
    connection.execute('CREATE TABLE "Ledger" ("client" INTEGER, "seq" INTEGER, "amount" INTEGER)')
    mirror = Oracle(connection)
    mirror.replay([
        "INSERT INTO Ledger (client, seq, amount) VALUES (0, 0, 5)",
        "UPDATE Ledger SET amount = amount + 2 WHERE client = 0 AND seq = 0",
    ])
    assert mirror.table("Ledger", ("client", "seq", "amount")) == [(0, 0, 7)]
    mirror.close()


def test_corrupted_reference_fails_the_command(monkeypatch, capsys):
    honest = Oracle.reference

    def corrupted(self, sqlite_sql, args=(), ordered=False):
        return honest(self, sqlite_sql, args, ordered) + [("phantom",)]

    monkeypatch.setattr(oracle.Oracle, "reference", corrupted)
    status = run.main(["--workload", "oltp_point", "--seed", "3", "--seconds", "2",
                       "--trace", "0", "--smoke"])
    assert status == 1
    assert '"correct": false' in capsys.readouterr().out.strip().splitlines()[-1]

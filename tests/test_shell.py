"""Tests for the interactive shell's command dispatch."""

import pytest

from repro import Database
from repro.datagen import build_emp_dept
from repro.errors import ReproError, SqlError
from repro.shell import Shell


@pytest.fixture
def shell():
    db = Database()
    build_emp_dept(db.catalog, emp_rows=50, dept_rows=5)
    db.analyze()
    return Shell(db)


class TestMetaCommands:
    def test_help(self, shell):
        assert "\\tables" in shell.run_command("\\help")

    def test_tables(self, shell):
        output = shell.run_command("\\tables")
        assert "Emp" in output and "Dept" in output
        assert "50 rows" in output

    def test_schema(self, shell):
        output = shell.run_command("\\schema Emp")
        assert "emp_no" in output
        assert "PRIMARY KEY" in output

    def test_schema_usage(self, shell):
        assert "usage" in shell.run_command("\\schema")

    def test_explain(self, shell):
        output = shell.run_command("\\explain SELECT name FROM Emp")
        assert "SeqScan" in output or "IndexScan" in output

    def test_trace(self, shell):
        output = shell.run_command(
            "\\trace SELECT name FROM Emp WHERE dept_no IN "
            "(SELECT dept_no FROM Dept)"
        )
        assert "decorrelate-semi-apply" in output

    def test_naive(self, shell):
        output = shell.run_command("\\naive SELECT name FROM Emp")
        assert "interpreter work" in output

    def test_analyze(self, shell):
        assert "statistics" in shell.run_command("\\analyze")

    def test_quit_raises_eof(self, shell):
        with pytest.raises(EOFError):
            shell.run_command("\\quit")

    def test_unknown(self, shell):
        assert "unknown command" in shell.run_command("\\frobnicate")

    def test_columnar_toggle_replans_cached_statements(self):
        """Plans cached under the row engine's costing are not reused
        after ``\\columnar on``; the replanned cost is the one a
        columnar database estimates.  Feedback is off on both sides so
        the first run's harvest cannot move the estimates."""
        sql = (
            "SELECT D.name, COUNT(*) AS n FROM Emp E, Dept D "
            "WHERE E.dept_no = D.dept_no GROUP BY D.name"
        )

        def database(**kw):
            db = Database(use_feedback=False, **kw)
            build_emp_dept(db.catalog, emp_rows=50, dept_rows=5)
            db.analyze()
            return db

        shell = Shell(database())
        row_cost = shell.db.sql(sql).plan.est_cost.total
        assert shell.db.sql(sql).from_plan_cache
        shell.run_command("\\columnar on")
        result = shell.db.sql(sql)
        assert not result.from_plan_cache
        expected = database(columnar_mode=True).optimize(sql).physical
        assert result.plan.est_cost.total == expected.est_cost.total
        assert result.plan.est_cost.total != row_cost


class TestQueries:
    def test_select_with_footer(self, shell):
        output = shell.run_command("SELECT name FROM Emp WHERE emp_no = 1;")
        assert "1 rows" in output
        assert "page reads" in output

    def test_null_rendering(self, shell):
        shell.db.catalog.table("Emp").insert((999, "x", None, 1.0, 30))
        shell.db.catalog.rebuild_indexes("Emp")
        output = shell.run_command(
            "SELECT dept_no FROM Emp WHERE emp_no = 999"
        )
        assert "NULL" in output

    def test_row_limit(self, shell):
        output = shell.run_command("SELECT name FROM Emp")
        assert "more rows" in output

    def test_empty_input(self, shell):
        assert shell.run_command("   ;") == ""

    def test_error_propagates(self, shell):
        with pytest.raises(SqlError):
            shell.run_command("SELECT nonsense FROM Nowhere")

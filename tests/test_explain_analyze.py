"""EXPLAIN ANALYZE, prepared statements, and the metrics registry.

The instrumentation layer (RuntimeStats) hangs actual row counts,
invocations, and wall time off every physical operator; EXPLAIN ANALYZE
renders them next to the optimizer's estimates -- the estimate-vs-actual
gap the cost-model experiments are about.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.engine.context import ExecContext
from repro.engine.executor import execute
from repro.engine.runtime_stats import OpRuntimeStats, RuntimeStats
from repro.errors import ExecutionError, PrepareError

from tests.conftest import assert_same_rows


JOIN_SQL = (
    "SELECT E.name, D.name FROM Emp E, Dept D "
    "WHERE E.dept_no = D.dept_no AND E.sal > 50000"
)


# ----------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE statements
# ----------------------------------------------------------------------
class TestExplainStatements:
    def test_explain_returns_plan_text(self, emp_dept_db):
        result = emp_dept_db.sql("EXPLAIN " + JOIN_SQL)
        assert result.kind == "explain"
        text = "\n".join(row[0] for row in result.rows)
        assert "SeqScan" in text or "IndexScan" in text
        assert "act_rows" not in text  # plain EXPLAIN does not execute

    def test_explain_does_not_execute(self, emp_dept_db):
        before = emp_dept_db.metrics.queries_run
        emp_dept_db.sql("EXPLAIN " + JOIN_SQL)
        assert emp_dept_db.metrics.queries_run == before

    def test_explain_analyze_prints_est_and_actual_rows(self, emp_dept_db):
        result = emp_dept_db.sql("EXPLAIN ANALYZE " + JOIN_SQL)
        text = "\n".join(row[0] for row in result.rows)
        assert "est_rows=" in text
        assert "act_rows=" in text
        assert "loops=" in text
        assert "time=" in text
        assert "optimization time:" in text
        assert "execution time:" in text

    def test_search_line_in_explain_and_metrics(self, emp_dept_db):
        """What the join enumeration explored is one line of EXPLAIN,
        EXPLAIN ANALYZE and \\metrics; a cached plan keeps its line."""
        optimized = emp_dept_db.optimize(JOIN_SQL)
        line = optimized.search.summary()
        assert line.startswith("search: subsets=1 considered=")
        assert optimized.search.plans_considered > optimized.search.plans_materialized
        for statement in ("EXPLAIN ", "EXPLAIN ANALYZE ", "EXPLAIN "):
            rows = emp_dept_db.sql(statement + JOIN_SQL).rows
            assert line in [row[0] for row in rows]
        metrics = emp_dept_db.metrics
        # Three statements, one optimization: the others hit the plan cache.
        assert metrics.search_considered == optimized.search.plans_considered
        assert metrics.format().splitlines()[-1] == line

    def test_explain_analyze_actuals_match_query(self, emp_dept_db):
        plain = emp_dept_db.sql(JOIN_SQL)
        analyzed = emp_dept_db.sql("EXPLAIN ANALYZE " + JOIN_SQL)
        text = "\n".join(row[0] for row in analyzed.rows)
        # The top operator's actual row count is the query's result size.
        first_line = analyzed.rows[0][0]
        assert f"act_rows={len(plain.rows)}" in first_line
        assert f"({len(plain.rows)} rows)" in text

    def test_explain_analyze_runtime_tree(self, emp_dept_db):
        result = emp_dept_db.sql("EXPLAIN ANALYZE " + JOIN_SQL)
        runtime = result.context.runtime
        assert isinstance(runtime, RuntimeStats)
        assert len(runtime) >= 3  # project + join + two scans
        node = runtime.get(result.plan)
        assert isinstance(node, OpRuntimeStats)
        assert node.invocations == 1
        assert node.wall_seconds >= 0.0

    def test_q_error_flags_bad_estimates(self):
        node = OpRuntimeStats(label="x", est_rows=1000.0, actual_rows=10)
        assert node.q_error == pytest.approx(100.0)
        good = OpRuntimeStats(label="y", est_rows=10.0, actual_rows=10)
        assert good.q_error == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Executor instrumentation
# ----------------------------------------------------------------------
class TestRuntimeStats:
    def test_every_operator_recorded(self, emp_dept_db):
        result = emp_dept_db.sql(JOIN_SQL)
        runtime = result.context.runtime
        stack = [result.plan]
        while stack:
            op = stack.pop()
            node = runtime.get(op)
            assert node is not None, f"no runtime stats for {op._label()}"
            stack.extend(op.children())

    def test_actual_rows_sum_per_operator(self, emp_dept_db):
        result = emp_dept_db.sql("SELECT E.name FROM Emp E")
        node = result.context.runtime.get(result.plan)
        assert node.actual_rows == 200

    def test_stats_reset_between_runs(self, emp_dept_db):
        """Regression: re-executing the same plan object must start from
        zero, not accumulate counters across runs (the cached-plan bug)."""
        optimized = emp_dept_db.optimize(JOIN_SQL)
        first_ctx = ExecContext(emp_dept_db.params)
        _schema, rows1 = execute(optimized.physical, emp_dept_db.catalog, first_ctx)
        second_ctx = ExecContext(emp_dept_db.params)
        _schema, rows2 = execute(optimized.physical, emp_dept_db.catalog, second_ctx)
        assert len(rows1) == len(rows2)
        node1 = first_ctx.runtime.get(optimized.physical)
        node2 = second_ctx.runtime.get(optimized.physical)
        assert node1.actual_rows == len(rows1)
        assert node2.actual_rows == len(rows2)  # not 2x
        assert node2.invocations == 1

    def test_same_context_reused_still_resets(self, emp_dept_db):
        """Even reusing one ExecContext, each execute() gets a fresh tree."""
        optimized = emp_dept_db.optimize("SELECT E.name FROM Emp E")
        ctx = ExecContext(emp_dept_db.params)
        execute(optimized.physical, emp_dept_db.catalog, ctx)
        first = ctx.runtime
        execute(optimized.physical, emp_dept_db.catalog, ctx)
        assert ctx.runtime is not first
        assert ctx.runtime.get(optimized.physical).actual_rows == 200


# ----------------------------------------------------------------------
# PREPARE / EXECUTE / DEALLOCATE
# ----------------------------------------------------------------------
class TestPreparedStatements:
    def test_prepare_execute_sql_api(self, emp_dept_db):
        emp_dept_db.sql(
            "PREPARE rich AS SELECT E.name FROM Emp E WHERE E.sal > ?"
        )
        low = emp_dept_db.sql("EXECUTE rich (0)")
        high = emp_dept_db.sql("EXECUTE rich (1000000000)")
        assert len(low.rows) == 200
        assert len(high.rows) == 0

    def test_execute_matches_inline_literal(self, emp_dept_db):
        emp_dept_db.prepare(
            "j",
            "SELECT E.name, D.name FROM Emp E, Dept D "
            "WHERE E.dept_no = D.dept_no AND E.sal > ?",
        )
        prepared = emp_dept_db.execute_prepared("j", 50000)
        inline = emp_dept_db.sql(JOIN_SQL)
        assert_same_rows(prepared.rows, inline.rows)

    def test_execute_reuses_cached_plan(self, emp_dept_db):
        emp_dept_db.prepare("p", "SELECT E.name FROM Emp E WHERE E.sal > ?")
        misses_after_prepare = emp_dept_db.plan_cache.misses
        emp_dept_db.execute_prepared("p", 1)
        emp_dept_db.execute_prepared("p", 2)
        result = emp_dept_db.execute_prepared("p", 3)
        assert result.from_plan_cache
        assert emp_dept_db.plan_cache.misses == misses_after_prepare
        assert emp_dept_db.plan_cache.hits >= 3

    def test_execute_reoptimizes_after_ddl(self, emp_dept_db):
        emp_dept_db.prepare("p", "SELECT E.name FROM Emp E WHERE E.sal > ?")
        emp_dept_db.execute_prepared("p", 1)
        emp_dept_db.catalog.create_index("idx_emp_sal", "Emp", ["sal"])
        result = emp_dept_db.execute_prepared("p", 1)
        assert not result.from_plan_cache  # stale plan was invalidated
        assert emp_dept_db.plan_cache.invalidations >= 1
        again = emp_dept_db.execute_prepared("p", 1)
        assert again.from_plan_cache

    def test_param_arity_checked(self, emp_dept_db):
        emp_dept_db.prepare("p", "SELECT E.name FROM Emp E WHERE E.sal > ?")
        with pytest.raises(PrepareError):
            emp_dept_db.execute_prepared("p")
        with pytest.raises(PrepareError):
            emp_dept_db.execute_prepared("p", 1, 2)

    def test_unknown_statement_raises(self, emp_dept_db):
        with pytest.raises(PrepareError):
            emp_dept_db.execute_prepared("nope")
        with pytest.raises(PrepareError):
            emp_dept_db.deallocate("nope")

    def test_deallocate(self, emp_dept_db):
        emp_dept_db.prepare("p", "SELECT E.name FROM Emp E")
        emp_dept_db.sql("DEALLOCATE p")
        with pytest.raises(PrepareError):
            emp_dept_db.execute_prepared("p")

    def test_unbound_parameter_raises(self, emp_dept_db):
        # An ad-hoc SELECT containing ? has no values to bind at runtime.
        with pytest.raises(ExecutionError):
            emp_dept_db.sql("SELECT E.name FROM Emp E WHERE E.sal > ?")

    def test_multiple_params_positional_order(self, emp_dept_db):
        emp_dept_db.prepare(
            "band",
            "SELECT E.name FROM Emp E WHERE E.sal > ? AND E.age < ?",
        )
        result = emp_dept_db.execute_prepared("band", 50000, 40)
        check = emp_dept_db.sql(
            "SELECT E.name FROM Emp E WHERE E.sal > 50000 AND E.age < 40"
        )
        assert_same_rows(result.rows, check.rows)


# ----------------------------------------------------------------------
# QueryMetrics registry
# ----------------------------------------------------------------------
class TestQueryMetrics:
    def test_counts_queries_and_rows(self, emp_dept_db):
        emp_dept_db.sql("SELECT E.name FROM Emp E")
        emp_dept_db.sql("SELECT D.name FROM Dept D")
        metrics = emp_dept_db.metrics
        assert metrics.queries_run == 2
        assert metrics.rows_returned == 220
        assert metrics.pages_read > 0
        assert metrics.optimize_seconds > 0.0
        assert metrics.execute_seconds > 0.0

    def test_cache_counters_mirrored(self, emp_dept_db):
        emp_dept_db.sql("SELECT E.name FROM Emp E")
        emp_dept_db.sql("SELECT E.name FROM Emp E")
        assert emp_dept_db.metrics.plan_cache_hits == 1
        assert emp_dept_db.metrics.plan_cache_misses == 1

    def test_format_renders_every_counter(self, emp_dept_db):
        emp_dept_db.sql("SELECT E.name FROM Emp E")
        text = emp_dept_db.metrics.format()
        for needle in (
            "queries run",
            "plan cache hits",
            "plan cache misses",
            "pages read",
            "optimizer time",
            "execution time",
        ):
            assert needle in text


# ----------------------------------------------------------------------
# Shell integration
# ----------------------------------------------------------------------
class TestShell:
    def test_shell_runs_explain_analyze(self, emp_dept_db):
        from repro.shell import Shell

        shell = Shell(emp_dept_db)
        out = shell.run_command("EXPLAIN ANALYZE " + JOIN_SQL + ";")
        assert "act_rows=" in out

    def test_shell_prepare_execute_and_metrics(self, emp_dept_db):
        from repro.shell import Shell

        shell = Shell(emp_dept_db)
        assert "PREPARE" in shell.run_command(
            "PREPARE q AS SELECT E.name FROM Emp E WHERE E.sal > ?;"
        )
        out = shell.run_command("EXECUTE q (50000);")
        assert "rows" in out
        metrics = shell.run_command("\\metrics")
        assert "plan cache hits" in metrics

"""Tests for the Database/Optimizer facade and the error hierarchy."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import Database, EnumeratorConfig
from repro.catalog import Column, ColumnType
from repro.core.matviews import create_materialized_view
from repro.datagen import build_emp_dept, build_star_schema
from repro.errors import (
    BindError,
    CatalogError,
    ExecutionError,
    LexerError,
    OptimizerError,
    ParseError,
    PlanError,
    ReproError,
    RewriteError,
    SqlError,
    StatisticsError,
    StorageError,
)

from tests.conftest import assert_same_rows


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [CatalogError, StorageError, SqlError, PlanError, OptimizerError,
         ExecutionError, StatisticsError],
    )
    def test_all_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)

    def test_sql_sub_hierarchy(self):
        assert issubclass(LexerError, SqlError)
        assert issubclass(ParseError, SqlError)
        assert issubclass(BindError, SqlError)

    def test_rewrite_is_optimizer_error(self):
        assert issubclass(RewriteError, OptimizerError)

    def test_position_carried(self):
        error = ParseError("bad", position=17)
        assert error.position == 17


class TestDatabaseFacade:
    def test_create_table_and_insert(self):
        db = Database()
        table = db.create_table(
            "T", [Column("a", ColumnType.INT)], primary_key=["a"]
        )
        table.insert((1,))
        result = db.sql("SELECT a FROM T")
        assert result.rows == [(1,)]

    def test_create_index_wrapper(self):
        db = Database()
        table = db.create_table("T", [Column("a", ColumnType.INT)])
        table.insert((1,))
        db.create_index("i", "T", ["a"])
        assert db.catalog.indexes_on("T")

    def test_query_result_helpers(self, emp_dept_db):
        result = emp_dept_db.sql("SELECT name, sal FROM Emp")
        assert result.column_names == ["name", "sal"]
        assert len(result) == 200

    def test_use_rewrites_off_still_correct(self, emp_dept_db):
        emp_dept_db.use_rewrites = False
        sql = (
            "SELECT name FROM Emp WHERE dept_no IN "
            "(SELECT dept_no FROM Dept WHERE loc = 'Denver')"
        )
        result = emp_dept_db.sql(sql)
        _s, want, _stats = emp_dept_db.naive(sql)
        assert_same_rows(result.rows, want)
        assert result.rewrite_trace == []

    def test_optimize_without_execution(self, emp_dept_db):
        optimized = emp_dept_db.optimize("SELECT name FROM Emp")
        assert optimized.physical.est_rows > 0
        assert optimized.logical is not None

    def test_config_plumbed_through(self, emp_dept_db):
        emp_dept_db.config = EnumeratorConfig(join_algorithms=("nl",))
        result = emp_dept_db.sql(
            "SELECT E.name FROM Emp E, Dept D WHERE E.dept_no = D.dept_no"
        )
        from repro.physical import HashJoinP, walk_physical

        assert not any(
            isinstance(node, HashJoinP) for node in walk_physical(result.plan)
        )

    def test_transparent_matview(self):
        db = Database()
        build_star_schema(
            db.catalog, fact_rows=1_000, dimension_count=2, dimension_rows=10
        )
        db.analyze()
        create_materialized_view(
            db.catalog,
            "by_d1",
            "SELECT S.d1_id AS d1, SUM(S.amount) AS total "
            "FROM Sales S GROUP BY S.d1_id",
        )
        sql = "SELECT S.d1_id, SUM(S.amount) FROM Sales S GROUP BY S.d1_id"
        result = db.sql(sql)
        assert any(
            trace.startswith("materialized-view:")
            for trace in result.rewrite_trace
        )
        _s, want, _stats = db.naive(sql)
        assert_same_rows(result.rows, want)

    def test_matviews_disabled(self):
        db = Database()
        build_star_schema(
            db.catalog, fact_rows=500, dimension_count=2, dimension_rows=10
        )
        db.analyze()
        create_materialized_view(
            db.catalog,
            "by_d1b",
            "SELECT S.d1_id AS d1, SUM(S.amount) AS total "
            "FROM Sales S GROUP BY S.d1_id",
        )
        optimizer = db.optimizer()
        optimizer.use_materialized_views = False
        optimized = optimizer.optimize(
            "SELECT S.d1_id, SUM(S.amount) FROM Sales S GROUP BY S.d1_id"
        )
        assert not any(
            trace.startswith("materialized-view:")
            for trace in optimized.rewrite_trace
        )

    def test_naive_returns_stats(self, emp_dept_db):
        _schema, rows, stats = emp_dept_db.naive("SELECT name FROM Emp")
        assert len(rows) == 200
        assert stats.rows_produced >= 200


_NUMPY_PROBE = """
import sys
import repro
from repro.datagen import build_emp_dept

db = repro.Database(columnar_mode={columnar})
build_emp_dept(db.catalog, emp_rows=50, dept_rows=5)
db.sql("SELECT E.name FROM Emp E, Dept D WHERE E.dept_no = D.dept_no")
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize("columnar", [False, True])
def test_numpy_loads_only_for_the_columnar_engine(columnar):
    """The default engine never imports numpy; only columnar_mode does.

    Runs in a fresh interpreter so modules other tests imported do not
    count.
    """
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    completed = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE.format(columnar=columnar)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == str(columnar)

"""Exchange accounting of parallel plans on the serial engines.

Placed ``ExchangeP``/``GatherP`` operators are page-accounting
pass-throughs on every engine.  The legacy materializing engine charges
an exchange's pages from the whole input it drained; the row-batch and
columnar engines measure the batches that actually crossed.  On the same
placed plan all three must agree -- this is the accounting the cost
model's communication term is calibrated against.
"""

from __future__ import annotations

import random

import pytest

from repro import Database
from repro.core.parallel.placement import place_exchanges
from repro.datagen import build_emp_dept
from repro.engine.context import ExecContext
from repro.engine.executor import execute

EMP_ROWS = 5000
DEPT_ROWS = 50

JOIN_SQL = "SELECT E.name AS c0 FROM Emp E, Emp E2 WHERE E.emp_no = E2.emp_no"
AGG_SQL = (
    "SELECT E.dept_no AS d, COUNT(*) AS c, SUM(E.sal) AS s "
    "FROM Emp E GROUP BY E.dept_no"
)
THREE_WAY_SQL = (
    "SELECT E.name AS c0, D.name AS c1, M.name AS c2 "
    "FROM Emp E, Dept D, Emp M "
    "WHERE E.dept_no = D.dept_no AND D.mgr = M.emp_no AND E.sal > 60000"
)


@pytest.fixture(scope="module")
def par_db() -> Database:
    """Emp/Dept registered without their indexes: every join is a hash
    join, so placement has regions to place."""
    source = Database()
    build_emp_dept(
        source.catalog,
        emp_rows=EMP_ROWS,
        dept_rows=DEPT_ROWS,
        rng=random.Random(3),
    )
    db = Database()
    for name in ("Emp", "Dept"):
        db.catalog.register_table(source.catalog.table(name))
    db.analyze()
    return db


def _parallel_plan(db: Database, sql: str, max_degree: int = 4):
    plan = db.optimizer().optimize(sql).physical
    return place_exchanges(plan, db.params, max_degree)


def _run(db: Database, plan, **attrs):
    context = ExecContext(db.params)
    for name, value in attrs.items():
        setattr(context, name, value)
    _schema, rows = execute(plan, db.catalog, context)
    return rows, context


def test_legacy_simulated_pages_match_measured_pages(par_db):
    """The legacy engine's simulated ``exchange_pages`` equals the
    streaming engines' measured pages on the same parallel plan."""
    for sql in (JOIN_SQL, AGG_SQL, THREE_WAY_SQL):
        plan = _parallel_plan(par_db, sql)
        rows, measured = _run(par_db, plan)
        legacy_rows, legacy = _run(par_db, plan, batch_mode=False)
        col_rows, columnar = _run(par_db, plan, columnar_mode=True)
        assert legacy_rows == rows and col_rows == rows, sql
        assert (
            measured.counters.exchange_pages
            == legacy.counters.exchange_pages
        ), f"simulated/measured drift on {sql!r}"
        assert (
            columnar.counters.exchange_pages
            == measured.counters.exchange_pages
        ), f"columnar drift on {sql!r}"
        assert measured.counters.exchange_pages > 0, f"no pages moved on {sql!r}"

"""Plan-identity snapshot of the System-R enumerator.

``enumerator_plans.json`` pins, for ~80 seeded statements shaped like the
ledger's ``adhoc_optimize`` traffic, what the enumerator *chose* (plan
signature, cost, cardinality, delivered order) and how much it *searched*
(``plans_considered``).  A change to the enumerator's data layout or inner
loop must reproduce the file; a change that is meant to alter plan choice
regenerates it and reviews the diff::

    REGEN_GOLDEN=1 PYTHONPATH=src python tests/golden/regen_enumerator_plans.py

``tests/test_systemr.py`` compares :func:`snapshot` with the file: plan
signature, order and ``plans_considered`` exactly, the two estimates to
1e-12.  The checked-in file was generated on the commit *before* the
bitmask enumerator, which multiplied per-relation cardinality factors in
``frozenset`` iteration order: its estimates moved in the last ulp from
one ``PYTHONHASHSEED`` to the next, and the exact cost tie in
``cartesian_star7_order_by_join_column`` broke three different ways.  The
file is that commit's output under ``PYTHONHASHSEED=1``; from the bitmask
enumerator on, factors multiply in sorted-alias order and the output does
not depend on the hash seed.
"""

from __future__ import annotations

import json
import os
import random
import re
from typing import Dict, List, Optional, Tuple

from repro import Database
from repro.core.systemr import EnumeratorConfig, SystemRJoinEnumerator
from repro.datagen import build_chain_tables, build_emp_dept
from repro.datagen.querygen import EmpDeptQueryGen, QueryGenConfig
from repro.physical.plans import plan_signature
from repro.physical.properties import describe_order

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "enumerator_plans.json")
SEED = 1998

REWRITE_TEMPLATES = (
    "SELECT E.name FROM Emp E WHERE E.dept_no IN "
    "(SELECT D.dept_no FROM Dept D WHERE D.budget > {budget})",
    "SELECT D.name FROM Dept D WHERE EXISTS "
    "(SELECT E.emp_no FROM Emp E WHERE E.dept_no = D.dept_no AND E.sal > {sal})",
    "SELECT D.name, COUNT(*) AS c, SUM(E.sal) AS s FROM Emp E, Dept D "
    "WHERE E.dept_no = D.dept_no AND D.budget > {budget} GROUP BY D.name",
    "SELECT E.name, D.name FROM Emp E LEFT OUTER JOIN Dept D "
    "ON E.dept_no = D.dept_no WHERE E.sal > {sal} AND D.budget > {budget}",
)

# Search-space variants of EnumeratorConfig, each run on a few join shapes.
VARIANTS: Dict[str, Dict[str, bool]] = {
    "bushy": {"bushy": True},
    "risk_aware": {"risk_aware": True},
    "no_orders": {"use_interesting_orders": False},
    "cartesian": {"allow_cartesian": True},
}


def join_sql(shape: str, size: int, start: int, literal: int, order_by: str = "") -> str:
    """A chain/star/cycle join over R1..R10 (the ledger's statement shape)."""
    names = [f"R{(start + i) % 10 + 1}" for i in range(size)]
    if shape == "star":
        joins = [f"{names[0]}.b = {other}.a" for other in names[1:]]
    else:
        joins = [f"{a}.b = {b}.a" for a, b in zip(names, names[1:])]
        if shape == "cycle":
            joins.append(f"{names[-1]}.b = {names[0]}.a")
    joins.append(f"{names[0]}.payload > {literal}")
    sql = (
        f"SELECT {names[0]}.payload, {names[-1]}.payload FROM {', '.join(names)} "
        f"WHERE {' AND '.join(joins)}"
    )
    if order_by == "join_column":
        # An equijoin column: an interesting order a merge join delivers.
        sql += f" ORDER BY {names[1]}.a"
    elif order_by == "payload":
        sql += f" ORDER BY {names[-1]}.payload"
    return sql


def cases() -> List[Tuple[str, str, Dict[str, bool]]]:
    """``(name, sql, EnumeratorConfig overrides)`` for every pinned statement."""
    rng = random.Random(SEED)
    out: List[Tuple[str, str, Dict[str, bool]]] = []
    for shape in ("chain", "star", "cycle"):
        for size in range(4, 10):
            start, literal = rng.randrange(10), rng.randint(1, 700)
            out.append((f"{shape}{size}", join_sql(shape, size, start, literal), {}))
            order_by = "join_column" if size % 2 == 0 else "payload"
            out.append(
                (
                    f"{shape}{size}_order_by_{order_by}",
                    join_sql(shape, size, start, literal, order_by),
                    {},
                )
            )
    for number, template in enumerate(REWRITE_TEMPLATES):
        sql = template.format(
            budget=f"{rng.uniform(60_000, 400_000):.2f}",
            sal=f"{rng.uniform(40_000, 140_000):.2f}",
        )
        out.append((f"rewrite{number}", sql, {}))
    generator = EmpDeptQueryGen(rng, QueryGenConfig(emp_rows=300, dept_rows=25))
    for number in range(20):
        out.append((f"querygen{number:02d}", generator.query(), {}))
    for variant, overrides in VARIANTS.items():
        for shape, size, order_by in (
            ("chain", 6, ""),
            ("star", 6, ""),
            ("cycle", 5, ""),
            ("star", 7, "join_column"),
            ("chain", 5, "payload"),
        ):
            start, literal = rng.randrange(10), rng.randint(1, 700)
            suffix = f"_order_by_{order_by}" if order_by else ""
            out.append(
                (
                    f"{variant}_{shape}{size}{suffix}",
                    join_sql(shape, size, start, literal, order_by),
                    overrides,
                )
            )
    return out


def _database(overrides: Dict[str, bool]) -> Database:
    db = Database(config=EnumeratorConfig(**overrides))
    data = random.Random(f"{SEED}:data")
    build_chain_tables(db.catalog, 10, rows_per_relation=60, domain_ratio=1.0, rng=data)
    build_emp_dept(db.catalog, emp_rows=300, dept_rows=25, rng=data)
    db.analyze()
    return db


def _unnumbered(text: str) -> str:
    """Binder block names (Q1, Q5, ...) are a process-global counter."""
    return re.sub(r"\bQ\d+\b", "Q#", text)


def snapshot() -> Dict[str, Dict[str, object]]:
    """Optimize every case and record what the enumerator chose and searched."""
    # Every enumerator the optimizer builds for a statement is collected, so
    # plans_considered covers all of its SPJ regions.
    built: List[SystemRJoinEnumerator] = []
    original_init = SystemRJoinEnumerator.__init__

    def recording_init(self, *args, **kwargs) -> None:
        original_init(self, *args, **kwargs)
        built.append(self)

    databases: Dict[Tuple[Tuple[str, bool], ...], Database] = {}
    records: Dict[str, Dict[str, object]] = {}
    SystemRJoinEnumerator.__init__ = recording_init
    try:
        for name, sql, overrides in cases():
            key = tuple(sorted(overrides.items()))
            if key not in databases:
                databases[key] = _database(overrides)
            del built[:]
            plan = databases[key].optimize(sql).physical
            records[name] = {
                "sql": sql,
                "plan_signature": _unnumbered(plan_signature(plan)),
                "est_cost_total": plan.est_cost.total,
                "est_rows": plan.est_rows,
                "order": _unnumbered(describe_order(plan.order)),
                "plans_considered": sum(e.stats.plans_considered for e in built),
            }
    finally:
        SystemRJoinEnumerator.__init__ = original_init
    return records


def load() -> Optional[Dict[str, Dict[str, object]]]:
    """The checked-in snapshot, or None when it was never generated."""
    if not os.path.exists(GOLDEN_PATH):
        return None
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


if __name__ == "__main__":
    if os.environ.get("REGEN_GOLDEN") != "1":
        raise SystemExit("set REGEN_GOLDEN=1 to overwrite " + GOLDEN_PATH)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(snapshot(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")

"""Columnar substrate benchmarks.

B3 — scan/filter/join sweep over the columnar store: times the legacy
row-at-a-time path (Row views + per-row ``Expression.evaluate``) against
the vectorized column path on a 1M-row table (reduced under ``--quick``),
asserts the two paths produce bit-identical results — same rowids, same
order, same materialized values, same CNULL cells — and emits the
measurements as ``BENCH_columnar.json`` for the CI artifact. The scan
speedup is gated: >=20x full, >=5x quick.
"""

import json
import time

import numpy as np
from conftest import bench_artifact, run_once

from repro.data.database import Database
from repro.data.expressions import (
    And,
    ColumnRef,
    Comparison,
    InList,
    IsCNull,
    Like,
    Literal,
    Or,
)
from repro.data.schema import CNULL, SchemaBuilder, is_cnull
from repro.data.table import Table
from repro.experiments.harness import quick_mode
from repro.lang.executor import Executor
from repro.lang.planner import JoinNode, LogicalPlan, ScanNode
from repro.platform.platform import SimulatedPlatform
from repro.workers.pool import WorkerPool

CITIES = ("oslo", "paris", "rome", "berlin", "athens", "ünïted")


def _build_items(name: str, n: int, seed: int, database: Database | None = None) -> Table:
    rng = np.random.default_rng(seed)
    schema = (
        SchemaBuilder()
        .integer("uid")
        .float("score")
        .string("city")
        .boolean("active")
        .crowd_string("label")
        .integer("grp")
        .build()
    )
    score = np.round(rng.normal(50.0, 20.0, n), 3).tolist()
    score_null = (rng.random(n) < 0.05).tolist()
    label_draw = rng.random(n).tolist()
    table = database.create_table(name, schema) if database is not None else Table(name, schema)
    table.insert_columns(
        {
            "uid": np.arange(n, dtype=np.int64).tolist(),
            "score": [None if m else v for v, m in zip(score, score_null)],
            "city": rng.choice(np.array(CITIES, dtype=object), n).tolist(),
            "active": (rng.random(n) < 0.5).tolist(),
            "label": [
                CNULL if d < 0.10 else None if d < 0.15 else ("hot" if d < 0.60 else "cold")
                for d in label_draw
            ],
            "grp": rng.integers(0, max(1, n // 50), n).tolist(),
        }
    )
    return table


def _build_dim(name: str, n_groups: int, seed: int, database: Database | None = None) -> Table:
    rng = np.random.default_rng(seed)
    schema = SchemaBuilder().integer("k").string("tag").build()
    table = database.create_table(name, schema) if database is not None else Table(name, schema)
    table.insert_columns(
        {
            "k": np.arange(n_groups, dtype=np.int64).tolist(),
            "tag": rng.choice(np.array(("x", "y", "z"), dtype=object), n_groups).tolist(),
        }
    )
    return table


def _predicates(n: int):
    c = ColumnRef
    lit = Literal
    return [
        ("compare", Comparison(">", c("score"), lit(60.0))),
        (
            "compound",
            And(
                Comparison(">=", c("score"), lit(30.0)),
                Or(Comparison("=", c("city"), lit("oslo")), Comparison("<", c("uid"), lit(n // 2))),
            ),
        ),
        ("like", Like(c("city"), "%r%")),
        ("inlist", InList(c("city"), ("rome", "berlin"))),
        ("iscnull", IsCNull(c("label"))),
        ("bool", Comparison("=", c("active"), lit(True))),
    ]


def _row_scan(table: Table, expr) -> list[int]:
    """The legacy tuple-at-a-time scan: per-row views, per-row evaluate."""
    return [row.rowid for row in table if expr.evaluate(row) is True]


def test_b3_columnar_scan_filter_join(benchmark, report):
    n = 120_000 if quick_mode() else 1_000_000
    floor = 5.0 if quick_mode() else 20.0
    join_n = 2_000 if quick_mode() else 8_000

    items = _build_items("items", n, seed=7)
    store = items.store

    def sweep():
        out = {"scan_filter": {}, "join": {}, "cnull": {}}

        # -- scan/filter: row path vs vectorized path, bit-identical -- #
        row_total = vec_total = 0.0
        for label, expr in _predicates(n):
            start = time.perf_counter()
            row_ids = _row_scan(items, expr)
            row_s = time.perf_counter() - start
            start = time.perf_counter()
            vec_ids = items.filter_rowids(expr)
            vec_s = time.perf_counter() - start
            assert vec_ids.tolist() == row_ids, f"{label}: rowid/order mismatch"
            row_total += row_s
            vec_total += vec_s
            out["scan_filter"][label] = {
                "rows_kept": len(row_ids),
                "row_s": row_s,
                "vec_s": vec_s,
                "speedup": row_s / vec_s,
            }
        out["scan_speedup"] = row_total / vec_total

        # Value-level identity on one predicate: materialized dicts match.
        expr = _predicates(n)[1][1]
        sample = items.filter_rowids(expr)[:2_000]
        for rid in sample.tolist():
            assert store.row_dict(rid) == items.row(rid).as_dict()

        # -- CNULL cells: mask popcount path vs full-table walk -- #
        start = time.perf_counter()
        walked = [
            (row.rowid, col.name)
            for row in items
            for col in items.schema.crowd_columns
            if is_cnull(row[col.name])
        ]
        walk_s = time.perf_counter() - start
        start = time.perf_counter()
        cells = items.cnull_cells()
        mask_s = time.perf_counter() - start
        assert cells == walked, "cnull_cells diverges from the row walk"
        assert items.cnull_count() == len(walked)
        out["cnull"] = {"cells": len(cells), "walk_s": walk_s, "mask_s": mask_s}

        # -- join: nested-loop row path vs columnar hash build/probe -- #
        db = Database()
        _build_items("items_small", join_n, seed=11, database=db)
        _build_dim("dim", max(1, join_n // 50), seed=13, database=db)
        platform = SimulatedPlatform(WorkerPool.uniform(3, seed=1), seed=2)
        plan = LogicalPlan(
            JoinNode(
                ScanNode("items_small"),
                ScanNode("dim"),
                And(
                    Comparison("=", ColumnRef("grp"), ColumnRef("k")),
                    Comparison("!=", ColumnRef("tag"), Literal("y")),
                ),
            )
        )
        hash_ex = Executor(db, platform)
        nested_ex = Executor(db, platform)
        nested_ex._columnar_join = lambda node: None
        nested_ex._equi_split = lambda *args: None
        start = time.perf_counter()
        hashed = hash_ex.execute(plan)
        hash_s = time.perf_counter() - start
        start = time.perf_counter()
        nested = nested_ex.execute(plan)
        nested_s = time.perf_counter() - start
        assert hashed.rows == nested.rows, "hash join diverges from nested loop"
        out["join"] = {
            "left": join_n,
            "right": max(1, join_n // 50),
            "matched": len(hashed.rows),
            "nested_s": nested_s,
            "hash_s": hash_s,
            "speedup": nested_s / hash_s,
        }
        return out

    result = run_once(benchmark, sweep)

    report.table(
        [{"predicate": k, **v} for k, v in result["scan_filter"].items()],
        title=f"B3: columnar scan/filter vs row path ({n} rows)",
        float_format="{:.4f}",
    )
    report.table(
        [result["join"]],
        title="B3: columnar hash join vs nested loop",
        float_format="{:.4f}",
    )
    report.note(
        f"aggregate scan speedup {result['scan_speedup']:.1f}x "
        f"(floor {floor}x); cnull popcount {result['cnull']['mask_s'] * 1e3:.2f}ms "
        f"vs walk {result['cnull']['walk_s'] * 1e3:.0f}ms"
    )

    out_path = bench_artifact("BENCH_columnar.json")
    with open(out_path, "w") as fh:
        json.dump(
            {
                "workload": {"rows": n, "join_rows": join_n, "quick": quick_mode()},
                "scan_speedup_floor": floor,
                **result,
            },
            fh,
            indent=2,
        )
    report.note(f"wrote {out_path}")

    assert result["scan_speedup"] >= floor, (
        f"columnar scan only {result['scan_speedup']:.1f}x faster than the "
        f"row path (floor {floor}x)"
    )

"""The benchmark's own test: steadiness rules, output checks, interaction map.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _built(name: str, ops: int):
    workload = workloads.WORKLOADS[name](7, ops)
    workload.setup()
    workload.begin()
    return workload


@pytest.fixture(scope="module")
def traced_runs():
    """Each workload traced on a few ops: its per-layer metrics and outcome."""
    out = {}
    for name in workloads.WORKLOADS:
        workload = _built(name, 4)
        try:
            records, metrics, exercised = run.traced(
                workload, 2, SimpleNamespace(workload=name, seed=7))
        finally:
            run._close(workload)
        out[name] = (workload, records, metrics, exercised, workload.outcome())
    return out


# -- steadiness rules ------------------------------------------------------ #


def test_no_workload_runs_more_program_threads_than_cpus():
    # Importing the runner does not pin this process: it still sees every CPU.
    for cls in workloads.WORKLOADS.values():
        assert cls.threads <= run.cpus(), cls.name


def test_declared_threads_are_the_configured_ones(traced_runs):
    lb = traced_runs["label_batch"][0]
    assert lb.platform.scheduler.config.max_parallel == lb.threads
    sql = traced_runs["sql_session"][0]
    assert sql.engine.config.max_parallel == sql.threads == 1
    ts = traced_runs["tenant_stream"][0]
    assert ts.service.max_sessions == ts.threads
    assert ts.platform.scheduler.config.max_parallel == 1


def test_each_run_does_a_fixed_number_of_operations():
    for name in workloads.WORKLOADS:
        counts = {workloads.op_count(name, s) for s in (0.1, 1, 2)}
        assert counts == {workloads.MIN_OPS}, name
        assert workloads.op_count(name, 30) == workloads.op_count(name, 30.0)
        assert workloads.op_count(name, 30) % 2 == 0
    workload = _built("label_batch", 3)
    records, _wall, cals = run.timed_phase(workload, 0, 3)
    assert len(records) == 3 and all(r.ok for r in records)
    assert len(cals.points) == 4


def test_calibration_runs_only_while_no_operation_is_in_flight():
    workload = _built("tenant_stream", 4)
    try:
        _records, _wall, cals = run.timed_phase(workload, 0, 4)
    finally:
        run._close(workload)
    # One sample before each round of both clients, one after the last;
    # no other thread works while a sample is taken.
    assert len(cals.points) == 3
    assert cals.foreign_cpu < 0.2 * cals.overhead


def test_percentiles_never_mix_operation_kinds():
    workload = SimpleNamespace(kind="job")
    records = [workloads.OpRecord("job", 1.0, 0.5, 0.5), workloads.OpRecord("pass", 1.0, 0.5, 0.5)]
    outcome = workloads.Outcome(1.0, 1, 1, 1.0, "")
    with pytest.raises(RuntimeError, match="mix operation kinds"):
        run.end_to_end(workload, records, 2.0, None, [1.0], outcome)


def test_full_collection_runs_before_the_timed_phase(monkeypatch):
    events = []
    collect = gc.collect
    monkeypatch.setattr(run.gc, "collect", lambda *a: events.append("collect") or collect())

    class Fake:
        kind, ops = "job", 2
        errors: list = []

        def op(self, i):
            events.append(f"op{i}")
            return workloads.OpRecord("job", 0.0, 0.0, 0.0)

    run.timed_phase(Fake(), 0, 2)
    assert events == ["collect", "op0", "op1"]


def test_setup_is_timed_from_before_import_repro():
    source = (HERE / "run.py").read_text(encoding="utf-8").splitlines()
    t0 = next(i for i, line in enumerate(source) if line.startswith("_T0 ="))
    first_import = next(i for i, line in enumerate(source)
                        if line.lstrip().startswith(("import repro", "from repro")))
    assert t0 < first_import
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "label_batch", "--seed", "1",
         "--seconds", "1", "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["repro_preloaded"] is False and report["setup_s"] > 0
    assert report["cpus"] == 1  # each run is pinned to one CPU


# -- output checks ----------------------------------------------------------- #


def test_outputs_pass_their_checks(traced_runs):
    for name, (_w, records, _m, _e, outcome) in traced_runs.items():
        assert outcome.errors == [] and not outcome.failed_ops, (name, outcome.errors[:3])
        assert all(r.ok for r in records), name
        assert 0.5 < outcome.accuracy <= 1.0 and outcome.cost > 0, name


def test_label_batch_check_catches_a_missing_answer(traced_runs):
    workload = traced_runs["label_batch"][0]
    tasks, answers, _labels = workload.jobs[0]
    answers[tasks[0].task_id].pop()
    outcome = workload.outcome()
    assert 0 in outcome.failed_ops and outcome.errors


def test_sql_session_check_catches_a_wrong_aggregate(traced_runs):
    workload = traced_runs["sql_session"][0]
    workload.results[1]["groupby"][0]["category"] = "no such category"
    assert 0 in workload.outcome().failed_ops


def test_tenant_stream_check_catches_a_short_top_k(traced_runs):
    workload = traced_runs["tenant_stream"][0]
    tenant, k, got = workload.results[(0, 0)]
    got["topk"].rows.pop()
    assert 0 in workload.outcome().failed_ops


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "label_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- interaction map --------------------------------------------------------- #


def test_benchmark_json_matches_the_map_and_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["run_seconds"] == workloads.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (row["metric"], row["unit"], row["better"]) for row in layers.MAP]
    for row in layers.MAP:
        assert set(row["moves"]) <= set(run.END_TO_END), row["metric"]
        assert set(row["on"]) | set(row["flat"]) <= set(workloads.WORKLOADS), row["metric"]


def test_every_mapped_metric_is_emitted_by_a_workload_that_exercises_it(traced_runs):
    for row in layers.MAP:
        layer = row["metric"].split(".")[0]
        for name in row["on"]:
            metrics, exercised = traced_runs[name][2], traced_runs[name][3]
            assert row["metric"] in metrics, (row["metric"], name)
            assert exercised[layer] > 0, (row["metric"], name)
        values = [traced_runs[name][2][row["metric"]] for name in row["on"] or workloads.WORKLOADS]
        assert any(v > 0 for v in values), row["metric"]


def test_layer_self_times_sum_to_the_traced_wall(traced_runs):
    for name, (_w, _r, metrics, _e, _o) in traced_runs.items():
        total = sum(metrics[m] for m in layers.SELF_TIMES)
        assert metrics["obs.trace_overhead_ratio"] > 0, name
        assert all(metrics[m] >= 0 for m in layers.SELF_TIMES), name
        assert total > 0, name

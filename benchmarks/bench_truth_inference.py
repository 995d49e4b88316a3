"""Truth-inference benchmarks.

T1 — Accuracy vs redundancy k: reproduces the survey's canonical
comparison (MV / WMV / ZC / DS / GLAD / Bayes) on a heterogeneous worker
pool. Expected shape: inference-based methods (EM family) match MV at k=1
(no signal to exploit) and pull ahead as k grows, because per-worker
evidence lets them learn who to trust.

B2 — EM kernel scaling sweep: times each EM method's vectorized
``kernel`` backend against the per-answer ``legacy`` backend on a single
large workload, asserts the two backends infer identical truths with the
same iteration count, asserts the wall-clock speedup floor, and emits the
measurements as ``BENCH_truth_inference.json`` for the CI artifact.
"""

import json
import time

from conftest import bench_artifact, run_once

from repro.experiments.calibration import expected_calibration_error
from repro.experiments.harness import PoolSpec, make_platform, quick_mode, run_trials
from repro.experiments.datasets import labeling_dataset
from repro.quality.truth import (
    CATEGORICAL_METHODS,
    DawidSkene,
    Glad,
    Mace,
    ZenCrowd,
)

METHODS = ("mv", "wmv", "zc", "ds", "glad", "bayes")
REDUNDANCIES = (1, 3, 5, 7)
POOL = PoolSpec(kind="heterogeneous", size=30, accuracy_low=0.5, accuracy_high=0.95)


def _trial(seed: int) -> dict[str, float]:
    values: dict[str, float] = {}
    for k in REDUNDANCIES:
        platform = make_platform(POOL, seed=seed)
        dataset = labeling_dataset(250, seed=seed + 100)
        answers = platform.collect(dataset.tasks, redundancy=k)
        for name in METHODS:
            result = CATEGORICAL_METHODS[name]().infer(answers)
            values[f"{name}@k{k}"] = result.accuracy_against(dataset.truth)
            if k == 5:
                values[f"{name}_ece"] = expected_calibration_error(
                    result, dataset.truth
                )
    return values


def test_t1_truth_inference_accuracy_vs_redundancy(benchmark, report):
    result = run_once(benchmark, lambda: run_trials("T1", _trial, n_trials=3))

    rows = []
    for name in METHODS:
        row = {"method": name}
        for k in REDUNDANCIES:
            row[f"k={k}"] = result.mean(f"{name}@k{k}")
        row["ece@k5"] = result.mean(f"{name}_ece")
        rows.append(row)
    report.table(rows, title="T1: truth-inference accuracy vs redundancy (3 trials)")

    # Shape checks (who wins): at k>=5 the EM family beats plain MV.
    mv_k5 = result.mean("mv@k5")
    best_em_k5 = max(result.mean(f"{m}@k5") for m in ("zc", "ds", "bayes"))
    assert best_em_k5 >= mv_k5
    # Accuracy grows with redundancy for every method.
    for name in METHODS:
        assert result.mean(f"{name}@k7") >= result.mean(f"{name}@k1") - 0.02


# --------------------------------------------------------------------- #
# B2 — kernel vs legacy backend scaling sweep
# --------------------------------------------------------------------- #

#: EM configs for the sweep. Iteration caps are pinned so both backends do
#: exactly the same amount of model work; GLAD is additionally capped low
#: because its gradient-ascent dynamics amplify float summation-order noise
#: at high iteration counts (see tests/test_truth_kernels.py).
SWEEP_METHODS = {
    "zc": lambda backend: ZenCrowd(max_iterations=25, backend=backend),
    "mace": lambda backend: Mace(max_iterations=25, backend=backend),
    "glad": lambda backend: Glad(max_iterations=8, gradient_steps=10, backend=backend),
    "ds": lambda backend: DawidSkene(max_iterations=50, backend=backend),
}

#: Methods whose legacy backend is pure-Python per-answer loops; these must
#: clear the speedup floor. DS's legacy path is already numpy (dense repeat
#: temporaries), so its win is smaller and only reported.
SPEEDUP_GATED = ("zc", "mace", "glad")


def _sweep_workload():
    if quick_mode():
        pool, n_tasks, redundancy = PoolSpec(kind="heterogeneous", size=20), 300, 3
    else:
        pool, n_tasks, redundancy = PoolSpec(kind="heterogeneous", size=50), 2000, 5
    platform = make_platform(pool, seed=11)
    dataset = labeling_dataset(n_tasks, labels=("a", "b", "c", "d", "e"), seed=13)
    answers = platform.collect(dataset.tasks, redundancy=redundancy)
    n_answers = sum(len(a) for a in answers.values())
    meta = {
        "n_tasks": n_tasks,
        "n_workers": pool.size,
        "n_labels": 5,
        "redundancy": redundancy,
        "n_answers": n_answers,
        "quick": quick_mode(),
    }
    return answers, meta


def _time_backend(factory, backend, answers):
    algo = factory(backend)
    start = time.perf_counter()
    result = algo.infer(answers)
    return time.perf_counter() - start, result


def test_b2_kernel_scaling_sweep(benchmark, report):
    answers, meta = _sweep_workload()
    floor = 2.0 if quick_mode() else 5.0

    def sweep():
        rows = {}
        for name, factory in SWEEP_METHODS.items():
            legacy_s, legacy = _time_backend(factory, "legacy", answers)
            kernel_s, kernel = _time_backend(factory, "kernel", answers)
            # Equivalence gate: same truths, same amount of EM work.
            assert kernel.truths == legacy.truths, f"{name}: backends disagree"
            assert kernel.iterations == legacy.iterations
            assert kernel.converged == legacy.converged
            rows[name] = {
                "legacy_s": legacy_s,
                "kernel_s": kernel_s,
                "speedup": legacy_s / kernel_s,
                "iterations": kernel.iterations,
            }
        return rows

    rows = run_once(benchmark, sweep)

    report.table(
        [
            {"method": name, **vals}
            for name, vals in rows.items()
        ],
        title=f"B2: EM kernel vs legacy backend ({meta['n_answers']} answers)",
    )

    out_path = bench_artifact("BENCH_truth_inference.json")
    with open(out_path, "w") as fh:
        json.dump({"workload": meta, "speedup_floor": floor, "methods": rows}, fh, indent=2)
    report.note(f"wrote {out_path}")

    for name in SPEEDUP_GATED:
        assert rows[name]["speedup"] >= floor, (
            f"{name}: kernel backend only {rows[name]['speedup']:.1f}x faster "
            f"than legacy (floor {floor}x)"
        )

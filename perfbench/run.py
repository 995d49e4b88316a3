#!/usr/bin/env python3
"""The crowd benchmark: one workload per process, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload label_batch --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split of a traced phase run after an untraced one in the same process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output check passed. See perfbench/README.md.
"""

import time

import hostspeed

_CAL0 = hostspeed.calibrate()
_T0 = time.perf_counter()  # set-up is timed from here, before `import repro`

import sys  # noqa: E402

_REPRO_PRELOADED = "repro" in sys.modules

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Extra set-ups run in fresh interpreters; setup_s is the median of these
#: and the run's own set-up.
SETUP_REPEATS = 2

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "read_p50_ms": "ms",
    "write_p50_ms": "ms", "peak_rss_mb": "MiB", "crowd_cost_usd": "usd",
    "accuracy": "ratio", "sim_makespan_s": "sim_s",
}


def cpus() -> int:
    """CPUs this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


def pin_to_one_cpu(args) -> None:
    """Check the thread cap against the CPUs the run was given, then pin.

    The run, its threads and its set-up repeats (which inherit the pin)
    share one CPU. Unpinned, the threaded lanes' cross-CPU hand-offs made
    label_batch's time spread twice as wide at the same median.
    """
    from workloads import WORKLOADS

    threads = WORKLOADS[args.workload].threads
    if not args.setup_only and threads > cpus():
        _fail(f"{args.workload} runs {threads} program threads but only {cpus()} CPUs "
              "are available to this process")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _load(name: str, seed: int, ops: int):
    """Build the workload and time its set-up, from before `import repro`."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, ops)
    import repro  # noqa: F401  (timed: part of set-up)

    workload.setup()
    raw = time.perf_counter() - _T0
    scale = 2 * hostspeed.REFERENCE_S / (_CAL0 + hostspeed.calibrate())
    return workload, raw, raw * scale


def _child_setups(args) -> list[float]:
    """Repeat the whole set-up in fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
        )
        if proc.returncode != 0:
            _fail(f"set-up repeat failed: {proc.stderr.strip()[-500:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((report["setup_raw_s"], report["setup_s"]))
    return times


def timed_phase(workload, lo: int, hi: int, on_op=None):
    """Run ops [lo, hi) after a full collection.

    Returns the op records, the phase's wall seconds less the calibration
    loops' own CPU time, and the calibration samples. A workload takes a
    sample only while none of its operations is in flight: before every op
    with one client, before every round with two. One more sample follows
    the last op.
    """
    from workloads import run_single_client

    records = [None] * workload.ops
    cals = hostspeed.Calibrations()
    if on_op is None:
        def on_op(_index: int) -> None:
            pass

    gc.collect()
    started = time.perf_counter()
    if hasattr(workload, "run"):
        workload.run(records, lo, hi, on_op, cals.take)
    else:
        run_single_client(workload, records, lo, hi, on_op, cals.take)
    cals.take()
    wall = time.perf_counter() - started - cals.overhead
    return records[lo:hi], wall, cals


def _p50_ms(values) -> float:
    return statistics.median(values) * 1000.0


def end_to_end(workload, records, wall, cals, setups, outcome) -> dict[str, float]:
    """End-to-end metrics; times are scaled to the reference host speed."""
    kinds = {r.kind for r in records}
    if kinds != {workload.kind}:
        raise RuntimeError(f"percentiles mix operation kinds {sorted(kinds)}")
    scales = [cals.scale(r.started, r.started + r.seconds) for r in records]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall * cals.mean_scale(),
        "op_p50_ms": _p50_ms([r.seconds * k for r, k in zip(records, scales, strict=True)]),
        "read_p50_ms": _p50_ms([r.read_s * k for r, k in zip(records, scales, strict=True)]),
        "write_p50_ms": _p50_ms([r.write_s * k for r, k in zip(records, scales, strict=True)]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "crowd_cost_usd": outcome.cost,
        "accuracy": outcome.accuracy,
        "sim_makespan_s": outcome.sim_makespan,
    }


def traced(workload, n: int, args):
    """Untraced ops [0, n), then traced ops [n, 2n); returns per-layer metrics."""
    import layers
    import tracing

    records, untraced_wall, untraced_cals = timed_phase(workload, 0, n)
    tracer = tracing.Tracer()
    before = layers.platform_counters(workload.platform)
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced_records, traced_wall, traced_cals = timed_phase(
            workload, n, 2 * n, on_op=tracer.op.set)
        t1 = time.perf_counter()
    finally:
        tracer.uninstall()
    after = layers.platform_counters(workload.platform)
    attribution = tracing.attribute(tracer.spans, tracer.counted_totals(), t0, t1)
    overhead = (traced_wall * traced_cals.mean_scale()) / (
        untraced_wall * untraced_cals.mean_scale())
    metrics, exercised = layers.per_layer_metrics(tracer, attribution, t0, t1, before, after,
                                                  overhead)
    total = sum(metrics[m] for m in layers.SELF_TIMES)
    if abs(total - (t1 - t0) * 1000.0) > 1e-6 * max(1.0, total):
        raise RuntimeError(f"layer self times sum to {total} ms, traced wall is "
                           f"{(t1 - t0) * 1000.0} ms")
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    print(f"traced wall {(t1 - t0) * 1000.0:.3f} ms = sum of layer self times "
          f"{total:.3f} ms; untraced wall {untraced_wall * 1000.0:.3f} ms")
    print("exercised: " + json.dumps(exercised, sort_keys=True))
    return records + traced_records, metrics, exercised


def run_one(args) -> int:
    from workloads import op_count

    n = op_count(args.workload, args.seconds)
    total_ops = 2 * n if args.trace else n
    workload, setup_raw, setup_main = _load(args.workload, args.seed, total_ops)
    if args.setup_only:
        _close(workload)
        print(json.dumps({"setup_raw_s": setup_raw, "setup_s": setup_main,
                          "repro_preloaded": _REPRO_PRELOADED, "cpus": cpus()}))
        return 0
    workload.begin()
    if args.trace:
        records, metrics, _exercised = traced(workload, n, args)
    else:
        records, wall, cals = timed_phase(workload, 0, n)
    _close(workload)
    outcome = workload.outcome()
    failed = {i for i, r in enumerate(records) if not r.ok} | outcome.failed_ops
    correct = not failed and not outcome.errors
    if not args.trace:
        setups = [(setup_raw, setup_main)] + _child_setups(args)
        metrics = end_to_end(workload, records, wall, cals, [s for _, s in setups], outcome)
        units = END_TO_END
        print(f"workload {args.workload}: {n} ops of kind '{workload.kind}', closed loop, "
              f"seed {args.seed}; p50 over {n} samples")
        print("raw (unscaled) times: setup " + ", ".join(f"{r:.4f}" for r, _ in setups)
              + f" s; wall {wall:.4f} s; op p50 {_p50_ms([r.seconds for r in records]):.3f} ms; "
              f"host speed scale {cals.mean_scale():.4f}")
        print(f"calibration: {len(cals.points)} samples, {cals.overhead:.4f} s of loop CPU "
              f"taken off wall; CPU used by other threads meanwhile {cals.foreign_cpu:.6f} s")
    else:
        import layers

        units = {row["metric"]: row["unit"] for row in layers.MAP}
    for name, value in metrics.items():
        print(f"{name:<28} {value:>16.6f} {units[name]}")
    print(f"accuracy decisions: {outcome.correct_decisions}/{outcome.decisions}")
    print(f"digest: {outcome.digest}")
    print(f"program threads: {workload.threads} configured; run pinned to "
          f"{sorted(os.sched_getaffinity(0))}")
    for message in outcome.errors[:20]:
        print(f"check failed: {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def _close(workload) -> None:
    close = getattr(workload, "close", None)
    if close is not None:
        close()


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    status, summary = 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT, check=False,
        )
        print(f"== {name} (exit {proc.returncode})")
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0:
            status = 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    from workloads import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if _REPRO_PRELOADED:
        _fail("repro was imported before set-up timing started")
    if args.workload == "all":
        return run_all(args)
    pin_to_one_cpu(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

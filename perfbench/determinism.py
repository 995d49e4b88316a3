#!/usr/bin/env python3
"""Record which outputs repeat exactly at a fixed seed, and how far a seed
change alone moves them.

Usage (from the repository root)::

    python3 perfbench/determinism.py

Runs every workload twice at seed 1 and once at seeds 2 and 3, each in
its own process and at the benchmark's run length
(``workloads.RUN_SECONDS``), and writes perfbench/determinism.json. ``label_batch``
and ``sql_session`` must repeat ``crowd_cost_usd``, ``accuracy``,
``sim_makespan_s`` and the output digest exactly (the script exits 1
otherwise); ``tenant_stream`` records whether its digest repeated, since
its two session threads may interleave crowd work differently.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
OUTCOMES = ("crowd_cost_usd", "accuracy", "sim_makespan_s")
MUST_REPEAT = ("label_batch", "sql_session")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("digest: "))
    record = {name: result["metrics"][name]["value"] for name in OUTCOMES}
    record["digest"] = digest
    return record


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import RUN_SECONDS, WORKLOADS

    report, ok = {"seconds": RUN_SECONDS, "workloads": {}}, True
    for workload in WORKLOADS:
        first, second = run_once(workload, 1, RUN_SECONDS), run_once(workload, 1, RUN_SECONDS)
        repeated = {key: first[key] == second[key] for key in first}
        seeds = {str(seed): run_once(workload, seed, RUN_SECONDS) for seed in (2, 3)}
        seeds["1"] = first
        report["workloads"][workload] = {
            "seed_1_repeated": repeated,
            "by_seed": dict(sorted(seeds.items())),
        }
        print(f"{workload}: repeated at seed 1: {repeated}")
        if workload in MUST_REPEAT and not all(repeated.values()):
            ok = False
    (HERE / "determinism.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Replay perfbench's ``tenant_stream`` workload one script at a time.

The benchmark runs its tenant scripts on two concurrent clients, so what
each statement buys depends on thread timing. This replay runs the same
scripts (``perfbench/workloads.py``'s ``TenantStream``: its tables, its
warm-up and its tenant order t0, t1, t0, t2, t0, t1, t0, t3, ...) one at a
time from one thread, so every seed has one answer. Per seed it prints
the sha256 over every statement's rows, spend, simulated clock, answer log
(worker pool index, value) and tasks published.

Usage (from the repository root)::

    python3 tests/tenant_stream_replay.py                       # print digests
    python3 tests/tenant_stream_replay.py --check tests/data/tenant_stream_replay.json

``--check`` reads a record this script printed and exits 1 unless every
seed's digest equals it; it never writes the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import TenantStream  # noqa: E402

SCRIPTS = 40
SEEDS = (1, 2, 3)


def _statement(platform, session, sql: str, pool_index: dict[str, int]) -> list:
    """Run *sql* on *session*; return what its statements bought and returned."""
    stats = platform.stats
    answers0 = len(platform.answers)
    cost0, published0 = stats.cost_spent, stats.tasks_published
    results = session.execute(sql)
    return [
        [result.rows if hasattr(result, "rows") else result.row_count for result in results],
        stats.cost_spent - cost0,
        platform.scheduler.simulated_clock,
        [(pool_index[a.worker_id], a.value) for a in platform.answers[answers0:]],
        stats.tasks_published - published0,
    ]


def replay(seed: int, scripts: int = SCRIPTS) -> str:
    """The digest of *scripts* tenant scripts at *seed*, run one at a time."""
    workload = TenantStream(seed, scripts)
    workload.setup()
    try:
        platform = workload.platform
        pool_index = {w.worker_id: i for i, w in enumerate(platform.pool.workers)}
        digest = hashlib.sha256()
        for index in range(scripts):
            cycle = workload.cycles[index % 2]
            tenant = cycle[index // 2 % len(cycle)]
            workload.done_ops[tenant] += 1
            k = workload.done_ops[tenant]
            session = workload.sessions[tenant]
            sqls = [*workload.writes(tenant, k), *workload.reads.values(),
                    *workload.crowd(k).values()]
            for sql in sqls:
                record = _statement(platform, session, sql, pool_index)
                digest.update(json.dumps(record, default=repr).encode())
                digest.update(b"\n")
        return digest.hexdigest()
    finally:
        workload.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scripts", type=int, default=SCRIPTS)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument("--check", type=Path, help="record to compare with (read only)")
    args = parser.parse_args(argv)
    if args.check is not None:
        record = json.loads(args.check.read_text(encoding="utf-8"))
        args.scripts = record["scripts"]
        args.seeds = [int(seed) for seed in record["by_seed"]]
    got = {str(seed): replay(seed, args.scripts) for seed in args.seeds}
    print(json.dumps({"scripts": args.scripts, "by_seed": got}, indent=2))
    if args.check is None:
        return 0
    wrong = [seed for seed, digest in got.items() if digest != record["by_seed"][seed]]
    for seed in wrong:
        print(f"seed {seed}: digest {got[seed]}, recorded {record['by_seed'][seed]}",
              file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

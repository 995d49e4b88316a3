"""Command-line interface: run CrowdSQL against a simulated crowd.

Usage::

    python -m repro run script.sql [--seed 7] [--redundancy 3] [--pool 25]
                                   [--batch-size 32] [--max-parallel 8]
                                   [--inference ds] [--trace run.jsonl]
                                   [--metrics] [--failure-policy degrade]
                                   [--fault-plan plan.json]
                                   [--cache answers.jsonl | --no-cache]
                                   [--checkpoint DIR | --resume DIR]
    python -m repro repl
    python -m repro demo
    python -m repro chaos [--seeds 3] [--intensity 1.0] [--check-resume]
                          [--mitigation hedge]
    python -m repro trace-report run.jsonl
    python -m repro serve-metrics [script.sql] [--port 9109] [--iterations 5]
                                  [--hold 0]
    python -m repro serve [tenants.json] [--port 9110] [--rounds 2]
                          [--quantum 8] [--hold 0]
    python -m repro profile-report profile.json

Statements are ';'-separated. Queries print aligned tables plus crowd
accounting. Crowd predicates work out of the box where defaults exist
(CROWDEQUAL uses normalized token equality; CROWDORDER BY works on numeric
columns); CROWDFILTER and CNULL resolution need programmatic oracles, so
the CLI reports a clear error for them instead of guessing.

``--trace FILE`` writes a JSONL span trace of the whole run (operators,
batches, event timeline, EM iterations); ``trace-report`` renders it as
per-operator time/cost breakdowns, retry hotspots, and slowest spans.
``--metrics`` prints the metrics registry after the run. ``--profile
FILE`` writes a per-statement query profile (render it with
``profile-report``). ``serve-metrics`` runs a script in a loop while a
live-ops HTTP server exposes ``/metrics`` (Prometheus text exposition),
``/healthz``, and ``/run`` (JSON run status) — counters advance
monotonically across iterations because every iteration shares one
registry. ``serve`` runs the multi-tenant service: concurrent tenant
sessions (budgets, fair-share weights, per-tenant scripts from a JSON
spec) share one platform and worker pool, with per-tenant labeled
metrics and a tenant view on ``/run``.

Identical crowd questions are answered once per run (an in-memory answer
cache is on by default; ``--no-cache`` disables it). ``--cache FILE``
persists the cache as JSONL across runs, Reprowd-style: a re-run of the
same script replays every answer and publishes 0 new HITs.

``--pipeline`` streams SELECTs through the pipelined executor: every
crowd question of a statement is planned up front, waves of answers flow
downstream as batches land, and TOP-K/LIMIT cancels still-pending
upstream HITs (the saving shows up in the crowd accounting line).

Robustness flags: ``--fault-plan FILE`` injects a declarative fault plan
(see :mod:`repro.faults`); ``--hedge`` speculatively re-issues in-flight
straggler assignments (first answer wins, the loser is cancelled and
refunded); ``--failure-policy`` picks what happens when a
task cannot complete (``fail``/``skip``/``degrade``); ``--checkpoint DIR``
snapshots platform + database state after every statement so a killed run
can continue with ``--resume DIR``. Exit codes: 0 ok, 1 run error, 2
configuration error, 3 retries exhausted on a crowd task.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import ConfigurationError, CrowdDMError, RetryExhaustedError
from repro.experiments.report import format_table
from repro.lang.executor import QueryResult
from repro.lang.interpreter import CrowdSQLSession, StatementResult
from repro.obs import NULL_TRACER, JsonlSink, MetricsRegistry, Tracer, report_from_file
from repro.obs.runtime import activate, deactivate
from repro.platform.batch import BatchConfig, check_seed
from repro.platform.platform import SimulatedPlatform
from repro.quality.truth import CATEGORICAL_METHODS
from repro.workers.pool import WorkerPool

DEMO_SCRIPT = """
CREATE TABLE films (title STRING NOT NULL, minutes INTEGER, score FLOAT,
                    PRIMARY KEY (title));
INSERT INTO films VALUES
    ('The Iron Giant', 86, 8.1), ('Alien Dawn', 122, 6.4),
    ('Paper Planes', 96, 7.2), ('Night Harvest', 141, 5.9),
    ('Sunny Side Up', 89, 7.8);
CREATE TABLE imports (listing STRING NOT NULL, PRIMARY KEY (listing));
INSERT INTO imports VALUES ('iron giant the'), ('dawn alien'), ('totally new film');
SELECT title, minutes FROM films WHERE minutes < 100 ORDER BY minutes;
SELECT COUNT(*), AVG(score) FROM films;
SELECT listing, title FROM imports CROWDJOIN films ON CROWDEQUAL(listing, title);
SELECT title FROM films CROWDORDER BY score LIMIT 3;
"""


def build_session(
    seed: int,
    redundancy: int,
    pool_size: int,
    batch_size: int = 32,
    max_parallel: int = 1,
    inference: str = "mv",
    trace_path: str | None = None,
    metrics_enabled: bool = False,
    failure_policy: str = "fail",
    fault_plan: str | None = None,
    cache_enabled: bool = True,
    cache_path: str | None = None,
    metrics_registry: MetricsRegistry | None = None,
    hedge_enabled: bool = False,
    pipeline: bool = False,
) -> CrowdSQLSession:
    """A session over a fresh simulated pool of reasonably diligent workers.

    An unwritable or empty *trace_path* raises
    :class:`~repro.errors.ConfigurationError` here, before any crowd work
    starts, so the CLI reports it as a clean configuration error. The same
    goes for an unreadable or malformed *fault_plan* file, and for an
    unreadable or unwritable *cache_path*.

    The CLI keeps an in-memory answer cache by default (identical crowd
    questions within a run are published once); *cache_path* additionally
    loads/spills it from/to a JSONL file, and ``cache_enabled=False``
    switches caching off entirely.

    *metrics_registry* lets the caller supply an existing (typically
    enabled) registry instead of a fresh one — ``serve-metrics`` shares
    one registry across its per-iteration sessions so scraped counters
    advance monotonically.

    *hedge_enabled* turns on speculative re-issue of in-flight straggler
    assignments (first answer wins, the losing copy is cancelled and
    refunded) — see :class:`repro.platform.batch.HedgeState`.

    *pipeline* streams SELECTs through the pipelined executor (crowd
    waves overlap across operators; TOP-K/LIMIT cancels pending HITs) —
    see :class:`repro.lang.streaming.StreamingExecutor`.
    """
    if trace_path is not None and not trace_path:
        raise ConfigurationError("trace path must be a non-empty file name")
    plan = None
    if fault_plan is not None:
        from repro.faults.plan import FaultPlan

        try:
            plan = FaultPlan.from_file(fault_plan)
        except OSError as exc:
            raise ConfigurationError(f"cannot read fault plan {fault_plan}: {exc}") from exc
    cache = None
    if cache_enabled or cache_path is not None:
        from pathlib import Path

        from repro.errors import CacheError
        from repro.platform.cache import AnswerCache

        if cache_path is not None and not cache_path:
            raise ConfigurationError("cache path must be a non-empty file name")
        cache = AnswerCache()
        if cache_path is not None:
            try:
                if Path(cache_path).exists():
                    cache.load(cache_path)
                else:
                    # Touch the spill file now so an unwritable path is a
                    # clean configuration error, not a crash after paid work.
                    cache.save(cache_path)
            except CacheError as exc:
                raise ConfigurationError(str(exc)) from exc
    pool = WorkerPool.heterogeneous(
        pool_size, accuracy_low=0.75, accuracy_high=0.97, seed=seed
    )
    tracer = Tracer(JsonlSink(trace_path)) if trace_path else NULL_TRACER
    if metrics_registry is not None:
        metrics = metrics_registry
    else:
        metrics = MetricsRegistry(enabled=metrics_enabled)
    platform = SimulatedPlatform(
        pool,
        seed=seed + 1,
        batch=BatchConfig(
            batch_size=batch_size,
            max_parallel=max_parallel,
            seed=seed + 2,
            failure_policy=failure_policy,
            hedge_enabled=hedge_enabled,
        ),
        tracer=tracer,
        metrics=metrics,
    )
    if cache is not None:
        platform.attach_cache(cache)
    if plan is not None:
        platform.attach_faults(plan)
    if tracer.enabled or metrics.enabled:
        activate(tracer, metrics)
    return CrowdSQLSession(
        platform=platform,
        redundancy=redundancy,
        inference=CATEGORICAL_METHODS[inference](),
        pipeline=pipeline,
    )


def render(result: QueryResult | StatementResult) -> str:
    """Render one statement result for terminal output."""
    if isinstance(result, StatementResult):
        if result.kind == "inserted":
            return f"-- {result.kind} {result.row_count} row(s) into {result.table}"
        return f"-- {result.kind} table {result.table}"
    lines = [format_table(result.rows, columns=list(result.columns))]
    stats = result.stats
    if stats.crowd_questions or stats.cells_filled:
        line = (
            f"-- crowd: {stats.crowd_questions} questions, "
            f"{stats.crowd_answers} answers, {stats.cells_filled} cells filled, "
            f"spend {stats.crowd_cost:.4f}"
        )
        if stats.tasks_cancelled:
            line += (
                f", {stats.tasks_cancelled} HITs cancelled "
                f"(saved {stats.cost_avoided:.4f})"
            )
        lines.append(line)
    lines.append(f"-- {len(result.rows)} row(s)")
    return "\n".join(lines)


def run_script(
    session: CrowdSQLSession,
    sql: str,
    out=None,
    checkpoint_dir: str | None = None,
    resume_dir: str | None = None,
) -> int:
    """Execute *sql*; print results; return a process exit code.

    With *checkpoint_dir*, the platform + database state is snapshotted
    after every statement; with *resume_dir*, a snapshot written that way
    is restored first and already-executed statements are skipped. Exit
    codes: 0 ok, 1 run error, 3 retries exhausted on a crowd task.
    """
    out = out if out is not None else sys.stdout  # resolve at call time
    skip = 0
    results = []
    try:
        if resume_dir is not None:
            skip = _restore_session(session, resume_dir)
            print(f"-- resumed from {resume_dir}: skipping {skip} statement(s)", file=out)
        on_statement = None
        if checkpoint_dir is not None:
            def on_statement(index: int, result) -> None:
                _checkpoint_session(session, checkpoint_dir, statements_done=index + 1)
        results = session.execute(sql, skip=skip, on_statement=on_statement)
    except RetryExhaustedError as exc:
        print(f"error: {exc}", file=out)
        return 3
    except CrowdDMError as exc:
        print(f"error: {exc}", file=out)
        return 1
    for result in results:
        print(render(result), file=out)
    if session.platform is not None:
        batch_line = session.platform.stats.batch_summary()
        if batch_line:
            print(f"-- batch runtime: {batch_line}", file=out)
        cache_line = session.platform.stats.cache_summary()
        if cache_line:
            print(f"-- answer cache: {cache_line}", file=out)
    return 0


def _checkpoint_session(
    session: CrowdSQLSession, directory: str, statements_done: int
) -> None:
    """Snapshot the session (platform state + database rows) to *directory*."""
    from pathlib import Path

    from repro.data.persistence import save_database
    from repro.recovery.checkpoint import Checkpoint

    Checkpoint.capture(
        session.platform,
        inference=session.inference,
        extra={"statements_done": statements_done},
    ).save(directory)
    save_database(session.database, Path(directory) / "db")


def _restore_session(session: CrowdSQLSession, directory: str) -> int:
    """Restore a CLI checkpoint; returns how many statements to skip."""
    from pathlib import Path

    from repro.data.persistence import load_database
    from repro.recovery.checkpoint import Checkpoint

    checkpoint = Checkpoint.load(directory)
    checkpoint.restore(session.platform, inference=session.inference)
    session.database = load_database(Path(directory) / "db")
    return int(checkpoint.extra.get("statements_done", 0))


def repl(session: CrowdSQLSession, stdin=None, out=None) -> int:
    """Line-oriented REPL: statements end with ';', EOF or \\q exits."""
    stdin = stdin if stdin is not None else sys.stdin
    out = out if out is not None else sys.stdout
    print("crowddm CrowdSQL — ';' ends a statement, \\q quits", file=out)
    buffer: list[str] = []
    for line in stdin:
        stripped = line.strip()
        if stripped in ("\\q", "\\quit", "exit"):
            break
        buffer.append(line)
        if stripped.endswith(";"):
            run_script(session, "".join(buffer), out=out)
            buffer = []
    if buffer and "".join(buffer).strip():
        run_script(session, "".join(buffer), out=out)
    return 0


def _serve_run_status(state: dict, iterations: int) -> dict:
    """The ``/run`` payload for serve-metrics (read from the server thread)."""
    payload: dict = {
        "iteration": state["iteration"],
        "iterations": iterations,
        "current_statement": None,
    }
    session = state["session"]
    if session is None or session.platform is None:
        return payload
    stats = session.platform.stats
    hits, misses = stats.cache_hits, stats.cache_misses
    requests = hits + misses
    scheduler = session.platform.scheduler
    payload.update(
        current_statement=session.current_statement,
        budget={"limit": None, "spent": stats.cost_spent, "remaining": None},
        answers_collected=stats.answers_collected,
        hits_published=stats.tasks_published,
        batches_dispatched=stats.batches_dispatched,
        simulated_clock=scheduler.simulated_clock,
        cache={
            "enabled": session.platform.cache is not None,
            "hits": hits,
            "misses": misses,
            "hit_ratio": (hits / requests) if requests else 0.0,
            "answers_reused": stats.cache_answers_reused,
        },
        breakers=[
            {"name": b.name, "tripped": b.tripped} for b in scheduler.breakers
        ],
    )
    return payload


def _run_serve_metrics(args) -> int:
    """``python -m repro serve-metrics``: script loop + live /metrics server.

    One enabled registry is shared by every per-iteration session, so the
    counters a scraper sees only ever move forward. The server starts
    answering once the first iteration's script has run, so the first
    scrape already holds that iteration's series.
    """
    import time

    from repro.obs.server import MetricsServer

    sql = DEMO_SCRIPT
    if args.script is not None:
        try:
            with open(args.script, encoding="utf-8") as handle:
                sql = handle.read()
        except OSError as exc:
            print(f"error: cannot read {args.script}: {exc}", file=sys.stderr)
            return 1
    registry = MetricsRegistry(enabled=True)
    state: dict = {"session": None, "iteration": 0}
    try:
        server = MetricsServer(
            registry,
            run_status=lambda: _serve_run_status(state, args.iterations),
            port=args.port,
        )
    except CrowdDMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = 0
    try:
        for iteration in range(args.iterations):
            state["iteration"] = iteration + 1
            try:
                session = build_session(
                    args.seed + iteration,
                    args.redundancy,
                    args.pool,
                    batch_size=args.batch_size,
                    max_parallel=args.max_parallel,
                    inference=args.inference,
                    metrics_registry=registry,
                )
            except CrowdDMError as exc:
                print(f"error: {exc}", file=sys.stderr)
                code = 2
                break
            state["session"] = session
            code = run_script(session, sql)
            if code != 0:
                break
            if not server.running:
                try:
                    server.start()
                except CrowdDMError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    code = 2
                    break
                print(f"-- serving {server.url}/metrics /healthz /run", flush=True)
        if args.hold > 0 and server.running:
            time.sleep(args.hold)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        deactivate()
    return code


def _load_tenant_spec(path: str | None):
    """Parse a ``serve`` tenant-spec file into (specs, sessions, scripts, budget).

    The file is JSON: either a bare list of tenant objects or
    ``{"platform_budget": ..., "tenants": [...]}``. Each tenant object:
    ``{"name": ..., "budget": ..., "weight": ..., "sessions": ...,
    "script": ...}`` — everything but ``name`` optional. With no file at
    all, two demo tenants (weights 2 and 1) share the platform.
    """
    import json

    from repro.service import TenantSpec

    if path is None:
        data: dict = {"tenants": [
            {"name": "alice", "weight": 2.0},
            {"name": "bob", "weight": 1.0},
        ]}
    else:
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read tenant spec {path}: {exc}") from exc
        if isinstance(data, list):
            data = {"tenants": data}
    entries = data.get("tenants")
    if not isinstance(entries, list) or not entries:
        raise ConfigurationError("tenant spec must define a non-empty 'tenants' list")
    specs, sessions, scripts = [], {}, {}
    for entry in entries:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigurationError("each tenant needs at least a 'name'")
        name = str(entry["name"])
        spec = TenantSpec(
            name=name,
            budget=float(entry.get("budget", float("inf"))),
            weight=float(entry.get("weight", 1.0)),
        )
        specs.append(spec)
        sessions[name] = int(entry.get("sessions", 1))
        if sessions[name] < 1:
            raise ConfigurationError(f"tenant {name!r}: sessions must be >= 1")
        script = entry.get("script")
        if script is not None:
            try:
                with open(script, encoding="utf-8") as handle:
                    scripts[name] = handle.read()
            except OSError as exc:
                raise ConfigurationError(
                    f"tenant {name!r}: cannot read script {script}: {exc}"
                ) from exc
    budget = data.get("platform_budget")
    return specs, sessions, scripts, (float(budget) if budget is not None else None)


def _run_serve(args) -> int:
    """``python -m repro serve``: N tenants share one platform, live-scraped.

    Builds one shared platform + worker pool, registers the tenants from
    the spec file, and drives every tenant session concurrently on the
    asyncio loop (session threads multiplex through the service's
    bounded pool; all crowd work serializes through the fair-share
    dispatcher). ``/metrics`` and ``/run`` serve live per-tenant state
    throughout.
    """
    import asyncio
    import math
    import time

    from repro.data.database import Database
    from repro.obs.server import MetricsServer
    from repro.service import CrowdService
    from repro.workers.pool import WorkerPool

    try:
        specs, sessions_per, scripts, platform_budget = _load_tenant_spec(args.tenants)
    except CrowdDMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    registry = MetricsRegistry(enabled=True)
    pool = WorkerPool.heterogeneous(
        args.pool, accuracy_low=0.75, accuracy_high=0.97, seed=args.seed
    )
    platform = SimulatedPlatform(
        pool,
        budget=platform_budget if platform_budget is not None else math.inf,
        seed=args.seed + 1,
        batch=BatchConfig(
            batch_size=args.batch_size,
            max_parallel=args.max_parallel,
            seed=args.seed + 2,
        ),
        metrics=registry,
    )
    if not args.no_cache:
        from repro.platform.cache import AnswerCache

        # One shared cache: a question any tenant already paid for replays
        # free for everyone (hits are never charged to anyone's ledger).
        platform.attach_cache(AnswerCache())
    service = CrowdService(platform, quantum_tasks=args.quantum)
    for spec in specs:
        service.register(spec)
    try:
        server = MetricsServer(
            registry, run_status=service.run_status, port=args.port
        ).start()
    except CrowdDMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"-- serving {server.url}/metrics /healthz /run", flush=True)
    code = 0

    async def tenant_session(name: str) -> "tuple[bool, str] | None":
        from repro.errors import AdmissionRejectedError, BudgetExceededError

        sql = scripts.get(name, DEMO_SCRIPT)
        try:
            for _ in range(args.rounds):
                # Fresh catalog per round (the script CREATEs its tables);
                # the platform, cache, and tenant ledger persist across
                # rounds, so repeated questions replay from the cache.
                session = service.session(
                    name,
                    database=Database(),
                    redundancy=args.redundancy,
                    inference=CATEGORICAL_METHODS[args.inference](),
                    pipeline=args.pipeline,
                )
                await service.aexecute(session, sql)
        except (BudgetExceededError, AdmissionRejectedError) as exc:
            # Quota enforcement working as designed, not a server failure.
            return (False, f"{type(exc).__name__}: {exc}")
        except CrowdDMError as exc:
            return (True, f"{type(exc).__name__}: {exc}")
        return None

    async def drive() -> int:
        jobs = [
            tenant_session(spec.name)
            for spec in specs
            for _ in range(sessions_per[spec.name])
        ]
        failures = 0
        for spec_name, outcome in zip(
            [s.name for s in specs for _ in range(sessions_per[s.name])],
            await asyncio.gather(*jobs),
        ):
            if outcome is not None:
                fatal, message = outcome
                print(f"-- tenant {spec_name}: {message}")
                failures += 1 if fatal else 0
        return failures

    try:
        with service:
            failures = asyncio.run(drive())
            for name, view in service.run_status()["tenants"].items():
                budget = view["budget"]
                budget_text = f"{budget:.4f}" if budget is not None else "inf"
                print(
                    f"-- tenant {name}: spent {view['spent']:.4f} of {budget_text}, "
                    f"{view['tasks_dispatched']} tasks over "
                    f"{view['units_completed']} unit(s), "
                    f"{view['units_rejected']} rejected, "
                    f"weight {view['weight']:g}"
                )
            if failures:
                code = 1
            if args.hold > 0:
                time.sleep(args.hold)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        deactivate()
    return code


def _run_chaos_command(args) -> int:
    """``python -m repro chaos``: seeded chaos sweep + optional resume check."""
    import tempfile

    from repro.faults.chaos import run_chaos, verify_kill_resume

    seeds = range(args.seed, args.seed + args.seeds)
    failed = 0
    for seed in seeds:
        try:
            report = run_chaos(seed, intensity=args.intensity, mitigation=args.mitigation)
        except Exception as exc:  # survival contract: any escape is a failure
            print(f"seed {seed}: FAILED — {type(exc).__name__}: {exc}")
            failed += 1
            continue
        print(report.summary())
        if args.mitigation != "none":
            # Same seed, same plan, mitigation off: attribute the deltas.
            try:
                baseline = run_chaos(seed, intensity=args.intensity)
            except Exception as exc:
                print(f"seed {seed}: baseline FAILED — {type(exc).__name__}: {exc}")
                failed += 1
                continue
            speedup = baseline.makespan / report.makespan if report.makespan else 1.0
            cost_ratio = report.cost / baseline.cost if baseline.cost else 1.0
            print(
                f"seed {seed}: {args.mitigation} vs none — makespan "
                f"{report.makespan:.0f}s vs {baseline.makespan:.0f}s "
                f"({speedup:.2f}x), cost {report.cost:.4f} vs "
                f"{baseline.cost:.4f} ({cost_ratio:.2f}x), "
                f"{report.hedges} hedge(s)"
            )
        if args.check_resume:
            with tempfile.TemporaryDirectory() as tmp:
                identical = verify_kill_resume(
                    seed, tmp, intensity=args.intensity, mitigation=args.mitigation
                )
            status = "bit-identical" if identical else "DIVERGED"
            print(f"seed {seed}: kill-and-resume {status}")
            if not identical:
                failed += 1
    if failed:
        print(f"chaos: {failed} of {len(seeds)} seed(s) failed")
        return 1
    print(f"chaos: all {len(seeds)} seed(s) survived")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="CrowdSQL on a simulated crowd"
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--redundancy", type=int, default=5, help="votes per crowd question")
    parser.add_argument("--pool", type=int, default=25, help="simulated pool size")
    parser.add_argument(
        "--batch-size", type=int, default=32, help="tasks per dispatch batch"
    )
    parser.add_argument(
        "--max-parallel",
        type=int,
        default=1,
        help="simulated-clock assignment lanes (1 = sequential)",
    )
    parser.add_argument(
        "--inference",
        choices=sorted(CATEGORICAL_METHODS),
        default="mv",
        help="truth-inference method for crowd votes",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL span trace of the run to FILE",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry after the run",
    )
    parser.add_argument(
        "--profile",
        metavar="FILE",
        default=None,
        help="write a per-statement query profile to FILE (JSON; render "
        "with the profile-report command)",
    )
    parser.add_argument(
        "--hedge",
        action="store_true",
        help="speculatively re-issue in-flight straggler assignments "
        "(first answer wins; the losing copy is cancelled and refunded)",
    )
    parser.add_argument(
        "--pipeline",
        action="store_true",
        help="stream SELECTs through the pipelined executor: crowd waves "
        "overlap across operators and TOP-K/LIMIT cancels pending HITs",
    )
    parser.add_argument(
        "--failure-policy",
        choices=("fail", "skip", "degrade"),
        default="fail",
        help="what to do when a crowd task cannot complete",
    )
    parser.add_argument(
        "--fault-plan",
        metavar="FILE",
        default=None,
        help="inject faults from a JSON fault plan (see repro.faults)",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache",
        metavar="FILE",
        default=None,
        help="load/spill the answer cache from/to FILE (JSONL) so repeated "
        "runs replay answers instead of re-publishing HITs",
    )
    cache_group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable answer reuse (every crowd question is published)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help="snapshot platform + database state after every statement",
    )
    parser.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="restore a --checkpoint snapshot and continue the script",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="execute a .sql script")
    run_parser.add_argument("script", help="path to the CrowdSQL file")
    commands.add_parser("repl", help="interactive session")
    commands.add_parser("demo", help="run the built-in demo script")
    chaos_parser = commands.add_parser(
        "chaos", help="run the chaos harness over seeded random fault plans"
    )
    chaos_parser.add_argument(
        "--seeds", type=int, default=3, help="how many consecutive seeds to run"
    )
    chaos_parser.add_argument(
        "--intensity", type=float, default=1.0, help="fault-plan intensity multiplier"
    )
    chaos_parser.add_argument(
        "--check-resume",
        action="store_true",
        help="also verify kill-and-resume bit-identity for each seed",
    )
    chaos_parser.add_argument(
        "--mitigation",
        choices=("none", "hedge"),
        default="none",
        help="straggler mitigation to run each seed under; 'hedge' also "
        "runs the unmitigated baseline and prints makespan/cost deltas",
    )
    report_parser = commands.add_parser(
        "trace-report", help="summarize a JSONL trace written with --trace"
    )
    report_parser.add_argument("trace_file", help="path to the trace file")
    serve_parser = commands.add_parser(
        "serve-metrics",
        help="run a script in a loop while serving /metrics, /healthz, /run",
    )
    serve_parser.add_argument(
        "script",
        nargs="?",
        default=None,
        help="CrowdSQL file to loop (the built-in demo when omitted)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=9109,
        help="port to bind on 127.0.0.1 (0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--iterations", type=int, default=5, help="how many times to run the script"
    )
    serve_parser.add_argument(
        "--hold",
        type=float,
        default=0.0,
        help="keep serving this many seconds after the last iteration",
    )
    serve_svc_parser = commands.add_parser(
        "serve",
        help="run N tenants concurrently against one shared platform "
        "while serving /metrics, /healthz, /run (tenant view)",
    )
    serve_svc_parser.add_argument(
        "tenants",
        nargs="?",
        default=None,
        help="tenant spec JSON ({'tenants': [{'name', 'budget', 'weight', "
        "'sessions', 'script'}, ...]}); two demo tenants when omitted",
    )
    serve_svc_parser.add_argument(
        "--port",
        type=int,
        default=9110,
        help="port to bind on 127.0.0.1 (0 picks an ephemeral port)",
    )
    serve_svc_parser.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="how many times each tenant session runs its script",
    )
    serve_svc_parser.add_argument(
        "--quantum",
        type=int,
        default=8,
        help="deficit-round-robin quantum (assignment credit per turn)",
    )
    serve_svc_parser.add_argument(
        "--hold",
        type=float,
        default=0.0,
        help="keep serving this many seconds after the last session",
    )
    profile_parser = commands.add_parser(
        "profile-report", help="summarize a profile written with --profile"
    )
    profile_parser.add_argument("profile_file", help="path to the profile file")

    args = parser.parse_args(argv)
    try:
        check_seed(args.seed, optional=False)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "trace-report":
        try:
            print(report_from_file(args.trace_file))
        except CrowdDMError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.command == "profile-report":
        from repro.obs.profiler import profile_report

        try:
            print(profile_report(args.profile_file))
        except CrowdDMError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.command == "serve-metrics":
        return _run_serve_metrics(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "chaos":
        return _run_chaos_command(args)

    try:
        session = build_session(
            args.seed,
            args.redundancy,
            args.pool,
            batch_size=args.batch_size,
            max_parallel=args.max_parallel,
            inference=args.inference,
            trace_path=args.trace,
            metrics_enabled=args.metrics or args.profile is not None,
            failure_policy=args.failure_policy,
            fault_plan=args.fault_plan,
            cache_enabled=not args.no_cache,
            cache_path=args.cache,
            hedge_enabled=args.hedge,
            pipeline=args.pipeline,
        )
    except CrowdDMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    profiler = None
    if args.profile is not None:
        from repro.obs.profiler import QueryProfiler

        profiler = QueryProfiler(
            session.platform.metrics, platform=session.platform
        )
        session.profiler = profiler

    tracer = session.platform.tracer
    metrics = session.platform.metrics
    code = 2
    try:
        with tracer.span("run", command=args.command, seed=args.seed):
            if args.command == "run":
                try:
                    with open(args.script, encoding="utf-8") as handle:
                        sql = handle.read()
                except OSError as exc:
                    print(f"error: cannot read {args.script}: {exc}", file=sys.stderr)
                    code = 1
                else:
                    code = run_script(
                        session,
                        sql,
                        checkpoint_dir=args.checkpoint,
                        resume_dir=args.resume,
                    )
            elif args.command == "repl":
                code = repl(session)
            elif args.command == "demo":
                code = run_script(
                    session,
                    DEMO_SCRIPT,
                    checkpoint_dir=args.checkpoint,
                    resume_dir=args.resume,
                )
    finally:
        if args.cache and session.platform.cache is not None:
            from repro.errors import CacheError

            try:
                session.platform.cache.save(args.cache)
            except CacheError as exc:
                print(f"error: {exc}", file=sys.stderr)
                code = 1
        if profiler is not None:
            try:
                profiler.save(args.profile)
            except CrowdDMError as exc:
                print(f"error: {exc}", file=sys.stderr)
                code = 1
        tracer.close()
        deactivate(tracer, metrics)
    if args.metrics:
        print(metrics.report())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

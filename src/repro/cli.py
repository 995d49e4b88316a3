"""Command-line interface: run CrowdSQL against a simulated crowd.

Usage::

    python -m repro [global flags] run script.sql
    python -m repro [global flags] demo
    python -m repro [global flags] repl
    python -m repro [global flags] serve-metrics [script.sql] [--port 9109]
                                                 [--iterations 5] [--hold 0]
    python -m repro [global flags] serve [tenants.json] [--port 9110]
                                         [--rounds 2] [--quantum 8] [--hold 0]
    python -m repro [--seed 7] chaos [--seeds 3] [--intensity 1.0]
                                     [--check-resume] [--mitigation hedge]
    python -m repro trace-report run.jsonl

    global flags: [--seed 7] [--redundancy 3] [--pool 25] [--batch-size 32]
                  [--max-parallel 8] [--inference ds] [--trace run.jsonl]
                  [--metrics] [--hedge] [--pipeline]
                  [--failure-policy degrade] [--fault-plan plan.json]
                  [--cache answers.jsonl | --no-cache]
                  [--checkpoint DIR] [--resume DIR]

Every global flag applies to every command that builds a stack: ``run``,
``demo``, ``repl``, each ``serve-metrics`` iteration and ``serve`` run on
a :class:`~repro.core.engine.CrowdEngine` built from the one
:class:`~repro.core.config.EngineConfig` the flags describe (the CLI's
defaults: workers of accuracy 0.75-0.97, 5 votes, the answer cache on).
A flag a command cannot honour exits 2 with an error naming the flag:

* ``repl``: ``--checkpoint``, ``--resume``;
* ``serve-metrics`` and ``serve``: ``--trace``, ``--checkpoint``,
  ``--resume``;
* ``chaos``: every global flag but ``--seed``;
* ``trace-report``: every global flag.

Statements are ';'-separated. Queries print aligned tables plus crowd
accounting. Crowd predicates work out of the box where defaults exist
(CROWDEQUAL uses normalized token equality; CROWDORDER BY works on numeric
columns); CROWDFILTER and CNULL resolution need programmatic oracles, so
the CLI reports a clear error for them instead of guessing.

``--trace FILE`` writes a JSONL span trace of the whole run (statements,
operators, batches, event timeline, EM iterations); ``trace-report``
renders it as a per-statement table with each statement's operators,
per-operator time/cost breakdowns, retry hotspots, and slowest spans.
``--metrics`` prints the metrics registry after the run.
``serve-metrics`` runs a script in a loop while a live-ops HTTP server
exposes ``/metrics`` (Prometheus text exposition), ``/healthz``, and
``/run`` (JSON run status) — each iteration's engine keeps its own
registry, whose series are added into the served one when the iteration
ends, so served counters only move forward. ``serve`` runs the
multi-tenant service: concurrent tenant sessions (budgets, fair-share
weights, per-tenant scripts from a JSON spec) share the engine's platform
and worker pool, with per-tenant labeled metrics and a tenant view on
``/run``.

Identical crowd questions are answered once per run (an in-memory answer
cache is on by default; ``--no-cache`` disables it). ``--cache FILE``
persists the cache as JSONL across runs, Reprowd-style: a re-run of the
same script replays every answer and publishes 0 new HITs.

``--pipeline`` streams a LIMIT over a CROWDFILTER: once the LIMIT has
its rows, the HITs it no longer needs are cancelled before they are
published (the saving shows up in the crowd accounting line). Every
other statement runs as it does without the flag.

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
from dataclasses import replace
from typing import Sequence

from repro.core.config import EngineConfig
from repro.core.engine import CrowdEngine
from repro.errors import ConfigurationError, CrowdDMError, RetryExhaustedError
from repro.experiments.report import format_table
from repro.lang.executor import QueryResult
from repro.lang.interpreter import StatementResult
from repro.obs import MetricsRegistry, report_from_file
from repro.quality.truth import CATEGORICAL_METHODS

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
    engine: CrowdEngine,
    sql: str,
    out=None,
    checkpoint_dir: str | None = None,
    resume_dir: str | None = None,
) -> int:
    """Execute *sql* on *engine*'s session; print results; return an exit code.

    With *checkpoint_dir*, the engine is checkpointed after every
    statement; with *resume_dir*, a checkpoint written that way is
    restored first and already-executed statements are skipped. Exit
    codes: 0 ok, 1 run error, 3 retries exhausted on a crowd task.
    """
    out = out if out is not None else sys.stdout  # resolve at call time
    skip = 0
    results = []
    try:
        if resume_dir is not None:
            skip = int(engine.restore_checkpoint(resume_dir).get("statements_done", 0))
            print(f"-- resumed from {resume_dir}: skipping {skip} statement(s)", file=out)
        on_statement = None
        if checkpoint_dir is not None:
            def on_statement(index: int, result) -> None:
                engine.checkpoint(checkpoint_dir, extra={"statements_done": index + 1})
        results = engine.session.execute(sql, skip=skip, on_statement=on_statement)
    except RetryExhaustedError as exc:
        print(f"error: {exc}", file=out)
        return 3
    except CrowdDMError as exc:
        print(f"error: {exc}", file=out)
        return 1
    for result in results:
        print(render(result), file=out)
    batch_line = engine.stats.batch_summary()
    if batch_line:
        print(f"-- batch runtime: {batch_line}", file=out)
    cache_line = engine.stats.cache_summary()
    if cache_line:
        print(f"-- answer cache: {cache_line}", file=out)
    return 0


def repl(engine: CrowdEngine, stdin=None, out=None) -> int:
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
            run_script(engine, "".join(buffer), out=out)
            buffer = []
    if buffer and "".join(buffer).strip():
        run_script(engine, "".join(buffer), out=out)
    return 0


def _fail(error: object, code: int | None = None) -> int | None:
    """Report *error* on stderr; returns *code* so callers can pass it on."""
    print(f"error: {error}", file=sys.stderr)
    return code


def _close(engine: CrowdEngine) -> int:
    """Close *engine*: 0, or 1 after reporting the step that failed."""
    try:
        engine.close()
    except CrowdDMError as exc:
        return _fail(exc, 1)
    return 0


def _read_script(path: str | None) -> str | None:
    """The CrowdSQL at *path* (the built-in demo when None); None if unreadable."""
    if path is None:
        return DEMO_SCRIPT
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        return _fail(f"cannot read {path}: {exc}")


def _run_engine_command(args, config: EngineConfig) -> int:
    """``run``, ``demo`` and ``repl``: one engine, closed when the command ends."""
    sql = _read_script(args.script if args.command == "run" else None)
    if sql is None:
        return 1
    try:
        engine = CrowdEngine(config)
    except CrowdDMError as exc:
        return _fail(exc, 2)
    code = 2
    try:
        with engine.tracer.span("run", command=args.command, seed=config.seed):
            if args.command == "repl":
                code = repl(engine)
            else:
                code = run_script(
                    engine, sql, checkpoint_dir=args.checkpoint, resume_dir=args.resume
                )
    finally:
        code = _close(engine) or code
    if args.metrics:
        print(engine.metrics_report())
    return code


def _run_serve_metrics(args, config: EngineConfig) -> int:
    """``python -m repro serve-metrics``: script loop + live /metrics server.

    Iteration *i* runs on a fresh engine seeded ``seed + i``, with its own
    enabled registry, so its summary lines are its own. When an iteration's
    engine closes, its series are added into the registry ``/metrics``
    renders, so the counters a scraper sees only ever move forward; ``/run``
    reads the running engine live. The server starts answering once the
    first iteration's script has run, so the first scrape already holds
    that iteration's series.
    """
    import time

    from repro.obs.server import MetricsServer

    sql = _read_script(args.script)
    if sql is None:
        return 1
    registry = MetricsRegistry(enabled=True)
    state: dict = {"engine": None, "iteration": 0}

    def run_status() -> dict:
        engine = state["engine"]
        status = {"current_statement": None} if engine is None else engine.run_status()
        return {**status, "iteration": state["iteration"], "iterations": args.iterations}

    try:
        server = MetricsServer(registry, run_status=run_status, port=args.port)
    except CrowdDMError as exc:
        return _fail(exc, 2)
    code = 0
    try:
        for iteration in range(args.iterations):
            state["iteration"] = iteration + 1
            try:
                engine = CrowdEngine(
                    replace(config, seed=config.seed + iteration, metrics_enabled=True)
                )
            except CrowdDMError as exc:
                _fail(exc)
                code = 2
                break
            state["engine"] = engine
            try:
                code = run_script(engine, sql)
            finally:
                code = _close(engine) or code
                registry.add(engine.metrics)
            if code != 0:
                break
            if not server.running:
                try:
                    server.start()
                except CrowdDMError as exc:
                    _fail(exc)
                    code = 2
                    break
                print(f"-- serving {server.url}/metrics /healthz /run", flush=True)
        if args.hold > 0 and server.running:
            time.sleep(args.hold)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    if args.metrics:
        print(registry.report())
    return code


def _spec_number(value: object, kind: type, what: str):
    """*value* as a *kind* (float or int), or a ConfigurationError naming *what*."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{what} must be {noun}, got {value!r}") from None


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
            budget=_spec_number(
                entry.get("budget", float("inf")), float, f"tenant {name!r}: budget"
            ),
            weight=_spec_number(entry.get("weight", 1.0), float, f"tenant {name!r}: weight"),
        )
        specs.append(spec)
        sessions[name] = _spec_number(
            entry.get("sessions", 1), int, f"tenant {name!r}: sessions"
        )
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
    if budget is not None:
        budget = _spec_number(budget, float, "platform_budget")
    return specs, sessions, scripts, budget


def _run_serve(args, config: EngineConfig) -> int:
    """``python -m repro serve``: N tenants share one engine's platform.

    Registers the tenants from the spec file on a service over the
    engine's platform (the spec's ``platform_budget`` is the engine's
    budget) and drives every tenant session concurrently on the asyncio
    loop (session threads multiplex through the service's bounded pool;
    all crowd work serializes through the fair-share dispatcher). The
    engine's answer cache is shared: a question any tenant already paid
    for replays free for everyone (hits are never charged to a ledger).
    ``/metrics`` and ``/run`` serve live per-tenant state throughout.
    """
    import asyncio
    import time

    from repro.data.database import Database
    from repro.obs.server import MetricsServer
    from repro.service import CrowdService

    try:
        specs, sessions_per, scripts, platform_budget = _load_tenant_spec(args.tenants)
        if platform_budget is not None:
            config = replace(config, budget=platform_budget)
        # /metrics serves the engine's registry, so it always records.
        engine = CrowdEngine(replace(config, metrics_enabled=True))
    except CrowdDMError as exc:
        return _fail(exc, 2)

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
                    redundancy=config.redundancy,
                    inference=engine.make_inference(),
                    pipeline=config.pipeline,
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

    code = 0
    server = None
    try:
        service = CrowdService(engine.platform, quantum_tasks=args.quantum)
        for spec in specs:
            service.register(spec)
        server = MetricsServer(
            engine.metrics, run_status=service.run_status, port=args.port
        ).start()
        print(f"-- serving {server.url}/metrics /healthz /run", flush=True)
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
    except CrowdDMError as exc:
        _fail(exc)
        code = 2
    except KeyboardInterrupt:
        pass
    finally:
        if server is not None:
            server.stop()
        code = _close(engine) or code
    if args.metrics:
        print(engine.metrics_report())
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


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser: global flags, then one subcommand."""
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
        "--hedge",
        action="store_true",
        help="speculatively re-issue in-flight straggler assignments "
        "(first answer wins; the losing copy is cancelled and refunded)",
    )
    parser.add_argument(
        "--pipeline",
        action="store_true",
        help="stream a LIMIT over a CROWDFILTER, cancelling the HITs the "
        "LIMIT no longer needs; other statements run unchanged",
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
    return parser


def engine_config(args: argparse.Namespace) -> EngineConfig:
    """The one :class:`EngineConfig` the global flags describe."""
    return EngineConfig(
        seed=args.seed,
        redundancy=args.redundancy,
        pool_size=args.pool,
        pool_accuracy_range=(0.75, 0.97),
        batch_size=args.batch_size,
        max_parallel=args.max_parallel,
        inference=args.inference,
        trace_path=args.trace,
        metrics_enabled=args.metrics,
        hedge_enabled=args.hedge,
        pipeline=args.pipeline,
        failure_policy=args.failure_policy,
        fault_plan=args.fault_plan,
        cache_enabled=not args.no_cache,
        cache_path=args.cache,
    )


_SESSION_ONLY = ("trace", "checkpoint", "resume")

# For each command that cannot honour every global flag: which flags it
# rejects (by argparse dest) and why. See the module docstring.
_REJECTED_FLAGS = {
    "repl": (
        lambda dest: dest in ("checkpoint", "resume"),
        "a checkpoint counts the statements of one script",
    ),
    "serve-metrics": (
        lambda dest: dest in _SESSION_ONLY,
        "every iteration runs on a fresh engine",
    ),
    "serve": (
        lambda dest: dest in _SESSION_ONLY,
        "tenant sessions run on concurrent threads",
    ),
    "chaos": (
        lambda dest: dest != "seed",
        "it builds its own fault worlds; only --seed applies",
    ),
    "trace-report": (lambda dest: True, "it only reads a trace file"),
}


def _rejected_flag(parser: argparse.ArgumentParser, args: argparse.Namespace) -> str | None:
    """An error naming the first global flag set that the command cannot honour."""
    if args.command not in _REJECTED_FLAGS:
        return None
    rejects, reason = _REJECTED_FLAGS[args.command]
    for action in parser._actions:  # global flags only; --help has no default
        if (
            action.option_strings
            and action.default is not argparse.SUPPRESS
            and rejects(action.dest)
            and getattr(args, action.dest) != action.default
        ):
            return f"{action.option_strings[0]} does not apply to {args.command}: {reason}"
    return None


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    error = _rejected_flag(parser, args)
    if error is not None:
        return _fail(error, 2)

    if args.command == "trace-report":
        try:
            print(report_from_file(args.trace_file))
        except CrowdDMError as exc:
            return _fail(exc, 1)
        return 0

    try:
        config = engine_config(args)
    except CrowdDMError as exc:
        return _fail(exc, 2)
    if args.command == "chaos":
        return _run_chaos_command(args)
    if args.command == "serve-metrics":
        return _run_serve_metrics(args, config)
    if args.command == "serve":
        return _run_serve(args, config)
    return _run_engine_command(args, config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Unit tests for the command-line interface."""

import io
import itertools
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import (
    DEMO_SCRIPT,
    build_parser,
    engine_config,
    main,
    render,
    repl,
    run_script,
)
from repro.core.engine import CrowdEngine
from repro.lang.interpreter import StatementResult
from repro.platform import task as task_module

from conftest import abandoning_engine

DATA = Path(__file__).parent / "data"


def build_session(seed, redundancy, pool_size, **overrides):
    """An engine built from the CLI's defaults, with these knobs changed."""
    config = engine_config(build_parser().parse_args(["demo"]))
    return CrowdEngine(
        replace(config, seed=seed, redundancy=redundancy, pool_size=pool_size, **overrides)
    )


@pytest.fixture
def session():
    return build_session(seed=1, redundancy=5, pool_size=15)


class TestRender:
    def test_statement_result(self):
        text = render(StatementResult(kind="created", table="t"))
        assert text == "-- created table t"

    def test_insert_counts_rows(self):
        text = render(StatementResult(kind="inserted", table="t", row_count=3))
        assert "3 row(s)" in text

    def test_query_result_table(self, session):
        session.sql("CREATE TABLE t (a STRING); INSERT INTO t VALUES ('x')")
        result = session.query("SELECT a FROM t")
        text = render(result)
        assert "a" in text and "x" in text and "1 row(s)" in text

    def test_crowd_accounting_line(self, session):
        session.sql(
            "CREATE TABLE t (a STRING); INSERT INTO t VALUES ('x'), ('x y')"
        )
        result = session.query(
            "SELECT a FROM t CROWDORDER BY a LIMIT 1"
        ) if False else None
        # CROWDORDER over strings needs an oracle; use CROWDEQUAL instead.
        session.sql(
            "CREATE TABLE u (b STRING); INSERT INTO u VALUES ('x')"
        )
        result = session.query(
            "SELECT a, b FROM t CROWDJOIN u ON CROWDEQUAL(a, b)"
        )
        text = render(result)
        assert "-- crowd:" in text


class TestRunScript:
    def test_happy_path(self, session):
        out = io.StringIO()
        code = run_script(
            session,
            "CREATE TABLE t (a STRING); INSERT INTO t VALUES ('v'); SELECT * FROM t",
            out=out,
        )
        assert code == 0
        assert "created table t" in out.getvalue()
        assert "v" in out.getvalue()

    def test_parse_error_reported(self, session):
        out = io.StringIO()
        code = run_script(session, "SELEKT * FROM t", out=out)
        assert code == 1
        assert "error:" in out.getvalue()

    def test_unknown_table_reported(self, session):
        out = io.StringIO()
        code = run_script(session, "SELECT * FROM ghosts", out=out)
        assert code == 1
        assert "ghosts" in out.getvalue()


class TestRepl:
    def test_executes_statements_and_quits(self, session):
        stdin = io.StringIO(
            "CREATE TABLE t (a STRING);\nINSERT INTO t VALUES ('q');\n"
            "SELECT COUNT(*) FROM t;\n\\q\n"
        )
        out = io.StringIO()
        code = repl(session, stdin=stdin, out=out)
        assert code == 0
        assert "count" in out.getvalue()

    def test_multiline_statement(self, session):
        stdin = io.StringIO("CREATE TABLE t\n(a STRING);\nexit\n")
        out = io.StringIO()
        repl(session, stdin=stdin, out=out)
        assert "t" in session.database

    def test_trailing_statement_without_semicolon(self, session):
        stdin = io.StringIO("CREATE TABLE t (a STRING)")
        out = io.StringIO()
        repl(session, stdin=stdin, out=out)
        assert "t" in session.database

    def test_piped_bad_number_is_an_error_line(self, monkeypatch, capsys):
        """'SELECT ²;' ('²' is a digit int() rejects) is reported as
        'SELECT @;' is, and the REPL goes on to the next statement."""
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("SELECT ²;\nSELECT @;\nCREATE TABLE t (a STRING);\n")
        )
        assert main(["repl"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "error: invalid number '²' at line 1, column 8",
            "error: unexpected character '@' at line 1, column 8",
            "-- created table t",
        ]


class TestMain:
    def test_demo_exits_zero(self, capsys):
        assert main(["--seed", "3", "demo"]) == 0
        captured = capsys.readouterr()
        assert "The Iron Giant" in captured.out

    @pytest.mark.parametrize("inference", ["mv", "ds"])
    def test_demo_prints_its_recorded_output(self, capsys, inference):
        """``--seed 3 --inference M demo`` prints tests/data/demo-seed3-M.txt.

        Every crowd question is decided from its own votes, so Dawid-Skene
        prints what majority vote prints. Estimating worker quality across a
        run's questions would change the CROWDJOIN's 2 rows; a change that
        does so must re-record these files and say why.
        """
        assert main(["--seed", "3", "--inference", inference, "demo"]) == 0
        recorded = (DATA / f"demo-seed3-{inference}.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == recorded

    def test_run_script_file(self, tmp_path, capsys):
        script = tmp_path / "s.sql"
        script.write_text("CREATE TABLE t (a STRING); SELECT COUNT(*) FROM t;")
        assert main(["run", str(script)]) == 0
        assert "count" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/path.sql"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_demo_is_deterministic(self, capsys):
        main(["--seed", "9", "demo"])
        first = capsys.readouterr().out
        main(["--seed", "9", "demo"])
        second = capsys.readouterr().out
        assert first == second

    def test_demo_script_has_crowd_features(self):
        assert "CROWDJOIN" in DEMO_SCRIPT
        assert "CROWDORDER" in DEMO_SCRIPT


class TestBatchFlags:
    def test_build_session_attaches_scheduler(self):
        session = build_session(seed=1, redundancy=3, pool_size=10, max_parallel=4)
        assert session.platform.scheduler is not None
        assert session.platform.scheduler.parallel

    def test_batch_summary_printed_after_crowd_work(self, capsys):
        assert main(["--seed", "3", "--max-parallel", "4", "demo"]) == 0
        assert "-- batch runtime:" in capsys.readouterr().out

    def test_invalid_batch_flags_report_cleanly(self, capsys):
        assert main(["--max-parallel", "0", "demo"]) == 2
        assert "error: max_parallel must be >= 1" in capsys.readouterr().err
        assert main(["--seed", "-1", "demo"]) == 2
        assert "error: seed must be a non-negative int, got -1" in capsys.readouterr().err

    def test_parallel_demo_is_deterministic(self, capsys):
        main(["--seed", "9", "--max-parallel", "8", "--batch-size", "16", "demo"])
        first = capsys.readouterr().out
        main(["--seed", "9", "--max-parallel", "8", "--batch-size", "16", "demo"])
        second = capsys.readouterr().out
        assert first == second


class TestCacheFlags:
    def test_build_session_cache_default_and_opt_out(self):
        assert build_session(seed=1, redundancy=3, pool_size=10).platform.cache is not None
        session = build_session(seed=1, redundancy=3, pool_size=10, cache_enabled=False)
        assert session.platform.cache is None

    def test_cache_summary_printed_after_crowd_work(self, capsys):
        assert main(["--seed", "3", "demo"]) == 0
        assert "-- answer cache:" in capsys.readouterr().out

    def test_no_cache_suppresses_summary_line(self, capsys):
        assert main(["--seed", "3", "--no-cache", "demo"]) == 0
        assert "-- answer cache:" not in capsys.readouterr().out

    def test_cached_rerun_publishes_nothing(self, tmp_path, capsys):
        spill = tmp_path / "answers.jsonl"
        assert main(["--seed", "3", "--cache", str(spill), "demo"]) == 0
        first = capsys.readouterr().out
        assert spill.read_text(encoding="utf-8").strip()

        assert main(["--seed", "3", "--cache", str(spill), "demo"]) == 0
        second = capsys.readouterr().out
        assert "0 misses" in second
        assert ", 0 tasks published" in second
        # Replayed answers produce the same query results as the live run.
        strip = lambda text: [  # noqa: E731
            line for line in text.splitlines() if not line.startswith("--")
        ]
        assert strip(first) == strip(second)

    def test_cache_conflicts_with_no_cache(self, capsys):
        with pytest.raises(SystemExit):
            main(["--cache", "x.jsonl", "--no-cache", "demo"])
        assert "not allowed with" in capsys.readouterr().err

    def test_unwritable_cache_path_reports_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("not a directory")
        bad = blocker / "answers.jsonl"
        assert main(["--cache", str(bad), "demo"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_empty_cache_path_reports_cleanly(self, capsys):
        assert main(["--cache", "", "demo"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_demo_with_cache_matches_no_cache_output(self, capsys):
        # Cold cache on a duplicate-light workload: bit-identical rows and
        # crowd accounting to the cache-off run at the same seed.
        main(["--seed", "9", "--no-cache", "demo"])
        plain = capsys.readouterr().out
        main(["--seed", "9", "demo"])
        cached = capsys.readouterr().out
        drop = lambda text: [  # noqa: E731
            line for line in text.splitlines() if not line.startswith("-- answer cache")
        ]
        assert drop(plain) == drop(cached)


class TestObservabilityFlags:
    def test_trace_writes_jsonl_with_run_root(self, tmp_path, capsys):
        from repro.obs import build_tree, load_spans

        trace = tmp_path / "run.jsonl"
        assert main(["--seed", "3", "--max-parallel", "4", "--trace", str(trace), "demo"]) == 0
        capsys.readouterr()
        spans = load_spans(str(trace))
        tree = build_tree(spans)
        # The engine's span is the root; the CLI's run span is its only child.
        assert [r["name"] for r in tree[None]] == ["engine"]
        assert [c["name"] for c in tree[tree[None][0]["span_id"]]] == ["run"]
        names = {s["name"] for s in spans}
        assert "operator.crowdjoin" in names
        assert "batch" in names

    def test_trace_report_on_cli_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(["--seed", "3", "--max-parallel", "4", "--trace", str(trace), "demo"])
        capsys.readouterr()
        assert main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-operator breakdown" in out
        assert "batch runtime" in out

    def test_trace_records_every_statement(self, tmp_path, capsys):
        from repro.obs import load_spans

        trace = tmp_path / "run.jsonl"
        assert main(["--seed", "3", "--trace", str(trace), "demo"]) == 0
        capsys.readouterr()
        statements = [s for s in load_spans(str(trace)) if s["name"] == "statement"]
        assert [s["tags"]["index"] for s in statements] == list(range(8))
        assert "SELECT imports" in [s["tags"]["statement"] for s in statements]
        assert sum(s["tags"]["published"] for s in statements) == 23

    def test_trace_report_renders_statement_tables(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(["--seed", "3", "--trace", str(trace), "demo"])
        capsys.readouterr()
        assert main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-statement profile" in out
        assert "statement #6 (SELECT imports) operators" in out
        assert "totals: 8 statements" in out

    @staticmethod
    def statement_numbers(report):
        """The ``#`` column of a trace report's per-statement table."""
        table = report.split("per-statement profile\n", 1)[1].split("\n\n", 1)[0]
        return [line.split("|")[0].strip() for line in table.splitlines()[2:]]

    @pytest.mark.parametrize(
        "script, numbers, titles",
        [
            (
                "CREATE TABLE t (a STRING);\nINSERT INTO t VALUES ('x'), ('y');\n"
                "SELECT a FROM t;\n",
                ["0", "1", "2"],
                [],
            ),
            (
                DEMO_SCRIPT,
                [str(i) for i in range(8)],
                [
                    "statement #6 (SELECT imports) operators",
                    "statement #7 (SELECT films) operators",
                ],
            ),
        ],
        ids=["three_statements", "demo"],
    )
    def test_trace_report_numbers_repl_statements_in_trace_order(
        self, tmp_path, capsys, monkeypatch, script, numbers, titles
    ):
        """Each REPL statement is its own script, whose span index is 0."""
        trace = tmp_path / "repl.jsonl"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["--seed", "3", "--trace", str(trace), "repl"]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace)]) == 0
        report = capsys.readouterr().out
        assert self.statement_numbers(report) == numbers
        for title in titles:
            assert title in report

    def test_unwritable_trace_path_reports_cleanly(self, capsys):
        assert main(["--trace", "/nonexistent-dir/run.jsonl", "demo"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot open trace file")
        assert len(err.strip().splitlines()) == 1

    def test_metrics_flag_prints_registry(self, capsys):
        assert main(["--seed", "3", "--metrics", "demo"]) == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "platform.answers_collected" in out

    def test_trace_report_missing_file(self, capsys):
        assert main(["trace-report", "/nonexistent/trace.jsonl"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_empty_trace_path_reports_cleanly(self, capsys):
        assert main(["--trace", "", "demo"]) == 2
        assert "error: trace_path must be a non-empty" in capsys.readouterr().err

    def test_trace_report_tolerates_truncated_trace(self, tmp_path, capsys):
        """A killed run's partial last line degrades to a warning, not a crash."""
        trace = tmp_path / "run.jsonl"
        main(["--seed", "3", "--trace", str(trace), "demo"])
        capsys.readouterr()
        with open(trace, "a", encoding="utf-8") as handle:
            handle.write('{"span_id": 99, "name": "trunca')
        assert main(["trace-report", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "per-operator breakdown" in captured.out
        assert "skipping non-JSON trace line" in captured.err


class TestServeMetricsCommand:
    def test_serve_metrics_live_scrape(self, tmp_path):
        """End-to-end: loop the demo, scrape /metrics + /run mid-run, and
        check counters only move forward across scrapes."""
        import json
        import socket
        import threading
        import time
        import urllib.request

        from repro.obs.prom import validate_exposition

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        codes = {}
        thread = threading.Thread(
            target=lambda: codes.setdefault(
                "exit",
                main(
                    [
                        "--seed", "5",
                        "serve-metrics",
                        "--port", str(port),
                        "--iterations", "3",
                        "--hold", "3",
                    ]
                ),
            ),
            daemon=True,
        )
        thread.start()
        base = f"http://127.0.0.1:{port}"

        def fetch(path):
            with urllib.request.urlopen(base + path, timeout=5) as response:
                return response.read().decode("utf-8")

        deadline = time.monotonic() + 10
        while True:
            try:
                assert fetch("/healthz") == "ok\n"
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)

        def published(body):
            for line in body.splitlines():
                if line.startswith("platform_hits_published_total"):
                    return float(line.split()[-1])
            return 0.0

        first = fetch("/metrics")
        assert validate_exposition(first) > 0
        status = json.loads(fetch("/run"))
        assert status["iterations"] == 3
        assert status["iteration"] >= 1
        # Wait for the loop to finish, then confirm monotonic advance.
        deadline = time.monotonic() + 20
        while json.loads(fetch("/run"))["iteration"] < 3:
            assert time.monotonic() < deadline
            time.sleep(0.1)
        final = fetch("/metrics")
        assert validate_exposition(final) > 0
        assert published(final) >= published(first)
        assert published(final) > 0
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert codes["exit"] == 0

    def test_each_iteration_reports_its_own_run(self, capsys):
        """Iteration k prints the summary lines ``--seed S+k demo`` prints."""

        def summaries(out):
            return [
                line
                for line in out.splitlines()
                if line.startswith(("-- batch runtime", "-- answer cache"))
            ]

        flags = ["--inference", "ds"]
        argv = ["--seed", "3", *flags, "serve-metrics", "--port", "0", "--iterations", "2"]
        assert main(argv) == 0
        served = summaries(capsys.readouterr().out)
        demos = []
        for seed in ("3", "4"):
            assert main(["--seed", seed, *flags, "demo"]) == 0
            demos += summaries(capsys.readouterr().out)
        assert len(demos) == 4
        assert served == demos

    def test_serve_metrics_missing_script(self, capsys):
        assert main(["serve-metrics", "/nonexistent/x.sql", "--port", "0"]) == 1
        assert "error: cannot read" in capsys.readouterr().err

    def test_serve_metrics_invalid_port_is_clean_error(self, capsys):
        assert main(["serve-metrics", "--port", "70000"]) == 2
        assert "error: metrics port" in capsys.readouterr().err


class TestServeTenantSpec:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"platform_budget": NaN, "tenants": [{"name": "a"}]}', "budget must be > 0"),
            ('{"tenants": [{"name": "a", "budget": NaN}]}', "tenant 'a': budget must be > 0"),
            (
                '{"tenants": [{"name": "a", "budget": "lots"}]}',
                "tenant 'a': budget must be a number",
            ),
            (
                '{"tenants": [{"name": "a", "sessions": "two"}]}',
                "tenant 'a': sessions must be an integer",
            ),
            (
                '{"platform_budget": [1], "tenants": [{"name": "a"}]}',
                "platform_budget must be a number",
            ),
        ],
        ids=[
            "nan_platform_budget", "nan_tenant_budget", "non_numeric_budget",
            "non_numeric_sessions", "non_numeric_platform_budget",
        ],
    )
    def test_bad_number_is_a_configuration_error(self, tmp_path, capsys, spec, message):
        path = tmp_path / "tenants.json"
        path.write_text(spec, encoding="utf-8")
        assert main(["--seed", "3", "serve", str(path), "--port", "0", "--rounds", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1


class TestRobustnessFlags:
    def make_failing_session(self, policy="fail"):
        """An engine whose every assignment is abandoned (retries exhaust)."""
        from repro.core.config import EngineConfig

        return abandoning_engine(
            EngineConfig(
                seed=1,
                pool_size=8,
                pool_accuracy_range=(0.75, 0.95),
                failure_policy=policy,
                redundancy=3,
            ),
            abandon_rate=1.0,
        )

    CROWD_SQL = (
        "CREATE TABLE t (a STRING); INSERT INTO t VALUES ('x');"
        "CREATE TABLE u (b STRING); INSERT INTO u VALUES ('x');"
        "SELECT a, b FROM t CROWDJOIN u ON CROWDEQUAL(a, b);"
    )

    def test_retry_exhaustion_exits_three_with_one_line(self):
        out = io.StringIO()
        code = run_script(self.make_failing_session(), self.CROWD_SQL, out=out)
        assert code == 3
        error_lines = [
            line for line in out.getvalue().splitlines() if line.startswith("error:")
        ]
        assert len(error_lines) == 1
        assert "retry budget exhausted" in error_lines[0]
        assert "attempt(s) failed" in error_lines[0]

    def test_degrade_policy_completes_with_empty_join(self):
        out = io.StringIO()
        code = run_script(self.make_failing_session(policy="degrade"), self.CROWD_SQL, out=out)
        assert code == 0
        assert "0 row(s)" in out.getvalue()

    def test_fault_plan_flag_demo_survives(self, tmp_path, capsys):
        from repro.faults import random_plan

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(random_plan(4).to_json(), encoding="utf-8")
        code = main(
            [
                "--seed", "3", "--max-parallel", "4",
                "--fault-plan", str(plan_path),
                "--failure-policy", "degrade",
                "demo",
            ]
        )
        assert code == 0
        assert "The Iron Giant" in capsys.readouterr().out

    def test_missing_fault_plan_is_config_error(self, capsys):
        assert main(["--fault-plan", "/nonexistent/plan.json", "demo"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_fault_plan_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": "not-an-int"}', encoding="utf-8")
        assert main(["--fault-plan", str(bad), "demo"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_then_resume_skips_statements(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        assert main(["--seed", "3", "--checkpoint", str(ck), "demo"]) == 0
        capsys.readouterr()
        assert (ck / "checkpoint.json").exists()
        assert (ck / "db").exists()
        assert main(["--seed", "3", "--resume", str(ck), "demo"]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "skipping 8 statement(s)" in out

    def test_resumed_database_is_intact(self, tmp_path):
        ck = tmp_path / "ck"
        session = build_session(seed=2, redundancy=3, pool_size=10)
        sql = (
            "CREATE TABLE t (a STRING); INSERT INTO t VALUES ('kept');"
        )
        assert run_script(session, sql, out=io.StringIO(), checkpoint_dir=str(ck)) == 0
        fresh = build_session(seed=2, redundancy=3, pool_size=10)
        out = io.StringIO()
        code = run_script(
            fresh, sql + " SELECT * FROM t;", out=out, resume_dir=str(ck)
        )
        assert code == 0
        assert "kept" in out.getvalue()
        assert "skipping 2 statement(s)" in out.getvalue()

    def test_committed_checkpoint_resumes_in_a_fresh_process(
        self, tmp_path, capsys, monkeypatch
    ):
        # tests/data/demo-seed3-checkpoint: the demo's first seven statements
        # at --seed 3, written by an earlier release (its snapshot still
        # carries each worker's ``earned`` and ``answers_by_worker``). A
        # fresh process numbers tasks from t1, and must not hand out the
        # restored t1-t15 again: the resumed run ends as an uninterrupted
        # one does.
        assert main(["--seed", "3", "demo"]) == 0
        uninterrupted = capsys.readouterr().out.splitlines()
        ck = tmp_path / "ck"
        shutil.copytree(DATA / "demo-seed3-checkpoint", ck)
        monkeypatch.setattr(task_module, "_task_counter", itertools.count(1))
        assert main(["--seed", "3", "--resume", str(ck), "demo"]) == 0
        head, *tail = capsys.readouterr().out.splitlines()
        assert head == f"-- resumed from {ck}: skipping 7 statement(s)"
        assert tail == uninterrupted[-len(tail):]
        assert tail[-1].endswith(", 23 tasks published")


class TestChaosCommand:
    def test_chaos_command_survives(self, capsys):
        assert main(["chaos", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "seed 0:" in out
        assert "all 1 seed(s) survived" in out

    def test_chaos_command_with_resume_check(self, capsys):
        assert main(["--seed", "5", "chaos", "--seeds", "1", "--check-resume"]) == 0
        out = capsys.readouterr().out
        assert "kill-and-resume bit-identical" in out


# ---------------------------------------------------------------------- #
# Every global flag with every command: an effect, or exit 2 naming it.
# ---------------------------------------------------------------------- #

MATRIX_SQL = (
    "CREATE TABLE a (x STRING);"
    "INSERT INTO a VALUES ('iron giant the'), ('dawn alien');"
    "CREATE TABLE b (y STRING);"
    "INSERT INTO b VALUES ('The Iron Giant'), ('Alien Dawn');"
    "SELECT x, y FROM a CROWDJOIN b ON CROWDEQUAL(x, y);"
)


def _fault_plan(tmp_path):
    from repro.faults.plan import straggler_spike_plan

    path = tmp_path / "plan.json"
    path.write_text(straggler_spike_plan(1).to_json(), encoding="utf-8")
    return str(path)


# A non-default value for every global flag.
FLAG_ARGS = {
    "--seed": lambda tmp: ["--seed", "3"],
    "--redundancy": lambda tmp: ["--redundancy", "2"],
    "--pool": lambda tmp: ["--pool", "7"],
    "--batch-size": lambda tmp: ["--batch-size", "4"],
    "--max-parallel": lambda tmp: ["--max-parallel", "4"],
    "--inference": lambda tmp: ["--inference", "ds"],
    "--trace": lambda tmp: ["--trace", str(tmp / "run.jsonl")],
    "--metrics": lambda tmp: ["--metrics"],
    "--hedge": lambda tmp: ["--hedge"],
    "--pipeline": lambda tmp: ["--pipeline"],
    "--failure-policy": lambda tmp: ["--failure-policy", "degrade"],
    "--fault-plan": lambda tmp: ["--fault-plan", _fault_plan(tmp)],
    "--cache": lambda tmp: ["--cache", str(tmp / "answers.jsonl")],
    "--no-cache": lambda tmp: ["--no-cache"],
    "--checkpoint": lambda tmp: ["--checkpoint", str(tmp / "ck")],
    "--resume": lambda tmp: ["--resume", str(tmp / "ck")],
}


def _command_args(command, tmp):
    script = tmp / "q.sql"
    script.write_text(MATRIX_SQL, encoding="utf-8")
    spec = tmp / "tenants.json"
    spec.write_text(
        json.dumps({"tenants": [{"name": "t1", "script": str(script)}]}),
        encoding="utf-8",
    )
    return {
        "run": ["run", str(script)],
        "demo": ["demo"],
        "repl": ["repl"],
        "serve-metrics": ["serve-metrics", str(script), "--port", "0", "--iterations", "1"],
        "serve": ["serve", str(spec), "--port", "0", "--rounds", "1"],
        "chaos": ["chaos", "--seeds", "1"],
        "trace-report": ["trace-report", str(tmp / "run.jsonl")],
    }[command]


def _rejected(flag, command):
    if command == "trace-report":
        return True
    if command == "chaos":
        return flag != "--seed"
    if command in ("serve-metrics", "serve"):
        return flag in ("--trace", "--checkpoint", "--resume")
    if command == "repl":
        return flag in ("--checkpoint", "--resume")
    return False


def _seeded(run):
    if run.command == "chaos":
        return "seed 3:" in run.out
    return run.engines[0].config.seed == 3


def _two_votes_each(run):
    stats = run.engines[0].stats
    return all(s.redundancy == 2 for s in run.sessions) and (
        stats.answers_collected == 2 * stats.tasks_published
    )


def _traced(run):
    from repro.obs import load_spans

    names = {span["name"] for span in load_spans(str(run.tmp / "run.jsonl"))}
    return {"engine", "run", "statement", "operator.crowdjoin"} <= names


def _cache_spilled(run):
    from repro.platform.cache import AnswerCache

    return AnswerCache().load(run.tmp / "answers.jsonl") > 0


# What each flag must visibly change, for a command that honours it.
FLAG_EFFECTS = {
    "--seed": _seeded,
    "--redundancy": _two_votes_each,
    "--pool": lambda run: len(run.engines[0].pool) == 7,
    "--batch-size": lambda run: run.engines[0].scheduler.config.batch_size == 4,
    "--max-parallel": lambda run: run.engines[0].scheduler.parallel,
    "--inference": lambda run: all(s.inference.name == "ds" for s in run.sessions),
    "--trace": _traced,
    "--metrics": lambda run: "== metrics ==" in run.out,
    "--hedge": lambda run: run.engines[0].scheduler.hedge_state is not None,
    "--pipeline": lambda run: all(s.pipeline for s in run.sessions),
    "--failure-policy": lambda run: (
        run.engines[0].scheduler.config.failure_policy == "degrade"
    ),
    "--fault-plan": lambda run: (
        run.engines[0].platform.faults.plan.name == "straggler-spike-1"
    ),
    "--cache": _cache_spilled,
    "--no-cache": lambda run: (
        run.engines[0].cache is None and "-- answer cache" not in run.out
    ),
    "--checkpoint": lambda run: (run.tmp / "ck" / "checkpoint.json").exists()
    and (run.tmp / "ck" / "db").is_dir(),
    "--resume": lambda run: "-- resumed from" in run.out,
}


class TestGlobalFlagMatrix:
    """Each global flag either changes what a command does or is refused."""

    COMMANDS = (
        "run", "demo", "repl", "serve-metrics", "serve",
        "chaos", "trace-report",
    )

    @pytest.fixture
    def recorded(self, monkeypatch):
        """The engines the CLI builds and the sessions that run SQL."""
        import repro.cli as cli
        from repro.lang.interpreter import CrowdSQLSession

        engines, sessions = [], []

        class RecordingEngine(CrowdEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        execute = CrowdSQLSession.execute

        def recording_execute(self, *args, **kwargs):
            sessions.append(self)
            return execute(self, *args, **kwargs)

        monkeypatch.setattr(cli, "CrowdEngine", RecordingEngine)
        monkeypatch.setattr(CrowdSQLSession, "execute", recording_execute)
        return engines, sessions

    def test_matrix_covers_every_flag_and_command(self):
        import argparse

        parser = build_parser()
        flags = {
            action.option_strings[0]
            for action in parser._actions
            if action.option_strings and action.default is not argparse.SUPPRESS
        }
        assert flags == set(FLAG_ARGS) == set(FLAG_EFFECTS)
        commands = parser._subparsers._group_actions[0].choices
        assert set(commands) == set(self.COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("flag", list(FLAG_ARGS))
    def test_flag_takes_effect_or_exits_two(
        self, flag, command, recorded, tmp_path, monkeypatch, capsys
    ):
        from types import SimpleNamespace

        engines, sessions = recorded
        monkeypatch.setattr("sys.stdin", io.StringIO(MATRIX_SQL))
        command_args = _command_args(command, tmp_path)
        if flag == "--resume" and not _rejected(flag, command):
            assert main(["--checkpoint", str(tmp_path / "ck"), *command_args]) == 0
            capsys.readouterr()
            engines.clear()
            sessions.clear()
        code = main([*FLAG_ARGS[flag](tmp_path), *command_args])
        out, err = capsys.readouterr()
        if _rejected(flag, command):
            assert code == 2
            assert err.startswith(f"error: {flag} does not apply to {command}")
            assert not engines
            return
        assert code == 0, err
        if command != "chaos":
            # The command's crowd work ran on the engine it built.
            assert engines and engines[0].stats.tasks_published > 0
            assert sessions
        run = SimpleNamespace(
            command=command, out=out, tmp=tmp_path, engines=engines, sessions=sessions
        )
        assert FLAG_EFFECTS[flag](run), out

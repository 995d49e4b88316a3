"""Tests for the per-statement run profile (statement spans in the trace)
and the live-ops metrics server."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core import CrowdEngine, EngineConfig
from repro.errors import ConfigurationError
from repro.lang.executor import CrowdOracle
from repro.lang.interpreter import CrowdSQLSession
from repro.obs import (
    MemorySink,
    MetricsRegistry,
    MetricsServer,
    Tracer,
    build_tree,
    load_spans,
    render_report,
)
from repro.platform.platform import SimulatedPlatform
from repro.workers.pool import WorkerPool

SCRIPT = """
CREATE TABLE films (title STRING NOT NULL, score FLOAT, PRIMARY KEY (title));
INSERT INTO films VALUES ('a', 1.0), ('b', 2.0), ('c', 3.0);
CREATE TABLE imports (listing STRING NOT NULL, PRIMARY KEY (listing));
INSERT INTO imports VALUES ('a'), ('b');
SELECT listing, title FROM imports CROWDJOIN films ON CROWDEQUAL(listing, title);
SELECT title FROM films CROWDORDER BY score LIMIT 2;
"""


def traced_engine(tmp_path, **overrides):
    return CrowdEngine(
        EngineConfig(seed=9, trace_path=str(tmp_path / "run.jsonl"), **overrides)
    )


def statement_spans(tmp_path):
    """The trace's statement spans and its children-by-parent index."""
    spans = load_spans(str(tmp_path / "run.jsonl"))
    statements = [s for s in spans if s["name"] == "statement"]
    return statements, build_tree(spans)


def below(tree, span):
    """Every span and annotation under *span*."""
    found, stack = [], list(tree.get(span["span_id"], []))
    while stack:
        child = stack.pop()
        found.append(child)
        stack.extend(tree.get(child["span_id"], []))
    return found


def outermost_operators(tree, span):
    """Operator spans under *span* with no operator span between them and it."""
    found, stack = [], list(tree.get(span["span_id"], []))
    while stack:
        child = stack.pop()
        if child["name"].startswith("operator."):
            found.append(child)
        else:
            stack.extend(tree.get(child["span_id"], []))
    return found


class TestStatementSpans:
    def test_per_statement_records(self, tmp_path):
        engine = traced_engine(tmp_path)
        engine.sql(SCRIPT)
        engine.close()
        statements, tree = statement_spans(tmp_path)
        assert [s["tags"]["statement"] for s in statements] == [
            "CREATE TABLE films",
            "INSERT films",
            "CREATE TABLE imports",
            "INSERT imports",
            "SELECT imports",
            "SELECT films",
        ]
        assert [s["tags"]["index"] for s in statements] == list(range(6))
        create = statements[0]["tags"]
        assert create["published"] == 0 and create["cost"] == 0
        join = statements[4]
        assert join["tags"]["published"] > 0
        assert join["tags"]["cost"] > 0
        assert join["tags"]["rows"] >= 2
        (join_op,) = outermost_operators(tree, join)
        assert join_op["name"] == "operator.crowdjoin"
        assert join_op["tags"]["cost"] == pytest.approx(join["tags"]["cost"])
        assert join_op["duration"] > 0
        (sort_op,) = outermost_operators(tree, statements[5])
        assert sort_op["name"] == "operator.sort"
        assert sort_op["tags"]["items"] == 3
        assert sum(s["tags"]["cost"] for s in statements) == pytest.approx(engine.spent)

    def test_simulated_time_attributed_to_crowd_statements(self, tmp_path):
        engine = traced_engine(tmp_path)
        engine.sql(SCRIPT)
        engine.close()
        statements, _ = statement_spans(tmp_path)
        sim = [s["sim_end"] - s["sim_start"] for s in statements]
        assert sim[0] == 0.0
        assert sim[4] > 0.0
        assert statements[-1]["sim_end"] == engine.scheduler.simulated_clock

    def test_close_writes_statement_spans(self, tmp_path):
        engine = traced_engine(tmp_path)
        engine.sql(SCRIPT)
        engine.close()
        statements, tree = statement_spans(tmp_path)
        assert len(statements) == 6
        (root,) = tree[None]
        assert {s["parent_id"] for s in statements} == {root["span_id"]}

    def test_em_iterations_counted_per_statement(self, tmp_path):
        engine = traced_engine(
            tmp_path, inference="ds", redundancy=5, metrics_enabled=True
        )
        engine.sql(SCRIPT)
        engine.close()
        statements, tree = statement_spans(tmp_path)
        iterations = [
            sum(1 for s in below(tree, statement) if s["name"] == "em.iteration")
            for statement in statements
        ]
        assert iterations[:4] == [0, 0, 0, 0]
        assert iterations[4] > 0 and iterations[5] > 0
        counted = engine.metrics.counter("em.iterations", {"method": "ds"}).value
        assert sum(iterations) == counted

    def test_failed_statement_is_recorded(self, tmp_path):
        from repro.errors import CrowdDMError

        engine = traced_engine(tmp_path)
        with pytest.raises(CrowdDMError):
            engine.sql("CREATE TABLE t (a STRING); SELECT a FROM nope;")
        engine.close()
        statements, _ = statement_spans(tmp_path)
        assert [s["tags"]["failed"] for s in statements] == [False, True]
        assert "rows" not in statements[-1]["tags"]

    def test_render_statement_tables(self, tmp_path):
        engine = traced_engine(tmp_path)
        engine.sql(SCRIPT)
        engine.close()
        text = render_report(load_spans(str(tmp_path / "run.jsonl")))
        assert "per-statement profile" in text
        assert "statement #4 (SELECT imports) operators" in text
        assert "crowdjoin" in text
        assert "totals: 6 statements" in text

    def test_trace_without_statements_has_no_statement_tables(self):
        tracer = Tracer(MemorySink())
        with tracer.span("operator.filter", cost=0.1, answers=10):
            pass
        text = render_report(tracer.sink.spans)
        assert "per-statement profile" not in text
        assert "totals:" not in text
        assert "per-operator breakdown" in text

    def test_session_without_engine_records_statement_spans(self):
        """A bare session on a traced platform records its statements;
        one without a platform records nothing and still runs."""
        sink = MemorySink()
        platform = SimulatedPlatform(
            WorkerPool.heterogeneous(10, 0.7, 0.95, seed=1),
            seed=2,
            tracer=Tracer(sink),
        )
        session = CrowdSQLSession(platform=platform)
        session.execute("CREATE TABLE t (a STRING); INSERT INTO t VALUES ('x')")
        statements = [s for s in sink.spans if s["name"] == "statement"]
        assert [s["tags"]["statement"] for s in statements] == ["CREATE TABLE t", "INSERT t"]
        assert statements[1]["tags"]["rows"] == 1
        (result,) = CrowdSQLSession().execute("CREATE TABLE t (a STRING)")
        assert result.kind == "created"

    def test_operator_costs_sum_to_statement_cost(self, tmp_path):
        """Every crowd statement books its spend on operators, once."""
        engine = CrowdEngine(
            EngineConfig(seed=1, trace_path=str(tmp_path / "run.jsonl")),
            oracle=CrowdOracle(
                filter_fn=lambda value, question: value in ("a", "b", "c"),
                fill_fn=lambda row, column: row["k"] + "!",
            ),
        )
        engine.sql(
            "CREATE TABLE t (k STRING, score INTEGER, v STRING CROWD);"
            "INSERT INTO t (k, score) VALUES ('a', 1), ('b', 2), ('c', 3), ('d', 4);"
            "CREATE TABLE u (name STRING);"
            "INSERT INTO u VALUES ('a'), ('z');"
            "SELECT k FROM t WHERE CROWDFILTER(k, 'keep?');"
            "DELETE FROM t WHERE NOT CROWDFILTER(k, 'keep this one?');"
            "SELECT name, k FROM u CROWDJOIN t ON CROWDEQUAL(name, k);"
            "SELECT k FROM t CROWDORDER BY score;"
            "SELECT k, v FROM t"
        )
        engine.close()
        statements, tree = statement_spans(tmp_path)
        assert len(statements) == 9
        operators = {}
        for statement in statements:
            outer = outermost_operators(tree, statement)
            cost = statement["tags"]["cost"]
            assert sum(op["tags"]["cost"] for op in outer) == pytest.approx(cost, abs=1e-9)
            operators[statement["tags"]["index"]] = sorted(op["name"] for op in outer)
        crowd = {i: operators[i] for i in range(4, 9)}
        assert crowd == {
            4: ["operator.crowd_filter"],
            5: ["operator.crowd_filter"],
            6: ["operator.crowdjoin"],
            7: ["operator.sort"],
            8: ["operator.fill"],
        }
        assert all(statements[i]["tags"]["cost"] > 0 for i in crowd)
        assert sum(s["tags"]["cost"] for s in statements) == pytest.approx(engine.spent)


def http_get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode("utf-8")


class TestMetricsServer:
    def test_serves_metrics_healthz_and_run(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("platform.tasks_published", 7)
        with MetricsServer(registry, run_status=lambda: {"state": "idle"}) as server:
            assert server.running and server.port > 0
            status, headers, body = http_get(f"{server.url}/metrics")
            assert status == 200
            assert "version=0.0.4" in headers["Content-Type"]
            assert "platform_hits_published_total 7" in body
            status, _, body = http_get(f"{server.url}/healthz")
            assert (status, body) == (200, "ok\n")
            status, headers, body = http_get(f"{server.url}/run")
            assert status == 200
            assert headers["Content-Type"].startswith("application/json")
            assert json.loads(body) == {"state": "idle"}
        assert not server.running

    def test_scrape_reflects_counter_advances(self):
        registry = MetricsRegistry(enabled=True)
        with MetricsServer(registry) as server:
            registry.inc("platform.answers_collected", 1)
            _, _, first = http_get(f"{server.url}/metrics")
            registry.inc("platform.answers_collected", 2)
            _, _, second = http_get(f"{server.url}/metrics")
        assert "platform_answers_collected_total 1" in first
        assert "platform_answers_collected_total 3" in second

    def test_unknown_path_is_404(self):
        with MetricsServer(MetricsRegistry(enabled=True)) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_get(f"{server.url}/nope")
            assert excinfo.value.code == 404

    def test_run_provider_error_is_500_not_crash(self):
        def broken():
            raise RuntimeError("boom")

        with MetricsServer(MetricsRegistry(enabled=True), run_status=broken) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_get(f"{server.url}/run")
            assert excinfo.value.code == 500
            # The server survives the failed request.
            status, _, _ = http_get(f"{server.url}/healthz")
            assert status == 200

    def test_stop_and_start_idempotent(self):
        server = MetricsServer(MetricsRegistry(enabled=True))
        server.stop()  # never started: no-op
        server.start()
        server.start()  # idempotent
        port = server.port
        assert port > 0
        server.stop()
        server.stop()
        assert not server.running

    def test_stop_returns_promptly(self):
        import time

        server = MetricsServer(MetricsRegistry(enabled=True)).start()
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 0.25

    def test_rejects_invalid_port(self):
        with pytest.raises(ConfigurationError, match="metrics port"):
            MetricsServer(MetricsRegistry(enabled=True), port=-1)

    def test_bind_conflict_raises_configuration_error(self):
        registry = MetricsRegistry(enabled=True)
        with MetricsServer(registry) as server:
            clone = MetricsServer(registry, port=server.port)
            with pytest.raises(ConfigurationError, match="cannot bind"):
                clone.start()


class TestEngineLiveOps:
    def test_engine_serves_run_status_during_lifetime(self):
        from repro.obs.prom import validate_exposition
        from repro.recovery.breakers import BudgetBreaker

        engine = CrowdEngine(
            EngineConfig(seed=3, budget=10.0, cache_enabled=True, metrics_enabled=True)
        )
        engine.scheduler.breakers.append(BudgetBreaker(reserve=1.0))
        server = MetricsServer(engine.metrics, run_status=engine.run_status)
        with engine, server:
            engine.sql(SCRIPT)
            _, _, body = http_get(f"{server.url}/run")
            payload = json.loads(body)
            assert payload["current_statement"] is None
            assert payload["budget"]["limit"] == 10.0
            assert payload["budget"]["spent"] > 0
            assert payload["budget"]["remaining"] == pytest.approx(
                10.0 - payload["budget"]["spent"]
            )
            assert payload["hits_published"] > 0
            assert payload["cache"]["enabled"] is True
            names = [b["name"] for b in payload["breakers"]]
            assert "breaker:budget" in names
            _, _, metrics_body = http_get(f"{server.url}/metrics")
            assert validate_exposition(metrics_body) > 0

    def test_idle_run_status_keys(self):
        engine = CrowdEngine(EngineConfig(seed=3))
        engine.sql(SCRIPT)
        status = engine.run_status()
        assert set(status) == {
            "current_statement", "budget", "answers_collected", "hits_published",
            "batches_dispatched", "simulated_clock", "cache", "hedges", "breakers",
        }
        assert status["batches_dispatched"] == engine.stats.batches_dispatched > 0
        assert status["answers_collected"] == engine.stats.answers_collected > 0
        engine.close()

    def test_run_status_reports_current_statement_mid_query(self):
        """The /run payload exposes the in-flight statement label."""
        engine = CrowdEngine(EngineConfig(seed=3))
        server = MetricsServer(engine.metrics, run_status=engine.run_status)
        with engine, server:
            seen = {}
            original = engine._session._execute_statement

            def spy(statement):
                _, _, body = http_get(f"{server.url}/run")
                seen["label"] = json.loads(body)["current_statement"]
                return original(statement)

            engine._session._execute_statement = spy
            engine.sql("CREATE TABLE t (a STRING);")
            assert seen["label"] == "CREATE TABLE t"

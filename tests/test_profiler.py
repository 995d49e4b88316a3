"""Tests for the query profiler and the live-ops metrics server."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core import CrowdEngine, EngineConfig
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, MetricsServer, QueryProfiler
from repro.obs.profiler import load_profile, render_profile

SCRIPT = """
CREATE TABLE films (title STRING NOT NULL, score FLOAT, PRIMARY KEY (title));
INSERT INTO films VALUES ('a', 1.0), ('b', 2.0), ('c', 3.0);
CREATE TABLE imports (listing STRING NOT NULL, PRIMARY KEY (listing));
INSERT INTO imports VALUES ('a'), ('b');
SELECT listing, title FROM imports CROWDJOIN films ON CROWDEQUAL(listing, title);
SELECT title FROM films CROWDORDER BY score LIMIT 2;
"""


def profiled_engine(tmp_path, **overrides):
    return CrowdEngine(
        EngineConfig(
            seed=9, profile_path=str(tmp_path / "profile.json"), **overrides
        )
    )


class TestQueryProfiler:
    def test_profile_path_implies_metrics(self, tmp_path):
        config = EngineConfig(profile_path=str(tmp_path / "p.json"))
        assert config.metrics_enabled

    def test_metrics_port_validation(self):
        with pytest.raises(ConfigurationError, match="metrics_port"):
            EngineConfig(metrics_port=70000)

    def test_per_statement_records(self, tmp_path):
        engine = profiled_engine(tmp_path)
        engine.sql(SCRIPT)
        profile = engine.profiler.profile()
        engine.close()
        statements = profile["statements"]
        assert [s["statement"] for s in statements] == [
            "CREATE TABLE films",
            "INSERT films",
            "CREATE TABLE imports",
            "INSERT imports",
            "SELECT imports",
            "SELECT films",
        ]
        create = statements[0]
        assert create["hits_published"] == 0 and create["cost"] == 0
        join = statements[4]
        assert join["hits_published"] > 0
        assert join["cost"] > 0
        assert join["rows_out"] >= 2
        (join_op,) = join["operators"]
        assert join_op["operator"] == "crowdjoin"
        assert join_op["runs"] == 1
        assert join_op["cost"] == pytest.approx(join["cost"])
        assert join_op["wall_s"] > 0
        sort = statements[5]
        (sort_op,) = sort["operators"]
        assert sort_op["operator"] == "sort"
        assert sort_op["items"] == 3
        assert profile["totals"]["statements"] == 6
        assert profile["totals"]["cost"] == pytest.approx(
            sum(s["cost"] for s in statements)
        )

    def test_simulated_time_attributed_to_crowd_statements(self, tmp_path):
        engine = profiled_engine(tmp_path)
        engine.sql(SCRIPT)
        statements = engine.profiler.profile()["statements"]
        engine.close()
        assert statements[0]["sim_s"] == 0.0
        assert statements[4]["sim_s"] > 0.0

    def test_close_writes_profile_json(self, tmp_path):
        engine = profiled_engine(tmp_path)
        engine.sql(SCRIPT)
        engine.close()
        document = load_profile(str(tmp_path / "profile.json"))
        assert document["version"] == 1
        assert document["totals"]["statements"] == 6

    def test_em_iterations_attributed_by_method(self, tmp_path):
        engine = profiled_engine(tmp_path, inference="ds", redundancy=5)
        engine.sql(SCRIPT)
        statements = engine.profiler.profile()["statements"]
        engine.close()
        crowd = [s for s in statements if s["hits_published"] > 0]
        assert any(s["em_iterations"] for s in crowd)
        for s in crowd:
            for method, iterations in s["em_iterations"].items():
                assert method and iterations > 0

    def test_failed_statement_is_recorded(self, tmp_path):
        from repro.errors import CrowdDMError

        engine = profiled_engine(tmp_path)
        with pytest.raises(CrowdDMError):
            engine.sql("CREATE TABLE t (a STRING); SELECT a FROM nope;")
        statements = engine.profiler.profile()["statements"]
        engine.close()
        assert statements[-1]["failed"] is True

    def test_render_profile_tables(self, tmp_path):
        engine = profiled_engine(tmp_path)
        engine.sql(SCRIPT)
        engine.close()
        text = render_profile(load_profile(str(tmp_path / "profile.json")))
        assert "per-statement profile" in text
        assert "SELECT imports" in text
        assert "crowdjoin" in text
        assert text.strip().endswith("EM iterations")

    def test_render_empty_profile(self):
        assert render_profile({"statements": []}) == "(empty profile)"

    def test_load_profile_rejects_non_profile(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="not a profile document"):
            load_profile(str(path))
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not a JSON profile"):
            load_profile(str(path))

    def test_profiler_without_engine(self):
        """The profiler is usable standalone around any registry activity."""
        registry = MetricsRegistry(enabled=True)
        profiler = QueryProfiler(registry)
        with profiler.statement(0, "synthetic") as capture:
            registry.inc("platform.tasks_published", 4)
            registry.inc("platform.cost_spent", 0.2)
            registry.inc("operator.runs", labels={"operator": "filter"})
            registry.observe("operator.wall", 0.5, labels={"operator": "filter"})
        record = profiler.statements[0]
        assert record["hits_published"] == 4
        assert record["cost"] == pytest.approx(0.2)
        assert record["operators"][0]["operator"] == "filter"
        assert record["operators"][0]["wall_s"] == pytest.approx(0.5)
        assert capture.rows_out is None


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
    def test_engine_serves_run_status_during_lifetime(self, tmp_path):
        config = EngineConfig(
            seed=3,
            metrics_port=0,
            budget=10.0,
            cache_enabled=True,
            budget_reserve=1.0,
        )
        engine = CrowdEngine(config)
        try:
            url = engine.metrics_server.url
            engine.sql(SCRIPT)
            _, _, body = http_get(f"{url}/run")
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
            _, _, metrics_body = http_get(f"{url}/metrics")
            from repro.obs.prom import validate_exposition

            assert validate_exposition(metrics_body) > 0
        finally:
            engine.close()
        assert engine.metrics_server is not None
        assert not engine.metrics_server.running

    def test_idle_run_status_keys(self):
        engine = CrowdEngine(EngineConfig(seed=3))
        engine.sql(SCRIPT)
        status = engine.run_status()
        assert set(status) == {
            "current_statement", "budget", "answers_collected", "hits_published",
            "batches_dispatched", "simulated_clock", "cache", "hedges", "breakers",
            "profiled_statements",
        }
        assert status["batches_dispatched"] == engine.stats.batches_dispatched > 0
        assert status["answers_collected"] == engine.stats.answers_collected > 0
        engine.close()

    def test_run_status_reports_current_statement_mid_query(self):
        """The /run payload exposes the in-flight statement label."""
        engine = CrowdEngine(EngineConfig(seed=3, metrics_port=0))
        try:
            seen = {}
            original = engine._session._execute_statement

            def spy(statement):
                _, _, body = http_get(f"{engine.metrics_server.url}/run")
                seen["label"] = json.loads(body)["current_statement"]
                return original(statement)

            engine._session._execute_statement = spy
            engine.sql("CREATE TABLE t (a STRING);")
            assert seen["label"] == "CREATE TABLE t"
        finally:
            engine.close()

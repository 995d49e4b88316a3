"""The interaction map: every per-layer metric, where it comes from, and
which end-to-end metric it should move on which workload.

``on`` lists the workloads whose traced run must exercise the metric (the
benchmark's own test checks this); ``flat`` lists the workloads where a
change to the layer is predicted to move nothing. The same rows are the
table in README.md and the ``per_layer`` list of BENCHMARK.json.
"""

from __future__ import annotations

from collections import defaultdict

LB, SQL, TS = "label_batch", "sql_session", "tenant_stream"


#: Per-layer metrics where more is better; for every other one (times and
#: counts of work done) less is better.
HIGHER_IS_BETTER = {"batch.useful_ratio", "cache.hit_ratio", "streaming.cancel_ratio"}


def _row(metric, unit, layer, calls, moves, on, flat=()):
    return {"metric": metric, "unit": unit, "layer": layer, "calls": calls,
            "better": "higher" if metric in HIGHER_IS_BETTER else "lower",
            "moves": list(moves), "on": list(on), "flat": list(flat)}


_BATCH = ("repro.platform.batch", "BatchScheduler.run", ("wall_s", "op_p50_ms"), (LB, SQL))
_WORKERS = ("repro.workers", "WorkerPool.sample, answer and latency model draws", ("wall_s",),
            (LB,))
_OBS = ("repro.obs", "MetricsRegistry.inc/observe/set_gauge", ("wall_s",), (LB, TS), (SQL,))
_TRUTH = ("repro.quality.truth", "TruthInference.infer", ("op_p50_ms", "accuracy"), (LB,),
          (SQL, TS))
_LANG = ("repro.lang", "parse, build_plan, Optimizer.optimize, Executor.execute, "
         "CrowdSQLSession.execute", ("op_p50_ms", "read_p50_ms"), (SQL,), (LB,))
_DATA = ("repro.data", "evaluate_tristate/evaluate_mask, ColumnStore.row_dict, "
         "Table.insert/insert_many/update_cell/delete", ("read_p50_ms", "write_p50_ms"), (SQL,),
         (LB,))
_CACHE = ("repro.platform.cache", "AnswerCache.resolve/apply, signature_of",
          ("op_p50_ms", "crowd_cost_usd"), (SQL, TS), (LB,))
_STREAM = ("repro.lang.streaming", "StreamingExecutor.execute", ("crowd_cost_usd", "op_p50_ms"),
           (TS,), (SQL,))
_SERVICE = ("repro.service", "CrowdService.submit/aexecute", ("op_p50_ms",), (TS,), (LB, SQL))

MAP = [
    _row("batch.run_self_ms", "ms", *_BATCH),
    _row("batch.runs", "count", *_BATCH),
    _row("batch.assignments", "count", *_BATCH),
    _row("batch.retries", "count", _BATCH[0], _BATCH[1], _BATCH[2], (LB,)),
    _row("batch.useful_ratio", "ratio", *_BATCH),
    _row("batch.us_per_assignment", "us", *_BATCH),
    _row("workers.draws", "count", *_WORKERS),
    _row("workers.draw_ms", "ms", *_WORKERS),
    _row("obs.registry_calls", "count", *_OBS),
    _row("obs.registry_ms", "ms", *_OBS),
    _row("obs.trace_overhead_ratio", "ratio", *_OBS),
    _row("truth.infer_ms", "ms", *_TRUTH),
    _row("truth.iterations", "count", *_TRUTH),
    _row("truth.ms_per_iteration", "ms", *_TRUTH),
    _row("lang.parse_ms", "ms", *_LANG),
    _row("lang.plan_ms", "ms", *_LANG),
    _row("lang.exec_self_ms", "ms", *_LANG),
    _row("lang.crowd_questions", "count", *_LANG),
    _row("data.expr_ms", "ms", *_DATA),
    _row("data.materialize_ms", "ms", *_DATA),
    _row("data.rows_materialized", "count", *_DATA),
    _row("data.rows_per_row_returned", "ratio", *_DATA),
    _row("data.dml_ms", "ms", *_DATA),
    _row("cache.lookups", "count", *_CACHE),
    _row("cache.hit_ratio", "ratio", *_CACHE),
    _row("cache.evictions", "count", _CACHE[0], _CACHE[1], _CACHE[2], (TS,), (LB, SQL)),
    _row("cache.lookup_ms", "ms", *_CACHE),
    _row("streaming.exec_self_ms", "ms", *_STREAM),
    _row("streaming.cancel_ratio", "ratio", *_STREAM),
    _row("service.units", "count", *_SERVICE),
    _row("service.wait_ms", "ms", *_SERVICE),
    _row("service.run_ms", "ms", *_SERVICE),
    _row("service.self_ms", "ms", *_SERVICE),
    _row("other.unattributed_ms", "ms", "(none)", "-", (), ()),
]

#: Metrics whose sum is the traced wall time.
SELF_TIMES = (
    "batch.run_self_ms", "workers.draw_ms", "obs.registry_ms", "truth.infer_ms",
    "lang.parse_ms", "lang.plan_ms", "lang.exec_self_ms", "data.expr_ms",
    "data.materialize_ms", "data.dml_ms", "cache.lookup_ms", "streaming.exec_self_ms",
    "service.self_ms", "other.unattributed_ms",
)

#: attribute() layer key -> self-time metric.
_ATTRIBUTED = {
    "batch.run": "batch.run_self_ms", "workers.draw": "workers.draw_ms",
    "obs.registry": "obs.registry_ms", "truth.infer": "truth.infer_ms",
    "lang.parse": "lang.parse_ms", "lang.plan": "lang.plan_ms",
    "lang.exec": "lang.exec_self_ms", "data.expr": "data.expr_ms",
    "data.materialize": "data.materialize_ms", "data.dml": "data.dml_ms",
    "cache.lookup": "cache.lookup_ms", "streaming.exec": "streaming.exec_self_ms",
    "service": "service.self_ms", "other.unattributed": "other.unattributed_ms",
}

_EXECUTORS = ("lang.exec", "streaming.exec")


def platform_counters(platform) -> dict[str, float]:
    """The program's own counters the per-layer metrics take deltas of."""
    stats = platform.stats
    cache = platform.cache
    return {
        "assignments": stats.assignments_dispatched,
        "retries": stats.assignments_retried,
        "answers": stats.answers_collected,
        "hits": cache.hits if cache else 0,
        "lookups": (cache.hits + cache.misses + cache.coalesced) if cache else 0,
        "evictions": cache.evictions if cache else 0,
    }


def per_layer_metrics(tracer, attribution: dict[str, float], t0: float, t1: float,
                      before: dict, after: dict, overhead_ratio: float):
    """Every per-layer metric, plus the call counts that show it was exercised."""
    spans = [s for s in tracer.spans if s.end is not None and t0 <= s.start and s.end <= t1]
    calls: dict[str, int] = defaultdict(int)
    for (metric, _owner), (n, _s) in tracer.counted_totals().items():
        calls[metric] += n
    delta = {k: after[k] - before[k] for k in before}
    by_layer: dict[str, list] = defaultdict(list)
    for s in spans:
        by_layer[s.layer].append(s)
    # A streaming executor falls back to the barrier one for some plans:
    # count each statement once, at its outermost executor span.
    statements = [s for s in spans if s.layer in _EXECUTORS and s.tags["parent"] != "execute"]
    streamed = by_layer["streaming.exec"]
    runs = by_layer["batch.run"]
    by_sid = {s.sid: s for s in spans}
    linked = [(by_sid[r.parent], r) for r in runs
              if r.parent in by_sid and by_sid[r.parent].name == "submit"]
    iterations = sum(s.tags.get("iterations", 0) for s in by_layer["truth.infer"])
    rows_returned = sum(s.tags.get("rows", 0) for s in statements)
    planned = sum(s.tags.get("cancelled", 0) + s.tags.get("questions", 0) for s in streamed)

    ms = {metric: attribution.get(key, 0.0) * 1000.0 for key, metric in _ATTRIBUTED.items()}
    metrics = dict(ms)
    metrics.update({
        "batch.runs": len(runs),
        "batch.assignments": delta["assignments"],
        "batch.retries": delta["retries"],
        "batch.useful_ratio": _ratio(delta["answers"], delta["assignments"]),
        "batch.us_per_assignment": _ratio(sum(s.end - s.start for s in runs) * 1e6,
                                          delta["assignments"]),
        "workers.draws": calls["workers.draw"],
        "obs.registry_calls": calls["obs.registry"],
        "obs.trace_overhead_ratio": overhead_ratio,
        "truth.iterations": iterations,
        "truth.ms_per_iteration": _ratio(ms["truth.infer_ms"], iterations),
        "lang.crowd_questions": sum(s.tags.get("questions", 0) for s in statements),
        "data.rows_materialized": calls["data.materialize"],
        "data.rows_per_row_returned": _ratio(calls["data.materialize"], rows_returned),
        "cache.lookups": delta["lookups"],
        "cache.hit_ratio": _ratio(delta["hits"], delta["lookups"]),
        "cache.evictions": delta["evictions"],
        "streaming.cancel_ratio": _ratio(sum(s.tags.get("cancelled", 0) for s in streamed),
                                         planned),
        "service.units": len(by_layer["service"]) - sum(
            1 for s in by_layer["service"] if s.name == "aexecute"),
        "service.wait_ms": sum(r.start - sub.start for sub, r in linked) * 1000.0,
        "service.run_ms": sum(r.end - r.start for _, r in linked) * 1000.0,
    })
    exercised = {
        "batch": len(runs), "workers": calls["workers.draw"], "obs": calls["obs.registry"],
        "truth": len(by_layer["truth.infer"]),
        "lang": len(by_layer["lang.parse"]) + len(statements),
        "data": calls["data.expr"] + calls["data.materialize"] + calls["data.dml"],
        "cache": delta["lookups"] + calls["cache.lookup"],
        "streaming": len(streamed), "service": len(by_layer["service"]), "other": 1,
    }
    return metrics, exercised


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

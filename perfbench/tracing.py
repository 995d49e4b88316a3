"""Per-layer tracing, installed from the benchmark around public calls.

Nothing here changes the program: :meth:`Tracer.install` replaces public
functions and methods of each layer with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back.

Two kinds of wrapper:

* spans (name, layer, start, end, parent, operation id) around calls made
  a few times per statement or job, kept in memory and written out when
  the run ends;
* counted calls, for calls made once per row or per assignment (row
  materialization, worker draws, registry calls): their count and time
  are summed per owning span, never spanned one by one.

:func:`attribute` splits the traced wall time into layer self times: each
instant goes to the innermost open span doing work (shared equally when
several threads have one), a counted call's time moves from its owning
span to its own layer, and instants inside no span are
``other.unattributed_ms``. The parts therefore sum to the wall time.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "op", "waiting", "tags")

    def __init__(self, sid, name, layer, parent, op, waiting):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.waiting = waiting
        self.tags: dict = {}
        self.start = _now()
        self.end = None


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[Span] = []   # open spans on this thread, innermost last
        self.frames: list[float] = []  # child time of open counted calls
        self.table: dict | None = None


class Tracer:
    """Records spans and counted calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = contextvars.ContextVar("perfbench_op", default=None)
        self._ids = itertools.count(1)
        self._state = _ThreadState()
        self._tables: list[dict] = []
        self._tables_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._links: dict[tuple[str, int], Span] = {}
        self._lane_owner: Span | None = None

    # -- recording ------------------------------------------------------- #

    def _table(self) -> dict:
        state = self._state
        if state.table is None:
            state.table = defaultdict(lambda: [0, 0.0])
            with self._tables_lock:
                self._tables.append(state.table)
        return state.table

    def _open(self, name, layer, parent, waiting) -> Span:
        op = parent.op if parent is not None else self.op.get()
        return Span(next(self._ids), name, layer, parent.sid if parent is not None else None, op,
                    waiting)

    def spanned(self, name, layer, fn, *, waiting=False, link=None, register=None,
                on_result=None, lane=False):
        """Wrap *fn* in a span; *link* finds a parent opened on another thread."""
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = state.stack
            parent = stack[-1] if stack else (link(args, kwargs) if link else None)
            span = self._open(name, layer, parent, waiting)
            span.tags["parent"] = parent.name if parent is not None else None
            key = register(args, kwargs) if register else None
            if key is not None:
                self._links[key] = span
            if lane:
                self._lane_owner = span
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result
            finally:
                span.end = _now()
                stack.pop()
                if key is not None:
                    self._links.pop(key, None)
                self.spans.append(span)

        return wrapper

    def spanned_async(self, name, layer, fn, *, register=None):
        """Wrap coroutine function *fn* in a root span (coroutines interleave,
        so it is never pushed on a thread's stack)."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span = Span(next(self._ids), name, layer, None, self.op.get(), True)
            span.tags["parent"] = None
            key = register(args, kwargs) if register else None
            if key is not None:
                self._links[key] = span
            try:
                return await fn(*args, **kwargs)
            finally:
                span.end = _now()
                if key is not None:
                    self._links.pop(key, None)
                self.spans.append(span)

        return wrapper

    def counted(self, metric, fn):
        """Count *fn*'s calls and time them in aggregate, per owning span."""
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames = state.frames
            frames.append(0.0)
            started = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - started
                own = elapsed - frames.pop()
                if frames:
                    frames[-1] += elapsed
                stack = state.stack
                owner = stack[-1] if stack else self._lane_owner
                if owner is not None and owner.end is not None:
                    owner = None
                table = state.table if state.table is not None else self._table()
                rec = table[(metric, owner.sid if owner is not None else 0)]
                rec[0] += 1
                rec[1] += own

        return wrapper

    def link(self, kind: str, obj) -> Span | None:
        return self._links.get((kind, id(obj)))

    # -- installation ---------------------------------------------------- #

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap the public calls of every layer the benchmark measures."""
        import repro.data.expressions as expressions
        import repro.data.table as table_mod
        import repro.lang.executor as executor_mod
        import repro.lang.interpreter as interpreter
        import repro.lang.streaming as streaming
        import repro.platform.cache as cache_mod
        import repro.workers.models as models
        from repro.data.columnstore import ColumnStore
        from repro.lang.optimizer import Optimizer
        from repro.obs.metrics import MetricsRegistry
        from repro.platform.batch import BatchScheduler
        from repro.quality.truth import CATEGORICAL_METHODS
        from repro.service import CrowdService
        from repro.workers.pool import WorkerPool
        from repro.workers.worker import LatencyModel

        span, count = self.spanned, self.counted

        # repro.lang
        self.patch(interpreter, "parse", lambda f: span("parse", "lang.parse", f))
        self.patch(interpreter, "build_plan", lambda f: span("build_plan", "lang.plan", f))
        self.patch(Optimizer, "optimize", lambda f: span("optimize", "lang.plan", f))
        self.patch(
            interpreter.CrowdSQLSession, "execute",
            lambda f: span("session.execute", "lang.exec", f,
                           link=lambda a, k: self.link("session", a[0])),
        )
        self.patch(executor_mod.Executor, "execute",
                   lambda f: span("execute", "lang.exec", f, on_result=_statement_result))
        self.patch(streaming.StreamingExecutor, "execute",
                   lambda f: span("execute", "streaming.exec", f, on_result=_statement_result))
        # repro.data
        for mod, name in ((executor_mod, "evaluate_tristate"), (expressions, "evaluate_tristate"),
                          (table_mod, "evaluate_mask"), (expressions, "evaluate_mask")):
            self.patch(mod, name, lambda f: count("data.expr", f))
        self.patch(ColumnStore, "row_dict", lambda f: count("data.materialize", f))
        for name in ("insert", "insert_many", "update_cell", "delete"):
            self.patch(table_mod.Table, name, lambda f: count("data.dml", f))
        # repro.platform.cache
        for mod in (cache_mod, executor_mod, streaming):
            self.patch(mod, "signature_of", lambda f: count("cache.lookup", f))
        for name in ("resolve", "apply"):
            self.patch(cache_mod.AnswerCache, name, lambda f: count("cache.lookup", f))
        # repro.platform.batch
        self.patch(
            BatchScheduler, "run",
            lambda f: span("run", "batch.run", f, lane=True,
                           link=lambda a, k: self.link("unit", _first_task(a, k))),
        )
        # repro.workers
        self.patch(WorkerPool, "sample", lambda f: count("workers.draw", f))
        self.patch(LatencyModel, "service_time", lambda f: count("workers.draw", f))
        for cls in vars(models).values():
            if isinstance(cls, type) and issubclass(cls, models.AnswerModel) \
                    and "answer" in cls.__dict__:
                self.patch(cls, "answer", lambda f: count("workers.draw", f))
        # repro.obs
        for name in ("inc", "observe", "set_gauge"):
            self.patch(MetricsRegistry, name, lambda f: count("obs.registry", f))
        # repro.quality.truth
        for cls in CATEGORICAL_METHODS.values():
            if "infer" in cls.__dict__:
                self.patch(cls, "infer", lambda f: span("infer", "truth.infer", f,
                                                         on_result=_inference_result))
        # repro.service
        self.patch(
            CrowdService, "submit",
            lambda f: span("submit", "service", f, waiting=True,
                           register=lambda a, k: _unit_key(a, k)),
        )
        self.patch(
            CrowdService, "aexecute",
            lambda f: self.spanned_async("aexecute", "service", f,
                                         register=lambda a, k: ("session", id(a[1]))),
        )

    # -- output ---------------------------------------------------------- #

    def counted_totals(self) -> dict[tuple[str, int], list]:
        merged: dict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0])
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for key, (n, s) in list(table.items()):
                merged[key][0] += n
                merged[key][1] += s
        return merged

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (times in seconds since the first span)."""
        spans = sorted(self.spans, key=lambda s: s.start)
        base = spans[0].start if spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "layer": s.layer, "parent": s.parent,
                    "op": s.op, "start": round(s.start - base, 9),
                    "end": round(s.end - base, 9),
                }) + "\n")


def _first_task(args, kwargs):
    tasks = args[1] if len(args) > 1 else kwargs.get("tasks")
    return tasks[0] if tasks else None


def _unit_key(args, kwargs):
    tasks = args[2] if len(args) > 2 else kwargs.get("tasks")
    return ("unit", id(tasks[0])) if tasks else None


def _statement_result(span, args, kwargs, result) -> None:
    span.tags["rows"] = len(result.rows)
    span.tags["questions"] = result.stats.crowd_questions
    span.tags["cancelled"] = result.stats.tasks_cancelled


def _inference_result(span, args, kwargs, result) -> None:
    span.tags["iterations"] = result.iterations


def attribute(spans: list[Span], counted: dict, t0: float, t1: float) -> dict[str, float]:
    """Split [t0, t1] into seconds per layer; the values sum to t1 - t0."""
    events = []
    for s in spans:
        if s.end is None or s.end <= t0 or s.start >= t1:
            continue
        events.append((max(s.start, t0), 1, s))
        events.append((min(s.end, t1), 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    by_sid = {s.sid: s for _, _, s in events}
    active: dict[int, int] = {}   # sid -> open child count
    leaves: set[int] = set()
    spent: dict[int, float] = defaultdict(float)
    unattributed = 0.0
    prev = t0
    for when, is_start, s in events:
        if when > prev:
            width = when - prev
            working = [sid for sid in leaves if not by_sid[sid].waiting]
            share = working or list(leaves)
            if share:
                for sid in share:
                    spent[sid] += width / len(share)
            else:
                unattributed += width
            prev = when
        parent = s.parent if s.parent in active else None
        if is_start:
            active[s.sid] = 0
            leaves.add(s.sid)
            if parent is not None:
                active[parent] += 1
                leaves.discard(parent)
        elif s.sid in active:
            del active[s.sid]
            leaves.discard(s.sid)
            if parent is not None:
                active[parent] -= 1
                if active[parent] == 0:
                    leaves.add(parent)
    if t1 > prev:
        unattributed += t1 - prev

    layers: dict[str, float] = defaultdict(float)
    owned: dict[int, list[tuple[str, float]]] = defaultdict(list)
    for (metric, owner), (_n, seconds) in counted.items():
        owned[owner].append((metric, seconds))
    for sid, seconds in spent.items():
        moves = owned.pop(sid, [])
        total = sum(s for _, s in moves)
        scale = min(1.0, seconds / total) if total > 0 else 0.0
        for metric, s in moves:
            layers[metric] += s * scale
        layers[by_sid[sid].layer] += seconds - total * scale
    layers["other.unattributed"] += unattributed
    return dict(layers)

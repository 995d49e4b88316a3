"""The asyncio multi-tenant crowd service: fair-share dispatch, one platform.

:class:`CrowdService` owns a registry of tenants and a single dispatcher
thread that drains their work-unit queues with **deficit round-robin**
(DRR): each pass over the tenants (in registration order) grants every
backlogged tenant ``quantum_tasks × weight`` credit, and a queue head is
dispatched once its cost (``len(tasks) × redundancy`` assignments) is
covered. A heavy tenant therefore gets at most its weight-share of the
dispatch stream while a light tenant's unit waits a bounded number of
turns — the fairness property B10 gates in CI.

All platform access happens on the dispatcher thread, one unit at a
time, inside ``platform.charging_account(tenant.account)`` — which is
why a single-tenant service run is *bit-identical* to the plain engine
path at the same seed: units execute in FIFO order, the RNG sees the
same draw sequence, and the dispatcher itself consumes no randomness.

Sessions: :meth:`CrowdService.session` builds a
:class:`~repro.lang.interpreter.CrowdSQLSession` on the tenant's
platform façade. Synchronous callers block in :meth:`submit`;
asyncio callers use :meth:`asubmit` (futures completed via
``loop.call_soon_threadsafe``) or :meth:`aexecute`, which runs a whole
SQL script on a bounded session thread pool so hundreds of concurrent
coroutine sessions share a few dozen OS threads.
"""

import asyncio
import math
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any

from repro.errors import AdmissionRejectedError, ServiceError
from repro.service.tenancy import UNIT_COUNTERS, Tenant, TenantPlatform, TenantSpec

if TYPE_CHECKING:
    from repro.lang.interpreter import CrowdSQLSession
    from repro.obs.tracer import Span
    from repro.platform.batch import BatchRunResult
    from repro.platform.platform import SimulatedPlatform
    from repro.platform.task import Task
    from repro.recovery.breakers import CircuitBreaker


class WorkUnit:
    """One crowd request queued for dispatch on behalf of a tenant."""

    __slots__ = (
        "tenant",
        "tasks",
        "redundancy",
        "complete",
        "on_batch",
        "more",
        "parent",
        "enqueued_turn",
        "result",
        "error",
        "_done",
        "_loop",
        "_future",
    )

    def __init__(
        self,
        tenant: Tenant,
        tasks: "Sequence[Task]",
        redundancy: int,
        complete: bool,
        on_batch: "Callable[[list[Task], BatchRunResult], None] | None" = None,
        more: "Callable[[], None] | None" = None,
        parent: "Span | None" = None,
    ) -> None:
        self.tenant = tenant
        self.tasks = tasks
        self.redundancy = redundancy
        self.complete = complete
        self.on_batch = on_batch
        self.more = more
        # The submitter's current span: the dispatcher runs the unit under it.
        self.parent = parent
        self.enqueued_turn = 0
        self.result: Any = None
        self.error: "BaseException | None" = None
        self._done = threading.Event()
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._future: "asyncio.Future | None" = None

    @property
    def cost(self) -> int:
        """DRR cost: the tasks the unit lists now, times redundancy (a
        streamed unit lists the rest as its run pulls them)."""
        return max(1, len(self.tasks) * self.redundancy)

    def _resolve(self) -> None:
        self._done.set()
        if self._loop is not None and self._future is not None:
            future, error, result = self._future, self.error, self.result

            def complete_future() -> None:
                if future.cancelled():
                    return
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(result)

            self._loop.call_soon_threadsafe(complete_future)

    def finish(self, result: Any) -> None:
        """Complete the unit successfully and wake every waiter."""
        self.result = result
        self._resolve()

    def fail(self, error: BaseException) -> None:
        """Complete the unit with *error*; waiters re-raise it."""
        self.error = error
        self._resolve()

    def wait(self) -> Any:
        """Block until dispatched; return the result or re-raise the error."""
        self._done.wait()
        if self.error is not None:
            raise self.error
        return self.result


class CrowdService:
    """N requester tenants sharing one simulated platform, fairly.

    Args:
        platform: The shared platform (pool, budget, scheduler, cache).
        quantum_tasks: DRR quantum — assignment credit granted to each
            backlogged tenant per round, scaled by its weight.
        breakers: Admission-control breakers (e.g.
            :class:`~repro.recovery.breakers.BudgetBreaker`,
            :class:`~repro.recovery.breakers.DeadlineBreaker`) consulted
            before each unit dispatches; an open breaker rejects the unit
            with :class:`~repro.errors.AdmissionRejectedError`. Keep these
            separate from the scheduler's own breakers — admission guards
            the *queue*, the scheduler guards *batch boundaries*.
        max_sessions: Thread cap for :meth:`aexecute`'s session pool
            (hundreds of coroutine sessions multiplex onto this many
            OS threads).
    """

    def __init__(
        self,
        platform: "SimulatedPlatform",
        *,
        quantum_tasks: int = 8,
        breakers: "Iterable[CircuitBreaker]" = (),
        max_sessions: int = 32,
    ) -> None:
        if quantum_tasks < 1:
            raise ServiceError(f"quantum_tasks must be >= 1, got {quantum_tasks}")
        if max_sessions < 1:
            raise ServiceError(f"max_sessions must be >= 1, got {max_sessions}")
        self.platform = platform
        self.metrics = platform.metrics
        self.quantum_tasks = quantum_tasks
        self.breakers = list(breakers)
        self.max_sessions = max_sessions
        self._tenants: dict[str, Tenant] = {}
        self._order: list[str] = []  # registration order — the DRR ring
        self._rr_index = 0
        self._turn = 0  # units dispatched so far (queue-wait unit)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._thread: "threading.Thread | None" = None
        self._stopping = False
        self._session_pool: "ThreadPoolExecutor | None" = None

    # ------------------------------------------------------------------ #
    # Tenant registry
    # ------------------------------------------------------------------ #

    def register(self, spec: "TenantSpec | str") -> Tenant:
        """Add a tenant; a bare string registers an unlimited weight-1 spec."""
        if isinstance(spec, str):
            spec = TenantSpec(name=spec)
        with self._lock:
            if spec.name in self._tenants:
                raise ServiceError(f"tenant {spec.name!r} already registered")
            tenant = Tenant(spec)
            self._tenants[spec.name] = tenant
            self._order.append(spec.name)
        return tenant

    def tenant(self, name: str) -> Tenant:
        """Look up a registered tenant; :class:`ServiceError` if unknown."""
        try:
            return self._tenants[name]
        except KeyError:
            raise ServiceError(f"unknown tenant {name!r}") from None

    @property
    def tenants(self) -> "list[Tenant]":
        return [self._tenants[name] for name in self._order]

    def session(
        self, tenant: "Tenant | str", **session_kwargs: Any
    ) -> "CrowdSQLSession":
        """A CrowdSQL session whose crowd work routes through this service.

        Keyword arguments (``database``, ``redundancy``, ``oracle``,
        ``inference``, ``pipeline``, ...) pass straight to
        :class:`~repro.lang.interpreter.CrowdSQLSession`.
        """
        from repro.lang.interpreter import CrowdSQLSession

        if isinstance(tenant, str):
            tenant = self.tenant(tenant)
        return CrowdSQLSession(
            platform=TenantPlatform(self, tenant), **session_kwargs
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "CrowdService":
        """Start the dispatcher thread (idempotent)."""
        if self._thread is not None:
            return self
        self._stopping = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatcher", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain queued units, then stop the dispatcher (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        thread.join(timeout=60.0)
        self._thread = None
        if self._session_pool is not None:
            self._session_pool.shutdown(wait=True)
            self._session_pool = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    def __enter__(self) -> "CrowdService":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def _enqueue(self, unit: WorkUnit) -> None:
        tenant = unit.tenant
        with self._cond:
            if self._stopping or self._thread is None:
                raise ServiceError("service is not running")
            unit.enqueued_turn = self._turn
            tenant.queue.append(unit)
            self.metrics.set_gauge(
                "service.queue_depth",
                float(len(tenant.queue)),
                labels={"tenant": tenant.name},
            )
            self._cond.notify_all()

    def submit(
        self,
        tenant: "Tenant | str",
        tasks: "Sequence[Task]",
        redundancy: int = 3,
        complete: bool = True,
        *,
        on_batch: "Callable[[list[Task], BatchRunResult], None] | None" = None,
        more: "Callable[[], None] | None" = None,
    ) -> "BatchRunResult":
        """Queue one crowd request and block until the dispatcher ran it.

        Returns the underlying
        :class:`~repro.platform.batch.BatchRunResult`. Raises whatever the
        run raised — budget exhaustion, admission rejection — in the
        *calling* thread, mirroring the plain engine path. *tasks* is the
        caller's own list, not a copy, because *more* appends to it during
        the run (:meth:`~repro.platform.batch.BatchScheduler.run`).
        """
        if isinstance(tenant, str):
            tenant = self.tenant(tenant)
        unit = WorkUnit(
            tenant, tasks, redundancy, complete, on_batch=on_batch, more=more,
            parent=self.platform.tracer.current,
        )
        self._enqueue(unit)
        return unit.wait()

    async def asubmit(
        self,
        tenant: "Tenant | str",
        tasks: "Sequence[Task]",
        redundancy: int = 3,
        complete: bool = True,
    ) -> "BatchRunResult":
        """Awaitable :meth:`submit` — the coroutine suspends, no thread blocks."""
        if isinstance(tenant, str):
            tenant = self.tenant(tenant)
        loop = asyncio.get_running_loop()
        unit = WorkUnit(tenant, tasks, redundancy, complete)
        unit._loop = loop
        unit._future = loop.create_future()
        self._enqueue(unit)
        return await unit._future

    async def aexecute(self, session: "CrowdSQLSession", sql: str) -> "list[Any]":
        """Run a SQL script for one tenant session without blocking the loop.

        Statement parsing/planning runs on a bounded thread pool; crowd
        waits block that worker thread (not the event loop), so hundreds
        of concurrent sessions need only ``max_sessions`` OS threads. The
        script's spans nest under the caller's current span.
        """
        loop = asyncio.get_running_loop()
        if self._session_pool is None:
            self._session_pool = ThreadPoolExecutor(
                max_workers=self.max_sessions,
                thread_name_prefix="repro-service-session",
            )
        tracer = self.platform.tracer
        parent = tracer.current
        if parent is None:
            return await loop.run_in_executor(self._session_pool, session.execute, sql)

        def execute() -> "list[Any]":
            tracer.adopt(parent)
            try:
                return session.execute(sql)
            finally:
                tracer.release(parent)

        return await loop.run_in_executor(self._session_pool, execute)

    # ------------------------------------------------------------------ #
    # Dispatcher
    # ------------------------------------------------------------------ #

    def _backlogged(self) -> bool:
        return any(self._tenants[name].queue for name in self._order)

    def _next_unit_locked(self) -> WorkUnit:
        """Deficit round-robin: pick the next affordable queue head.

        Classic DRR over the registration-order ring: a backlogged
        tenant's deficit grows by ``quantum × weight`` each time the
        pointer passes it; the head dispatches once covered. An idle
        tenant's deficit resets, so credit cannot be hoarded while not
        backlogged. With one tenant this degenerates to FIFO.
        """
        while True:
            tenant = self._tenants[self._order[self._rr_index]]
            if tenant.queue:
                head: WorkUnit = tenant.queue[0]
                if tenant.deficit >= head.cost:
                    tenant.deficit -= head.cost
                    tenant.queue.popleft()
                    if not tenant.queue:
                        tenant.deficit = 0.0
                    self.metrics.set_gauge(
                        "service.queue_depth",
                        float(len(tenant.queue)),
                        labels={"tenant": tenant.name},
                    )
                    return head
                tenant.deficit += self.quantum_tasks * tenant.weight
            else:
                tenant.deficit = 0.0
            self._rr_index = (self._rr_index + 1) % len(self._order)

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopping and not self._backlogged():
                    self._cond.wait()
                if self._stopping and not self._backlogged():
                    return
                unit = self._next_unit_locked()
                waited = self._turn - unit.enqueued_turn
                self._turn += 1
            self._run_unit(unit, waited)

    def _admission_reason(self, tenant: Tenant) -> "str | None":
        """Why the next unit must be refused, or None to admit."""
        if tenant.account.remaining <= 0:
            return "tenant_budget"
        scheduler = self.platform.scheduler
        for breaker in self.breakers:
            if breaker.check(self.platform, scheduler) is not None:
                return breaker.name
        return None

    def _run_unit(self, unit: WorkUnit, waited: int) -> None:
        tenant = unit.tenant
        labels = {"tenant": tenant.name}
        reason = self._admission_reason(tenant)
        if reason is not None:
            tenant.units_rejected += 1
            self.metrics.inc(
                "service.units_rejected",
                labels={"tenant": tenant.name, "reason": reason},
            )
            unit.fail(AdmissionRejectedError(tenant.name, reason))
            return
        self.metrics.inc("service.units_admitted", labels=labels)
        self.metrics.observe("service.queue_wait", float(waited), labels=labels)
        error: "BaseException | None" = None
        parent = unit.parent
        if parent is not None:
            self.platform.tracer.adopt(parent)
        # Units run one at a time, so what the shared counters gain over
        # this run is the unit's own: fold it into its tenant's totals.
        stats = self.platform.stats
        counts0 = [getattr(stats, attr) for attr in UNIT_COUNTERS]
        try:
            with self.platform.charging_account(tenant.account):
                result = self.platform.scheduler.run(
                    unit.tasks,
                    redundancy=unit.redundancy,
                    complete=unit.complete,
                    on_batch=unit.on_batch,
                    more=unit.more,
                )
        except BaseException as exc:  # surface in the submitting thread
            error = exc
        counts = tenant.account.counts
        for attr, count0 in zip(UNIT_COUNTERS, counts0, strict=True):
            counts[attr] += getattr(stats, attr) - count0
        if parent is not None:
            self.platform.tracer.release(parent)
        # A streamed unit's list grows during its run: count what it planned.
        self.metrics.inc("service.tasks_dispatched", len(unit.tasks), labels=labels)
        if error is not None:
            unit.fail(error)
            return
        tenant.units_completed += 1
        tenant.tasks_dispatched += len(unit.tasks)
        unit.finish(result)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def run_status(self) -> "dict[str, Any]":
        """The ``/run`` tenant view: per-tenant ledgers, queues, fairness."""
        platform_budget = self.platform.budget
        return {
            "service": {
                "running": self.running,
                "tenants": len(self._order),
                "turns": self._turn,
                "quantum_tasks": self.quantum_tasks,
            },
            "platform": {
                "budget": (
                    None if math.isinf(platform_budget) else platform_budget
                ),
                "spent": self.platform.stats.cost_spent,
                "answers_collected": self.platform.stats.answers_collected,
                "tasks_published": self.platform.stats.tasks_published,
            },
            "breakers": [
                {"name": b.name, "tripped": b.tripped}
                for b in self.breakers
                if b.tripped
            ],
            "tenants": {
                name: self._tenants[name].status() for name in self._order
            },
        }

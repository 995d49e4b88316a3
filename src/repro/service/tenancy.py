"""Tenant model: specs, budget accounts, and per-tenant platform views.

A tenant is one requester sharing the platform. Its
:class:`TenantAccount` is the per-tenant budget ledger the platform's
serialized ``_charge`` checks *atomically with* the global budget; its
:class:`TenantPlatform` is the façade a tenant's
:class:`~repro.lang.interpreter.CrowdSQLSession` holds — identical API
to :class:`~repro.platform.platform.SimulatedPlatform`, but every crowd
request is routed through the service's fair-share dispatcher and every
cost readback is scoped to the tenant's own ledger.
"""

import math
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import BudgetExceededError, ConfigurationError

if TYPE_CHECKING:
    from repro.platform.batch import BatchRunResult
    from repro.platform.platform import PlatformStats
    from repro.platform.task import Answer, Task
    from repro.service.service import CrowdService


@dataclass(frozen=True)
class TenantSpec:
    """Declared shape of one tenant.

    Attributes:
        name: Unique tenant name (metrics label, registry key).
        budget: Tenant spend ceiling in task-reward currency
            (``inf`` = bounded only by the platform budget).
        weight: Fair-share weight; a weight-2 tenant receives twice the
            dispatch quantum of a weight-1 tenant per round.
    """

    name: str
    budget: float = math.inf
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if not self.budget > 0:  # NaN too: it would pass every budget check
            raise ConfigurationError(
                f"tenant {self.name!r}: budget must be > 0, got {self.budget}"
            )
        if not self.weight > 0:
            raise ConfigurationError(
                f"tenant {self.name!r}: weight must be > 0, got {self.weight}"
            )


class TenantAccount:
    """Per-tenant budget ledger.

    Mutated only inside the platform's serialized ``_charge`` (and
    ``cache_finish``) while this tenant's work unit is active, so
    ``check`` + ``add`` are atomic with the global budget check — the
    property that makes joint overspend impossible.
    """

    def __init__(self, name: str, budget: float = math.inf) -> None:
        self.name = name
        self.budget = budget
        self.spent = 0.0
        self.cost_saved = 0.0

    @property
    def remaining(self) -> float:
        return self.budget - self.spent

    def check(self, amount: float) -> None:
        """Raise without mutating when the ledger cannot cover *amount*."""
        if self.spent + amount > self.budget + 1e-12:
            raise BudgetExceededError(
                f"tenant {self.name!r} budget {self.budget:.4f} exhausted "
                f"(spent {self.spent:.4f}, need {amount:.4f} more)"
            )

    def add(self, amount: float) -> None:
        """Book a charge that already passed :meth:`check`."""
        self.spent += amount

    def credit_saved(self, saved: float) -> None:
        """Book cache-reuse savings (cache hits are free, never charged)."""
        self.cost_saved += saved


class _TenantStats:
    """Tenant-scoped view of :class:`PlatformStats`.

    ``cost_spent`` reads the tenant's own ledger — the executor derives
    per-statement crowd cost from before/after deltas of this attribute,
    which must not see other tenants' concurrent spend. Everything else
    delegates to the shared platform stats.
    """

    def __init__(self, stats: "PlatformStats", account: TenantAccount) -> None:
        self._stats = stats
        self._account = account

    @property
    def cost_spent(self) -> float:
        return self._account.spent

    @property
    def cache_cost_saved(self) -> float:
        return self._account.cost_saved

    def __getattr__(self, name: str) -> Any:
        return getattr(self._stats, name)


class TenantScheduler:
    """Scheduler façade: ``run`` goes through the fair-share dispatcher.

    The streaming executor drives crowd waves through
    ``platform.scheduler.run(tasks, ..., on_batch=..., more=...)``;
    routing that call through the service forwards the hooks and the
    caller's own task list, which ``more`` grows (they fire on the
    dispatcher thread while the session thread is blocked inside
    ``run``, exactly the threading contract of the plain path).
    Everything else (``simulated_clock``, config, breakers) reads the
    real shared scheduler.
    """

    def __init__(self, service: "CrowdService", tenant: "Tenant") -> None:
        self._service = service
        self._tenant = tenant

    def run(
        self,
        tasks: "Sequence[Task]",
        redundancy: int = 3,
        complete: bool = True,
        *,
        on_batch: "Callable[[list[Task], BatchRunResult], None] | None" = None,
        more: "Callable[[], None] | None" = None,
    ) -> "BatchRunResult":
        """Queue one scheduler run through the service's fair-share lanes."""
        return self._service.submit(
            self._tenant,
            tasks,
            redundancy=redundancy,
            complete=complete,
            on_batch=on_batch,
            more=more,
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._service.platform.scheduler, name)


class TenantPlatform:
    """Per-tenant façade over the shared :class:`SimulatedPlatform`.

    Drop-in for the ``platform`` argument of a
    :class:`~repro.lang.interpreter.CrowdSQLSession`: crowd collection
    routes through the service dispatcher, cost/stat readbacks are
    tenant-scoped, and all read-only surface (pool, metrics, tracer,
    pricing, answer log) delegates to the shared platform.
    """

    def __init__(self, service: "CrowdService", tenant: "Tenant") -> None:
        self._service = service
        self._tenant = tenant
        self._stats = _TenantStats(service.platform.stats, tenant.account)
        self.scheduler = TenantScheduler(service, tenant)
        # Per session, not shared: another session's open operator span
        # must not silence this one's.
        self.operator_open = False

    @property
    def tenant(self) -> "Tenant":
        return self._tenant

    @property
    def stats(self) -> _TenantStats:
        return self._stats

    @property
    def budget(self) -> float:
        return self._tenant.account.budget

    @property
    def remaining_budget(self) -> float:
        shared = self._service.platform.remaining_budget
        return min(shared, self._tenant.account.remaining)

    def collect(
        self,
        tasks: "Sequence[Task]",
        redundancy: int = 3,
        complete: bool = True,
    ) -> "dict[str, list[Answer]]":
        """Collect answers for *tasks* via the service dispatcher."""
        return self._service.submit(
            self._tenant, tasks, redundancy=redundancy, complete=complete
        ).answers

    def __getattr__(self, name: str) -> Any:
        return getattr(self._service.platform, name)


class Tenant:
    """One registered requester: spec + ledger + dispatch queue.

    The queue and deficit are owned by the service (mutated only under
    its condition lock); the account is mutated only under the
    platform's charge lock.
    """

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.account = TenantAccount(spec.name, spec.budget)
        self.queue: deque = deque()
        self.deficit = 0.0
        self.units_completed = 0
        self.units_rejected = 0
        self.tasks_dispatched = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def weight(self) -> float:
        return self.spec.weight

    def status(self) -> dict[str, Any]:
        """The ``/run`` tenant view entry."""
        budget = self.account.budget
        return {
            "budget": None if math.isinf(budget) else budget,
            "spent": self.account.spent,
            "remaining": None if math.isinf(budget) else self.account.remaining,
            "cache_cost_saved": self.account.cost_saved,
            "weight": self.weight,
            "queue_depth": len(self.queue),
            "units_completed": self.units_completed,
            "units_rejected": self.units_rejected,
            "tasks_dispatched": self.tasks_dispatched,
        }

"""Multi-tenant crowd service: many requester sessions, one platform.

The paper's task-assignment section assumes many requesters compete for
the same finite worker pool — an effect a single-job library can never
exhibit. :class:`CrowdService` wraps one shared
:class:`~repro.platform.platform.SimulatedPlatform` (and its worker
pool, batch scheduler, and answer cache) behind a tenant registry with:

* per-tenant budgets enforced atomically with the platform's global
  budget (two tenants can never jointly overspend),
* a deficit-round-robin fair-share dispatcher feeding the existing
  batch lanes (a heavy tenant cannot starve a light one),
* admission control via the existing circuit breakers,
* per-tenant labeled metrics and a ``/run`` tenant view.

Determinism contract: a single-tenant service run at a given seed is
bit-identical to the plain engine path — the dispatcher degenerates to
FIFO and adds no RNG draws of its own.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "service": ("CrowdService", "WorkUnit"),
        "tenancy": ("Tenant", "TenantAccount", "TenantPlatform", "TenantScheduler", "TenantSpec"),
    },
)

"""Tests for the multi-tenant crowd service (ISSUE 10 tentpole).

Pins the concurrent-tenant invariants:

* two tenants can never jointly overspend the shared platform budget
  (the serialized charge), and tenant ledgers always sum to the
  platform's spend;
* per-tenant budgets bound each tenant independently;
* fair share: deficit round-robin bounds how long a light tenant's unit
  waits behind a heavy tenant's backlog, proportionally to weights;
* cache hits are free for everyone and never credit the wrong tenant's
  spend ledger;
* a single-tenant service run is bit-identical to the plain engine path
  at the same seed (barrier and pipelined executors);
* admission control rejects units once a breaker opens.
"""

import asyncio
import threading
import time

import pytest

from repro.data.database import Database
from repro.errors import (
    AdmissionRejectedError,
    BudgetExceededError,
    ConfigurationError,
    ServiceError,
)
from repro.data.schema import SchemaBuilder
from repro.lang.executor import CrowdOracle
from repro.lang.interpreter import CrowdSQLSession
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import render_prometheus
from repro.platform.batch import BatchConfig
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.recovery.breakers import BudgetBreaker
from repro.service import CrowdService, TenantSpec, WorkUnit
from repro.workers.pool import WorkerPool

SCRIPT = """
CREATE TABLE films (title STRING NOT NULL, score FLOAT, PRIMARY KEY (title));
INSERT INTO films VALUES ('a', 1.0), ('b', 2.0), ('c', 3.0);
CREATE TABLE imports (listing STRING NOT NULL, PRIMARY KEY (listing));
INSERT INTO imports VALUES ('a'), ('b');
SELECT listing, title FROM imports CROWDJOIN films ON CROWDEQUAL(listing, title);
SELECT title FROM films CROWDORDER BY score LIMIT 2;
"""


def make_platform(seed=11, budget=float("inf"), metrics=None, pool_size=8):
    pool = WorkerPool.uniform(pool_size, 0.9, seed=seed)
    return SimulatedPlatform(
        pool,
        budget=budget,
        seed=seed + 1,
        batch=BatchConfig(batch_size=8, max_parallel=4, seed=seed + 2),
        metrics=metrics,
    )


def choice_tasks(n, tag, options=("yes", "no")):
    return [
        Task(TaskType.SINGLE_CHOICE, question=f"{tag} q{i}?", options=options)
        for i in range(n)
    ]


class TestTenantRegistry:
    def test_register_and_lookup(self):
        service = CrowdService(make_platform())
        tenant = service.register(TenantSpec("alice", budget=5.0, weight=2.0))
        assert service.tenant("alice") is tenant
        assert tenant.account.remaining == 5.0
        assert service.tenants == [tenant]

    def test_duplicate_rejected(self):
        service = CrowdService(make_platform())
        service.register("alice")
        with pytest.raises(ServiceError, match="already registered"):
            service.register("alice")

    def test_unknown_tenant(self):
        with pytest.raises(ServiceError, match="unknown tenant"):
            CrowdService(make_platform()).tenant("nobody")

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            TenantSpec("")
        with pytest.raises(ConfigurationError):
            TenantSpec("a", budget=0.0)
        # NaN would pass every `spent + amount > budget` check.
        with pytest.raises(ConfigurationError, match="budget must be > 0"):
            TenantSpec("a", budget=float("nan"))
        with pytest.raises(ConfigurationError):
            TenantSpec("a", weight=0.0)

    def test_submit_requires_running_service(self):
        service = CrowdService(make_platform())
        tenant = service.register("alice")
        with pytest.raises(ServiceError, match="not running"):
            service.submit(tenant, choice_tasks(1, "x"), redundancy=1)


def run_plain(seed, pipeline=False):
    platform = make_platform(seed)
    session = CrowdSQLSession(
        database=Database(), platform=platform, redundancy=3, pipeline=pipeline
    )
    results = session.execute(SCRIPT)
    return {
        "rows": [r.rows for r in results if hasattr(r, "rows")],
        "cost": platform.stats.cost_spent,
        "answers": platform.stats.answers_collected,
        "published": platform.stats.tasks_published,
        "values": [a.value for a in platform.answers],
    }


def run_service(seed, pipeline=False):
    platform = make_platform(seed)
    with CrowdService(platform) as service:
        tenant = service.register("solo")
        session = service.session(
            tenant, database=Database(), redundancy=3, pipeline=pipeline
        )
        results = session.execute(SCRIPT)
        out = {
            "rows": [r.rows for r in results if hasattr(r, "rows")],
            "cost": platform.stats.cost_spent,
            "answers": platform.stats.answers_collected,
            "published": platform.stats.tasks_published,
            "values": [a.value for a in platform.answers],
        }
        assert tenant.account.spent == pytest.approx(platform.stats.cost_spent)
    return out


class TestSingleTenantBitIdentity:
    @pytest.mark.parametrize("pipeline", [False, True])
    def test_service_matches_plain_engine(self, pipeline):
        plain = run_plain(31, pipeline=pipeline)
        via_service = run_service(31, pipeline=pipeline)
        assert via_service == plain

    def test_service_replay_is_deterministic(self):
        assert run_service(47) == run_service(47)


class TestJointBudget:
    def test_concurrent_tenants_cannot_jointly_overspend(self):
        platform = make_platform(seed=5, budget=1.0, pool_size=16)
        with CrowdService(platform) as service:
            alice = service.register("alice")
            bob = service.register("bob")
            exhausted = []

            def spend(tenant, tag):
                try:
                    for i in range(10):
                        service.submit(
                            tenant, choice_tasks(5, f"{tag}{i}"), redundancy=2
                        )
                except BudgetExceededError:
                    exhausted.append(tag)

            threads = [
                threading.Thread(target=spend, args=(alice, "a")),
                threading.Thread(target=spend, args=(bob, "b")),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            total = platform.stats.cost_spent
            assert total <= 1.0 + 1e-9  # never jointly overspent
            assert alice.account.spent + bob.account.spent == pytest.approx(total)
            assert len(exhausted) == 2  # both eventually hit the shared wall

    def test_tenant_budget_bounds_tenant_only(self):
        platform = make_platform(seed=7, pool_size=16)
        with CrowdService(platform) as service:
            small = service.register(TenantSpec("small", budget=0.05))
            big = service.register(TenantSpec("big"))
            with pytest.raises(BudgetExceededError, match="tenant 'small'"):
                service.submit(small, choice_tasks(10, "s"), redundancy=3)
            assert small.account.spent <= 0.05 + 1e-12
            # The other tenant is untouched by small's exhaustion.
            result = service.submit(big, choice_tasks(2, "b"), redundancy=2)
            assert len(result.answers) == 2
            assert big.account.spent > 0

    def test_failed_charge_books_nothing_to_either_ledger(self):
        platform = make_platform(seed=9)
        account_spend_before = 0.123
        with CrowdService(platform) as service:
            tenant = service.register(TenantSpec("t", budget=1.0))
            tenant.account.spent = account_spend_before
            platform.budget = 0.0  # next charge must fail the global check
            with pytest.raises(BudgetExceededError):
                service.submit(tenant, choice_tasks(1, "x"), redundancy=1)
            assert tenant.account.spent == account_spend_before
            assert platform.stats.cost_spent == 0


class TestFairShare:
    def _drain_order(self, service, units):
        """Tenant names in dispatch order for manually queued *units*."""
        for unit in units:
            unit.tenant.queue.append(unit)
        order = []
        while any(t.queue for t in service.tenants):
            order.append(service._next_unit_locked().tenant.name)
        return order

    def test_equal_weights_alternate(self):
        service = CrowdService(make_platform(), quantum_tasks=8)
        heavy = service.register("heavy")
        light = service.register("light")
        units = [WorkUnit(heavy, choice_tasks(4, f"h{i}"), 2, True) for i in range(6)]
        units += [WorkUnit(light, choice_tasks(4, f"l{i}"), 2, True) for i in range(2)]
        order = self._drain_order(service, units)
        # Light's two units both dispatch within the first four turns:
        # a 3x backlog cannot starve an equal-weight tenant.
        assert set(order[:4]) == {"heavy", "light"}
        assert order.count("light") == 2 and order.count("heavy") == 6
        assert order.index("light") <= 1

    def test_weighted_share(self):
        service = CrowdService(make_platform(), quantum_tasks=8)
        fast = service.register(TenantSpec("fast", weight=2.0))
        slow = service.register(TenantSpec("slow", weight=1.0))
        units = [WorkUnit(fast, choice_tasks(4, f"f{i}"), 2, True) for i in range(9)]
        units += [WorkUnit(slow, choice_tasks(4, f"s{i}"), 2, True) for i in range(9)]
        order = self._drain_order(service, units)
        # While both stay backlogged, dispatches track the 2:1 weights.
        prefix = order[:9]
        assert prefix.count("fast") == 6 and prefix.count("slow") == 3

    def test_single_tenant_is_fifo(self):
        service = CrowdService(make_platform(), quantum_tasks=1)
        solo = service.register("solo")
        units = [WorkUnit(solo, choice_tasks(3, f"u{i}"), 3, True) for i in range(5)]
        for unit in units:
            solo.queue.append(unit)
        drained = []
        while solo.queue:
            drained.append(service._next_unit_locked())
        assert drained == units  # strict submission order, always


class TestCacheAccounting:
    def test_cache_hit_never_charges_the_reusing_tenant(self):
        from repro.platform.cache import AnswerCache

        platform = make_platform(seed=13)
        platform.attach_cache(AnswerCache())
        with CrowdService(platform) as service:
            payer = service.register("payer")
            reuser = service.register("reuser")
            questions = [("q alpha?", ("yes", "no")), ("q beta?", ("yes", "no"))]

            def tasks():
                return [
                    Task(TaskType.SINGLE_CHOICE, question=q, options=opts)
                    for q, opts in questions
                ]

            first = service.submit(payer, tasks(), redundancy=3)
            paid = payer.account.spent
            assert paid > 0
            second = service.submit(reuser, tasks(), redundancy=3)
            # Identical questions replay from the shared cache: free for
            # the reuser, and never billed back to the payer either.
            assert reuser.account.spent == 0.0
            assert payer.account.spent == paid
            assert reuser.account.cost_saved == pytest.approx(paid)
            assert platform.stats.cost_spent == pytest.approx(paid)
            # Same answer values replayed.
            first_values = [
                [a.value for a in answers] for answers in first.answers.values()
            ]
            second_values = [
                [a.value for a in answers] for answers in second.answers.values()
            ]
            assert first_values == second_values


class TestAdmissionControl:
    def test_open_breaker_rejects_units(self):
        platform = make_platform(seed=17, budget=0.30, pool_size=16)
        breaker = BudgetBreaker(reserve=0.25)
        with CrowdService(platform, breakers=[breaker]) as service:
            tenant = service.register("t")
            service.submit(tenant, choice_tasks(3, "warm"), redundancy=2)
            assert platform.remaining_budget <= 0.25
            with pytest.raises(AdmissionRejectedError, match="breaker:budget"):
                service.submit(tenant, choice_tasks(1, "over"), redundancy=1)
            assert tenant.units_rejected == 1
            status = service.run_status()
            assert status["breakers"][0]["name"] == "breaker:budget"

    def test_exhausted_tenant_rejected_at_admission(self):
        platform = make_platform(seed=19)
        with CrowdService(platform) as service:
            tenant = service.register(TenantSpec("t", budget=0.02))
            service.submit(tenant, choice_tasks(1, "a"), redundancy=2)
            assert tenant.account.remaining <= 0
            with pytest.raises(AdmissionRejectedError, match="tenant_budget"):
                service.submit(tenant, choice_tasks(1, "b"), redundancy=1)


class TestAsyncFacade:
    def test_asubmit_and_aexecute_concurrent_sessions(self):
        metrics = MetricsRegistry(enabled=True)
        platform = make_platform(seed=23, metrics=metrics, pool_size=16)

        async def drive(service):
            tenants = [service.register(f"t{i}") for i in range(4)]
            direct = service.asubmit(tenants[0], choice_tasks(2, "direct"), redundancy=2)
            sessions = [
                service.session(tenant, database=Database(), redundancy=2)
                for tenant in tenants
            ]
            scripts = [
                service.aexecute(session, SCRIPT) for session in sessions
            ]
            results = await asyncio.gather(direct, *scripts)
            return tenants, results

        with CrowdService(platform) as service:
            tenants, results = asyncio.run(drive(service))
            assert len(results[0].answers) == 2  # the direct asubmit
            for script_results in results[1:]:
                crowd = [r for r in script_results if hasattr(r, "rows")]
                assert crowd  # every session's SELECTs produced rows
            assert sum(t.account.spent for t in tenants) == pytest.approx(
                platform.stats.cost_spent
            )

    def test_asubmit_surfaces_errors(self):
        platform = make_platform(seed=29)

        async def drive(service):
            tenant = service.register(TenantSpec("t", budget=0.01))
            with pytest.raises(BudgetExceededError):
                await service.asubmit(tenant, choice_tasks(5, "x"), redundancy=3)

        with CrowdService(platform) as service:
            asyncio.run(drive(service))


class TestStreamedStatements:
    TOPK = (
        "SELECT name, price FROM items WHERE CROWDFILTER(name, 'keep?') "
        "ORDER BY price LIMIT 5"
    )

    @staticmethod
    def _database() -> Database:
        database = Database()
        database.create_table(
            "items",
            SchemaBuilder().string("name").integer("price").build(),
            rows=[{"name": f"item {i}", "price": (i * 37) % 100} for i in range(80)],
        )
        return database

    def test_each_statement_counts_only_its_own_cancellations(self):
        """Two tenants' streamed top-ks, queued while the dispatcher is busy,
        each count their own cancellations: the per-statement counts sum to
        the platform's totals."""
        platform = make_platform(seed=43)
        oracle = CrowdOracle(filter_fn=lambda value, _q: int(value.split()[-1]) % 3 == 0)
        entered, release = threading.Event(), threading.Event()

        def hold(batch, run):
            entered.set()
            release.wait(10)

        results = {}
        with CrowdService(platform) as service:
            service.register("holder")
            sessions = {}
            for name in ("alice", "bob"):
                service.register(name)
                sessions[name] = service.session(
                    name, database=self._database(), redundancy=3, oracle=oracle,
                    pipeline=True,
                )
            holder = threading.Thread(
                target=service.submit,
                args=("holder", choice_tasks(1, "hold")),
                kwargs={"redundancy": 1, "on_batch": hold},
            )
            holder.start()
            assert entered.wait(10)
            clients = [
                threading.Thread(
                    target=lambda name=name: results.update(
                        {name: sessions[name].query(self.TOPK)}
                    )
                )
                for name in sessions
            ]
            for client in clients:
                client.start()
            for _ in range(1000):
                if all(service.tenant(name).queue for name in sessions):
                    break
                time.sleep(0.01)
            release.set()
            for thread in (holder, *clients):
                thread.join(10)
                assert not thread.is_alive()
        stats = [results[name].stats for name in sessions]
        assert sum(s.tasks_cancelled for s in stats) == platform.stats.tasks_cancelled > 0
        assert sum(s.cost_avoided for s in stats) == pytest.approx(
            platform.stats.cancel_cost_refunded
        )
        # A streamed unit's dispatched tasks are the ones it planned.
        for name, s in zip(sessions, stats):
            assert service.tenant(name).tasks_dispatched == s.crowd_questions


class TestObservability:
    def test_per_tenant_labeled_metrics_and_exposition(self):
        metrics = MetricsRegistry(enabled=True)
        platform = make_platform(seed=37, metrics=metrics)
        with CrowdService(platform) as service:
            alice = service.register("alice")
            service.submit(alice, choice_tasks(3, "m"), redundancy=2)
        key = 'service.tasks_dispatched{tenant="alice"}'
        assert metrics.counters[key].value == 3
        assert metrics.counters['service.units_admitted{tenant="alice"}'].value == 1
        text = render_prometheus(metrics)
        assert 'service_tasks_dispatched_total{tenant="alice"} 3' in text
        assert 'service_queue_wait_units_count{tenant="alice"} 1' in text

    def test_run_status_tenant_view(self):
        platform = make_platform(seed=41)
        with CrowdService(platform) as service:
            service.register(TenantSpec("alice", budget=2.0, weight=3.0))
            service.submit("alice", choice_tasks(2, "rs"), redundancy=2)
            status = service.run_status()
        view = status["tenants"]["alice"]
        assert view["budget"] == 2.0
        assert view["spent"] == pytest.approx(platform.stats.cost_spent)
        assert view["weight"] == 3.0
        assert view["units_completed"] == 1
        assert view["tasks_dispatched"] == 2
        assert status["service"]["tenants"] == 1
        assert status["platform"]["spent"] == pytest.approx(
            platform.stats.cost_spent
        )

    def test_stop_drains_queued_units(self):
        platform = make_platform(seed=43)
        service = CrowdService(platform).start()
        tenant = service.register("t")
        results = []
        worker = threading.Thread(
            target=lambda: results.append(
                service.submit(tenant, choice_tasks(2, "drain"), redundancy=2)
            )
        )
        worker.start()
        service.stop()
        worker.join(timeout=10)
        assert results and len(results[0].answers) == 2

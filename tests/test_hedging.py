"""Tests for hedged execution.

Covers the contract end-to-end: online completion models and straggler
detection, first-answer-wins hedge resolution with cancellation refunds,
seed-replay and kill-and-resume bit-identity, cache/hedge interaction,
and the per-outcome ``batch.hedges_*`` counters.
"""

import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.faults import straggler_spike_plan
from repro.faults.chaos import run_chaos, verify_kill_resume
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import DESCRIPTOR_INDEX, parse_exposition, render_prometheus
from repro.platform.batch import BatchConfig, HedgeState
from repro.platform.cache import AnswerCache
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import single_choice
from repro.recovery.checkpoint import restore_scheduler, snapshot_scheduler
from repro.workers.pool import WorkerPool

HEDGE_CFG = dict(
    batch_size=16,
    max_parallel=4,
    hedge_enabled=True,
    hedge_min_samples=8,
)


def make_platform(seed=7, pool_size=24, batch=None, plan=None, metrics=False,
                  cache=False):
    pool = WorkerPool.heterogeneous(
        pool_size, accuracy_low=0.7, accuracy_high=0.95, seed=seed
    )
    platform = SimulatedPlatform(
        pool,
        seed=seed + 1,
        batch=batch,
        metrics=MetricsRegistry(enabled=True) if metrics else None,
    )
    if plan is not None:
        platform.attach_faults(plan)
    if cache:
        platform.attach_cache(AnswerCache())
    return platform


def make_tasks(n, prefix="item"):
    return [
        single_choice(f"{prefix} {i}?", ("yes", "no"), truth="yes" if i % 2 else "no")
        for i in range(n)
    ]


def stream(platform, tasks, answers):
    """Answer tuples keyed by workload position and within-pool worker index."""
    widx = {w.worker_id: i for i, w in enumerate(platform.pool)}
    return [
        (ti, widx[a.worker_id], a.value, round(a.submitted_at, 9))
        for ti, task in enumerate(tasks)
        for a in answers[task.task_id]
    ]


def hedge_stats(platform):
    s = platform.stats
    return (
        s.hedges_launched,
        s.hedges_won,
        s.hedges_lost,
        s.hedges_cancelled,
        round(s.hedge_cost_refunded, 9),
    )


class TestHedgeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hedge_min_samples": 1},
            {"hedge_min_samples": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatchConfig(hedge_enabled=True, **kwargs)

    def test_hedging_off_by_default(self):
        assert not BatchConfig().hedge_enabled
        platform = make_platform(batch=BatchConfig(seed=1))
        assert platform.scheduler.hedge_state is None

    def test_enabled_config_builds_state(self):
        platform = make_platform(batch=BatchConfig(seed=1, **HEDGE_CFG))
        state = platform.scheduler.hedge_state
        assert isinstance(state, HedgeState)
        assert state.min_samples == 8
        assert state.percentile == pytest.approx(0.9)


class TestHedgeState:
    def test_cold_model_has_no_threshold(self):
        state = HedgeState(min_samples=5)
        assert state.threshold("single_choice") is None
        for d in (10.0, 12.0, 11.0, 13.0):
            state.observe("single_choice", d)
        assert state.threshold("single_choice") is None  # 4 < 5

    def test_warm_model_thresholds_above_body(self):
        state = HedgeState(min_samples=5, percentile=0.9)
        for d in (10.0, 12.0, 11.0, 13.0, 14.0, 9.0):
            state.observe("single_choice", d)
        threshold = state.threshold("single_choice")
        assert threshold is not None and threshold > 13.0

    def test_nonfinite_observations_ignored(self):
        state = HedgeState(min_samples=2)
        state.observe("single_choice", float("nan"))
        state.observe("single_choice", float("inf"))
        state.observe("single_choice", -3.0)
        state.observe("single_choice", 0.0)
        assert state.threshold("single_choice") is None

    def test_export_restore_round_trip(self):
        state = HedgeState(min_samples=3, percentile=0.8)
        for d in (10.0, 20.0, 30.0, 40.0):
            state.observe("single_choice", d)
        copy = HedgeState(min_samples=3, percentile=0.8)
        copy.restore_state(state.export_state())
        assert copy.threshold("single_choice") == pytest.approx(
            state.threshold("single_choice")
        )


class TestHedgeDeterminism:
    def _run(self, seed, hedge=True, min_samples=8):
        cfg = dict(HEDGE_CFG, hedge_enabled=hedge, hedge_min_samples=min_samples)
        platform = make_platform(
            seed=seed,
            batch=BatchConfig(seed=seed + 50, **cfg),
            plan=straggler_spike_plan(seed, rate=0.3, multiplier=20.0),
        )
        tasks = make_tasks(48)
        run = platform.scheduler.run(tasks, redundancy=3)
        return stream(platform, tasks, run.answers), run.makespan, hedge_stats(platform)

    def test_seed_replay_is_bit_identical(self):
        first = self._run(seed=11)
        second = self._run(seed=11)
        assert first == second
        assert first[2][0] > 0  # hedges actually fired

    def test_different_seeds_differ(self):
        assert self._run(seed=11)[0] != self._run(seed=12)[0]

    def test_cold_model_never_perturbs_the_run(self):
        # min_samples larger than the workload: hedging is armed but never
        # fires, so the answer stream is bit-identical to hedging off.
        off = self._run(seed=5, hedge=False)
        cold = self._run(seed=5, hedge=True, min_samples=10_000)
        assert cold[0] == off[0]
        assert cold[1] == pytest.approx(off[1])
        assert cold[2][0] == 0


class TestHedgeOutcomes:
    def _run(self, seed=9, hedge=True, n_tasks=60):
        cfg = dict(HEDGE_CFG, hedge_enabled=hedge)
        platform = make_platform(
            seed=seed,
            batch=BatchConfig(seed=seed + 50, **cfg),
            plan=straggler_spike_plan(seed, rate=0.3, multiplier=20.0),
            metrics=True,
        )
        run = platform.scheduler.run(make_tasks(n_tasks), redundancy=3)
        return platform, run

    def test_hedging_cuts_makespan_under_straggler_spikes(self):
        _, unhedged = self._run(hedge=False)
        platform, hedged = self._run(hedge=True)
        assert platform.stats.hedges_launched > 0
        assert hedged.makespan < unhedged.makespan

    def test_outcomes_partition_and_refunds_account(self):
        platform, _ = self._run()
        s = platform.stats
        assert s.hedges_launched == s.hedges_won + s.hedges_lost + s.hedges_cancelled
        # Won and lost hedges each cancel exactly one completed copy whose
        # reward is refunded; a faulted ("cancelled") copy was never owed.
        reward = 0.01
        assert s.hedge_cost_refunded == pytest.approx(
            (s.hedges_won + s.hedges_lost) * reward
        )

    def test_losing_copies_are_never_charged(self):
        # Every commit pays one reward; hedge copies that lose are cancelled
        # before payment, so total spend is answers_collected * reward.
        platform, _ = self._run()
        s = platform.stats
        assert s.hedges_won + s.hedges_lost > 0
        assert s.cost_spent == pytest.approx(s.answers_collected * 0.01)

    def test_cancelled_hedges_do_not_count_as_faults(self):
        # Straggler spikes never fault by themselves (no timeout configured),
        # so any timeout/abandonment here would be hedge-accounting leakage.
        platform, _ = self._run()
        assert platform.stats.assignments_timed_out == 0
        assert platform.stats.assignments_abandoned == 0

    def test_summary_mentions_hedges(self):
        platform, _ = self._run()
        summary = platform.stats.batch_summary()
        assert "hedge" in summary

    def test_labeled_hedge_family_renders(self):
        """Each hedge outcome renders as its own ``batch_hedges_<outcome>_total``."""
        platform, _ = self._run()
        s = platform.stats
        text = render_prometheus(platform.metrics)
        families = parse_exposition(text)
        by_outcome = {
            outcome: families[f"batch_hedges_{outcome}_total"]["samples"][0][2]
            for outcome in ("won", "lost", "cancelled")
        }
        assert sum(by_outcome.values()) == s.hedges_launched
        assert by_outcome["won"] == s.hedges_won

    def test_hedge_descriptors_registered(self):
        for name in (
            "batch.hedges_launched",
            "batch.hedges_won",
            "batch.hedges_lost",
            "batch.hedges_cancelled",
            "batch.hedge_cost_refunded",
        ):
            assert name in DESCRIPTOR_INDEX, name
        assert DESCRIPTOR_INDEX["batch.hedges_won"].prom_name == "batch_hedges_won_total"
        assert DESCRIPTOR_INDEX["batch.hedges_won"].kind == "counter"


class TestHedgeCacheInteraction:
    def _platform(self, seed=13):
        return make_platform(
            seed=seed,
            batch=BatchConfig(seed=seed + 50, **HEDGE_CFG),
            plan=straggler_spike_plan(seed, rate=0.3, multiplier=20.0),
            cache=True,
        )

    def test_duplicate_pair_is_one_cache_entry(self):
        platform = self._platform()
        tasks = make_tasks(40) + make_tasks(2)  # last two duplicate the first two
        run = platform.scheduler.run(tasks, redundancy=3)
        # 40 canonical misses; the dup pair coalesced in flight — a hedge on
        # the canonical copy never splits it into two logical tasks.
        assert platform.stats.cache_misses == 40
        assert platform.stats.hedges_launched > 0
        front, back = stream(platform, tasks[:2], run.answers), stream(
            platform, tasks[-2:], run.answers
        )
        assert front == back  # duplicates share the canonical answers

    def test_warm_cache_hits_never_hedge(self):
        platform = self._platform()
        platform.scheduler.run(make_tasks(40), redundancy=3)
        launched = platform.stats.hedges_launched
        dispatched = platform.stats.assignments_dispatched
        assert launched > 0
        rerun = platform.scheduler.run(make_tasks(40), redundancy=3)
        # All hits: nothing dispatched, and in particular nothing hedged.
        assert platform.stats.assignments_dispatched == dispatched
        assert platform.stats.hedges_launched == launched
        assert platform.stats.cache_hits == 40
        assert all(len(a) == 3 for a in rerun.answers.values())


class TestHedgeCheckpoint:
    def test_snapshot_carries_observations_and_stage(self):
        platform = make_platform(batch=BatchConfig(seed=1, **HEDGE_CFG))
        scheduler = platform.scheduler
        for d in (10.0, 20.0, 30.0):
            scheduler.hedge_state.observe("single_choice", d)
        state = snapshot_scheduler(scheduler)
        assert state["hedge"]["observations"]["single_choice"] == [10.0, 20.0, 30.0]

    def test_restore_refuses_hedge_windows_without_hedging(self):
        # The config alone decides whether a run hedges: a snapshot of a
        # hedging run cannot turn hedging on, and nothing is rewound.
        donor = make_platform(batch=BatchConfig(seed=1, **HEDGE_CFG)).scheduler
        for d in (10.0, 20.0, 30.0):
            donor.hedge_state.observe("single_choice", d)
        donor._clock = 42.0
        target = make_platform(batch=BatchConfig(seed=1)).scheduler
        with pytest.raises(CheckpointError, match="hedge_enabled=False"):
            restore_scheduler(target, snapshot_scheduler(donor))
        assert target.hedge_state is None
        assert target.simulated_clock == 0.0

    def test_legacy_snapshot_restores_cleanly(self):
        target = make_platform(batch=BatchConfig(seed=1)).scheduler
        # An earlier release also wrote the scheduler's deadline stage.
        restore_scheduler(
            target,
            {"clock": 5.0, "streams": 3, "batches_run": 1, "deadline_stage": "normal"},
        )
        assert target.hedge_state is None
        assert (target.simulated_clock, target.batches_run) == (5.0, 1)


class TestKillResumeWithHedging:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_bit_identity(self, seed, tmp_path):
        assert verify_kill_resume(seed, str(tmp_path), mitigation="hedge")

    def test_unknown_mitigation_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_chaos(0, mitigation="retry-harder")
        with pytest.raises(ConfigurationError):
            verify_kill_resume(0, str(tmp_path), mitigation="retry-harder")


class TestChaosMitigation:
    def test_hedged_chaos_replays_bit_identically(self):
        a = run_chaos(1, n_tasks=16, n_workers=8, mitigation="hedge")
        b = run_chaos(1, n_tasks=16, n_workers=8, mitigation="hedge")
        assert a.digest == b.digest
        assert a.mitigation == "hedge"
        assert "mitigation hedge" in a.summary()

    def test_report_carries_makespan_and_cost(self):
        report = run_chaos(1, n_tasks=16, n_workers=8)
        assert report.mitigation == "none"
        assert report.makespan > 0.0
        assert report.cost > 0.0
        assert report.hedges == 0

    def test_hedged_spike_run_survives_with_hedges(self):
        # The chaos world caps stragglers at the 240s assignment timeout, so
        # makespan deltas there are noise; the >=2x p95 gate lives in
        # benchmarks/bench_hedging.py against a pure spike plan. Here we pin
        # that hedging fires and the survival contract still holds.
        plan = straggler_spike_plan(2, rate=0.3, multiplier=20.0)
        hedged = run_chaos(
            2, n_tasks=32, n_workers=12, budget=50.0, plan=plan, mitigation="hedge"
        )
        assert hedged.hedges > 0
        assert hedged.survived
        assert "cost_spent equals the sum of rewards paid" in hedged.checks

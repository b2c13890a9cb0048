"""Tests for worker supervision: deadlines, retry, respawn, degrade.

Every scenario drives a real :class:`ScaleoutPool` through the
deterministic fault harness and asserts the recovered result equals the
fault-free reference — recovery must never change the answer, only the
path taken to it.
"""

import glob
import random

import pytest

from repro.core import faultinject as fi
from repro.core.mp_executor import ScaleoutPool
from repro.core.resilience import (
    DEFAULT_RESILIENCE,
    DeadlineModel,
    PoolClosedError,
    ResilienceConfig,
    RetryPolicy,
    SupervisionReport,
)
from repro.fsm.run import run_reference
from repro.obs.trace import RunTrace
from tests.conftest import make_random_dfa, random_input


def shm_segments() -> set:
    """Names of POSIX shared-memory segments currently in /dev/shm."""
    return set(glob.glob("/dev/shm/psm_*"))


class TestPolicies:
    def test_retry_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_retries=3, backoff_base_s=0.1,
                             backoff_factor=2.0, backoff_jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay_s(a, rng) for a in (1, 2, 3)]
        assert delays == [pytest.approx(0.1), pytest.approx(0.2),
                          pytest.approx(0.4)]

    def test_retry_jitter_stretches_within_bound(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_jitter=0.5)
        rng = random.Random(0)
        for attempt in range(1, 5):
            base = 0.1 * 2.0 ** (attempt - 1)
            d = policy.delay_s(attempt, rng)
            assert base <= d <= base * 1.5

    def test_deadline_floor_dominates_small_tasks(self):
        model = DeadlineModel(floor_s=5.0, bytes_per_sec_floor=1e6,
                              safety_factor=8.0)
        assert model.deadline_s(1_000) == 5.0

    def test_deadline_scales_with_bytes_and_throughput(self):
        model = DeadlineModel(floor_s=0.0, bytes_per_sec_floor=1e6,
                              safety_factor=2.0)
        assert model.deadline_s(10_000_000) == pytest.approx(20.0)
        # Faster measured throughput shortens the deadline...
        assert model.deadline_s(10_000_000, bytes_per_sec=1e7) == pytest.approx(2.0)
        # ...but the floor throughput caps how optimistic it can get.
        assert model.deadline_s(10_000_000, bytes_per_sec=1e3) == pytest.approx(20.0)

    def test_config_defaults_are_safe(self):
        cfg = DEFAULT_RESILIENCE
        assert cfg.retry.max_retries >= 1
        assert cfg.quorum_fraction <= 0.5
        assert cfg.max_respawns is None  # derived as 2 * num_workers

    def test_report_total_actions(self):
        report = SupervisionReport()
        report.worker_deaths = 1
        report.respawns = 1
        report.retries = 2
        assert report.total_recovery_actions == 4


class TestKillRecovery:
    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_any_single_worker_kill_recovers_exactly(self, victim):
        """The acceptance criterion: kill any worker, same final state."""
        dfa = make_random_dfa(10, 4, seed=victim)
        inp = random_input(4, 16_000, seed=victim + 10)
        ref = run_reference(dfa, inp)
        plan = fi.FaultPlan([fi.kill_worker(victim, at_task=0)])
        with ScaleoutPool(dfa, num_workers=4, k=4, sub_chunks_per_worker=8,
                          fault_plan=plan) as pool:
            res = pool.run(inp)
        assert res.final_state == ref
        assert res.degraded is False
        assert res.recovery is not None
        assert res.recovery.worker_deaths == 1
        assert res.recovery.respawns == 1
        assert res.recovery.retries >= 1
        kinds = [e.kind for e in res.recovery.events]
        assert "worker_death" in kinds and "retry" in kinds

    def test_recovery_counters_reach_the_trace(self):
        dfa = make_random_dfa(8, 3, seed=1)
        inp = random_input(3, 12_000, seed=2)
        plan = fi.FaultPlan([fi.kill_worker(1, at_task=0)])
        trace = RunTrace("kill-recovery")
        with trace.activate():
            with ScaleoutPool(dfa, num_workers=3, k=3,
                              sub_chunks_per_worker=8, fault_plan=plan) as pool:
                res = pool.run(inp)
        assert res.final_state == run_reference(dfa, inp)
        fault = trace.counters_with_prefix("fault.")
        assert fault["fault.worker_deaths"] == 1
        assert fault["fault.respawns"] == 1
        assert fault["fault.injected"] == 1
        assert fault["fault.retries"] >= 1
        assert len(trace.find("fault.respawn")) == 1

    def test_pool_survives_kill_for_subsequent_runs(self):
        dfa = make_random_dfa(8, 3, seed=3)
        inp = random_input(3, 12_000, seed=4)
        ref = run_reference(dfa, inp)
        plan = fi.FaultPlan([fi.kill_worker(0, at_task=0)])
        with ScaleoutPool(dfa, num_workers=2, k=3, sub_chunks_per_worker=8,
                          fault_plan=plan) as pool:
            assert pool.run(inp).final_state == ref
            for _ in range(3):  # the respawned worker keeps serving
                clean = pool.run(inp)
                assert clean.final_state == ref
                assert clean.recovery is None


class TestCorruptAndUnlink:
    def test_corrupt_result_detected_and_retried(self):
        dfa = make_random_dfa(8, 3, seed=5)
        inp = random_input(3, 12_000, seed=6)
        plan = fi.FaultPlan([fi.corrupt_result_map(1, at_task=0)])
        with ScaleoutPool(dfa, num_workers=3, k=3, sub_chunks_per_worker=8,
                          fault_plan=plan) as pool:
            res = pool.run(inp)
        assert res.final_state == run_reference(dfa, inp)
        assert res.degraded is False
        assert res.recovery.corrupt_results == 1
        assert res.recovery.retries == 1
        assert res.recovery.worker_deaths == 0  # the worker itself is healthy

    def test_shm_unlink_race_republishes_input(self):
        dfa = make_random_dfa(8, 3, seed=7)
        inp = random_input(3, 12_000, seed=8)
        plan = fi.FaultPlan([fi.shm_unlink_race(at_call=1)])
        with ScaleoutPool(dfa, num_workers=3, k=3, sub_chunks_per_worker=8,
                          fault_plan=plan) as pool:
            res = pool.run(inp)
            again = pool.run(inp)  # the republished segment persists
        assert res.final_state == run_reference(dfa, inp)
        assert res.degraded is False
        assert res.recovery.shm_republishes == 1
        assert res.recovery.worker_errors >= 1
        assert again.final_state == res.final_state
        assert again.recovery is None


class TestDeadlines:
    def test_straggler_is_hedged_not_killed(self):
        """A delayed worker trips its deadline; the task is re-dispatched
        to a sibling while the straggler survives (first strike only)."""
        dfa = make_random_dfa(8, 3, seed=9)
        inp = random_input(3, 12_000, seed=10)
        plan = fi.FaultPlan([fi.delay_task(0, at_task=0, seconds=1.2)])
        cfg = ResilienceConfig(
            deadline=DeadlineModel(floor_s=0.2, safety_factor=1.0),
            max_deadline_strikes=2,
        )
        with ScaleoutPool(dfa, num_workers=3, k=3, sub_chunks_per_worker=8,
                          fault_plan=plan, resilience=cfg) as pool:
            res = pool.run(inp)
        assert res.final_state == run_reference(dfa, inp)
        assert res.degraded is False
        assert res.recovery.deadline_expirations >= 1
        assert res.recovery.retries >= 1


class TestDegradation:
    def test_quorum_loss_degrades_to_local_with_exact_result(self):
        dfa = make_random_dfa(10, 4, seed=11)
        inp = random_input(4, 16_000, seed=12)
        plan = fi.FaultPlan([fi.kill_worker(0, at_task=0)])
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_retries=0),
            max_respawns=0,
            quorum_fraction=1.0,
        )
        trace = RunTrace("degrade")
        with trace.activate():
            with ScaleoutPool(dfa, num_workers=2, k=4, sub_chunks_per_worker=8,
                              fault_plan=plan, resilience=cfg) as pool:
                res = pool.run(inp)
        assert res.final_state == run_reference(dfa, inp)  # never wrong
        assert res.degraded is True
        assert res.recovery.degraded is True
        assert "quorum" in res.recovery.degrade_reason
        assert trace.counters_with_prefix("fault.")["fault.degraded_runs"] == 1
        assert len(trace.find("fault.degrade")) == 1
        # The degraded timing still tiles the wall clock.
        assert res.timing.stages_s == pytest.approx(res.timing.total_s, rel=1e-6)

    def test_retry_exhaustion_degrades(self):
        dfa = make_random_dfa(8, 3, seed=13)
        inp = random_input(3, 12_000, seed=14)
        # Corrupt every early task on both workers: retries cannot win.
        plan = fi.FaultPlan(
            [fi.corrupt_result_map(w, at_task=t)
             for w in range(2) for t in range(4)]
        )
        cfg = ResilienceConfig(retry=RetryPolicy(max_retries=1,
                                                 backoff_base_s=0.01))
        with ScaleoutPool(dfa, num_workers=2, k=3, sub_chunks_per_worker=8,
                          fault_plan=plan, resilience=cfg) as pool:
            res = pool.run(inp)
        assert res.final_state == run_reference(dfa, inp)
        assert res.degraded is True
        assert "retries" in res.recovery.degrade_reason

    def test_degraded_pool_recovers_on_next_run(self):
        """Degradation is per-run: the next call gets a healed pool."""
        dfa = make_random_dfa(8, 3, seed=15)
        inp = random_input(3, 12_000, seed=16)
        ref = run_reference(dfa, inp)
        plan = fi.FaultPlan([fi.kill_worker(0, at_task=0)])
        cfg = ResilienceConfig(retry=RetryPolicy(max_retries=0),
                               max_respawns=0, quorum_fraction=1.0)
        with ScaleoutPool(dfa, num_workers=2, k=3, sub_chunks_per_worker=8,
                          fault_plan=plan, resilience=cfg) as pool:
            first = pool.run(inp)
            second = pool.run(inp)
        assert first.degraded is True
        assert second.degraded is False
        assert second.final_state == ref


class TestLifecycleAndLeaks:
    def test_closed_pool_raises_pool_closed_error(self):
        dfa = make_random_dfa(4, 2, seed=17)
        pool = ScaleoutPool(dfa, num_workers=2)
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.run(random_input(2, 100, seed=0))

    def test_no_segments_leak_after_fault_recovery(self):
        before = shm_segments()
        dfa = make_random_dfa(8, 3, seed=18)
        inp = random_input(3, 12_000, seed=19)
        plan = fi.FaultPlan([fi.kill_worker(1, at_task=0),
                             fi.shm_unlink_race(at_call=2)])
        with ScaleoutPool(dfa, num_workers=3, k=3, sub_chunks_per_worker=8,
                          fault_plan=plan) as pool:
            pool.run(inp)
            pool.run(inp)
        assert shm_segments() <= before

    def test_failed_init_leaks_nothing(self, monkeypatch):
        """Segments published before a failing constructor step are freed."""
        import repro.core.mp_executor as mp_mod

        before = shm_segments()

        def boom(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(mp_mod, "SupervisedWorkerPool", boom)
        dfa = make_random_dfa(6, 2, seed=20)
        with pytest.raises(OSError):
            ScaleoutPool(dfa, num_workers=2)
        assert shm_segments() <= before

    def test_del_after_failed_init_is_silent(self):
        """__del__ on a half-built pool must not raise (bad args path)."""
        dfa = make_random_dfa(4, 2, seed=21)
        with pytest.raises(ValueError):
            ScaleoutPool(dfa, num_workers=0)
        # Constructor raised before registration; nothing to clean, and
        # any later GC of the partial object must stay silent.

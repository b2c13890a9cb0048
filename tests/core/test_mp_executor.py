"""Tests for the multiprocessing backend and the persistent ScaleoutPool."""

import numpy as np
import pytest

from repro.apps.div import div7_dfa
from repro.core.mp_executor import PoolClosedError, ScaleoutPool
from repro.fsm.run import run_reference
from repro.gpu import Grid
from tests.conftest import make_random_dfa, random_input


def _pool_run(dfa, inputs, **kwargs):
    """One call on a temporary pool (the one-shot form of the backend)."""
    with ScaleoutPool(dfa, **kwargs) as pool:
        return pool.run(inputs)


class TestMultiprocess:
    def test_single_worker_exact(self):
        dfa = make_random_dfa(6, 2, seed=0)
        inp = random_input(2, 5000, seed=1)
        res = _pool_run(dfa, inp, num_workers=1)
        assert res.final_state == run_reference(dfa, inp)
        assert res.segment_reexecs == 0

    def test_spec_n_workers_no_reexec(self):
        dfa = make_random_dfa(6, 2, seed=0)
        inp = random_input(2, 20_000, seed=1)
        res = _pool_run(dfa, inp, num_workers=2)
        assert res.final_state == run_reference(dfa, inp)
        assert res.segment_reexecs == 0
        assert res.stats.success_rate == 1.0

    def test_speculative_workers_correct(self):
        dfa = div7_dfa()  # adversarial: small k will miss
        inp = random_input(2, 10_000, seed=2)
        res = _pool_run(dfa, inp, num_workers=2, k=2,
                        sub_chunks_per_worker=8)
        assert res.final_state == run_reference(dfa, inp)

    def test_empty_input(self):
        dfa = make_random_dfa(4, 2, seed=3)
        res = _pool_run(dfa, np.zeros(0, dtype=np.int32), num_workers=2)
        assert res.final_state == dfa.start

    def test_bad_worker_count(self):
        dfa = make_random_dfa(4, 2, seed=3)
        with pytest.raises(ValueError):
            _pool_run(dfa, np.zeros(4, dtype=np.int32), num_workers=0)

    def test_input_smaller_than_workers(self):
        dfa = make_random_dfa(4, 2, seed=3)
        inp = random_input(2, 3, seed=0)
        res = _pool_run(dfa, inp, num_workers=2, sub_chunks_per_worker=4)
        assert res.final_state == run_reference(dfa, inp)


class TestWorkerZeroPinning:
    """Worker 0's boundary row must carry the true start state, so segment 0
    is never re-executed — it used to burn a guaranteed serial pass."""

    def test_div7_small_k_never_reexecutes_segment_zero(self):
        dfa = div7_dfa()  # never converges: every boundary guess can miss
        for k in (1, 2):
            for seed in (0, 1, 2):
                inp = random_input(2, 6_000, seed=seed)
                res = _pool_run(dfa, inp, num_workers=3, k=k,
                                sub_chunks_per_worker=8)
                assert res.final_state == run_reference(dfa, inp)
                assert 0 not in res.reexec_segments, (k, seed)

    def test_div7_k1_later_segments_do_miss(self):
        # Sanity that the assertion above is not vacuous: with k=1 on Div7
        # some boundary beyond segment 0 misses and gets re-executed.
        dfa = div7_dfa()
        missed = 0
        for seed in (0, 1, 2, 3):
            inp = random_input(2, 6_000, seed=seed)
            res = _pool_run(dfa, inp, num_workers=3, k=1,
                            sub_chunks_per_worker=8)
            missed += res.segment_reexecs
        assert missed > 0

    def test_pinning_holds_for_carried_start_state(self):
        # Streaming passes a carried state as the run's start; the pin must
        # follow it, not the machine's initial state.
        dfa = div7_dfa()
        inp = random_input(2, 4_000, seed=5)
        with ScaleoutPool(dfa, num_workers=3, k=1, sub_chunks_per_worker=8) as pool:
            for start in range(dfa.num_states):
                res = pool.run(inp, start=start)
                assert res.final_state == run_reference(dfa, inp, start=start)
                assert 0 not in res.reexec_segments


class TestScaleoutPool:
    def test_persistent_across_calls(self):
        dfa = make_random_dfa(8, 3, seed=4)
        with ScaleoutPool(dfa, num_workers=2, k=3, sub_chunks_per_worker=8) as pool:
            for seed in range(4):
                inp = random_input(3, 3_000 + 500 * seed, seed=seed)
                res = pool.run(inp)
                assert res.final_state == run_reference(dfa, inp)
            assert pool.calls == 4

    def test_segments_created_once_not_per_call(self):
        dfa = make_random_dfa(6, 2, seed=5)
        with ScaleoutPool(dfa, num_workers=2) as pool:
            inp = random_input(2, 4_000, seed=0)
            first = pool.run(inp)
            names = (pool._table_shm.name, pool._input_shm.name)
            second = pool.run(random_input(2, 3_000, seed=1))  # smaller: reuse
            assert (pool._table_shm.name, pool._input_shm.name) == names
            assert first.stats.pool_shm_bytes == second.stats.pool_shm_bytes
            # dispatch payload is names + boundary rows, not table or input
            assert second.stats.pool_task_bytes < 4_096

    def test_input_buffer_grows_geometrically(self):
        dfa = make_random_dfa(6, 2, seed=5)
        with ScaleoutPool(dfa, num_workers=2) as pool:
            pool.run(random_input(2, 1_000, seed=0))
            cap1 = pool._input_capacity
            inp = random_input(2, 10_000, seed=1)
            res = pool.run(inp)
            assert pool._input_capacity >= 10_000 > cap1
            assert res.final_state == run_reference(dfa, inp)

    def test_closed_pool_rejects_runs(self):
        dfa = make_random_dfa(4, 2, seed=0)
        pool = ScaleoutPool(dfa, num_workers=2)
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError):
            pool.run(random_input(2, 100, seed=0))
        pool.close()  # idempotent

    def test_closed_pool_raises_typed_error(self):
        """The rejection is a clear PoolClosedError, not a buffer error."""
        dfa = make_random_dfa(4, 2, seed=0)
        pool = ScaleoutPool(dfa, num_workers=2)
        pool.close()
        with pytest.raises(PoolClosedError, match="closed"):
            pool.run(random_input(2, 100, seed=0))

    def test_context_manager_double_close(self):
        """Exiting the context then closing again (e.g. from __del__) is
        safe, and the typed error still fires afterwards."""
        dfa = make_random_dfa(4, 2, seed=1)
        inp = random_input(2, 4_000, seed=2)
        with ScaleoutPool(dfa, num_workers=2) as pool:
            assert pool.run(inp).final_state == run_reference(dfa, inp)
        assert pool.closed
        pool.close()
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.run(inp)

    def test_bad_start_state(self):
        dfa = make_random_dfa(4, 2, seed=0)
        with ScaleoutPool(dfa, num_workers=2) as pool:
            with pytest.raises(ValueError):
                pool.run(random_input(2, 100, seed=0), start=99)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            ScaleoutPool(make_random_dfa(4, 2, seed=0), num_workers=2, k=0)


class TestBitIdentical:
    """The pool backend must agree with the sequential reference (and hence
    with run_speculative, which property tests pin to the same truth) over
    machines × inputs × worker counts × k."""

    @pytest.mark.parametrize("num_states,num_inputs,seed", [
        (3, 2, 0), (7, 2, 1), (12, 4, 2),
    ])
    def test_random_machines_all_widths(self, num_states, num_inputs, seed):
        dfa = make_random_dfa(num_states, num_inputs, seed=seed)
        for workers in (2, 3, 5):
            with ScaleoutPool(dfa, num_workers=workers, k=2,
                              sub_chunks_per_worker=8) as pool:
                for inp_seed in (0, 1):
                    inp = random_input(num_inputs, 2_000 + 997 * inp_seed,
                                       seed=inp_seed)
                    res = pool.run(inp)
                    assert res.final_state == run_reference(dfa, inp), (
                        num_states, workers, inp_seed
                    )

    def test_matches_run_speculative(self):
        from repro.core.engine import run_speculative

        dfa = make_random_dfa(9, 3, seed=8)
        inp = random_input(3, 8_000, seed=9)
        want = run_speculative(
            dfa, inp, k=3, grid=Grid(num_blocks=1, threads_per_block=32),
        ).final_state
        for k in (1, 3, None):
            res = _pool_run(dfa, inp, num_workers=4, k=k,
                            sub_chunks_per_worker=8)
            assert res.final_state == want

    def test_div7_every_worker_count(self):
        dfa = div7_dfa()
        inp = random_input(2, 7_001, seed=10)  # odd size: ragged segments
        want = run_reference(dfa, inp)
        for workers in (2, 4, 6):
            for k in (1, 3, None):
                res = _pool_run(dfa, inp, num_workers=workers, k=k,
                                sub_chunks_per_worker=4)
                assert res.final_state == want, (workers, k)


class TestTimings:
    def test_pool_run_timing_components_sum_to_total(self):
        dfa = make_random_dfa(6, 2, seed=11)
        inp = random_input(2, 20_000, seed=12)
        with ScaleoutPool(dfa, num_workers=2, k=2,
                          sub_chunks_per_worker=8) as pool:
            res = pool.run(inp)
        t = res.timing
        assert t is not None
        # The stage timestamps are contiguous, so the components tile the
        # total exactly (up to float rounding).
        assert t.stages_s == pytest.approx(t.total_s, rel=1e-6, abs=1e-9)
        for v in (t.speculate_s, t.publish_s, t.dispatch_s,
                  t.wait_s, t.merge_s):
            assert v >= 0.0

    def test_worker_timings_within_wall_time(self):
        dfa = make_random_dfa(7, 2, seed=13)
        inp = random_input(2, 40_000, seed=14)
        with ScaleoutPool(dfa, num_workers=3, k=2,
                          sub_chunks_per_worker=8) as pool:
            res = pool.run(inp)
        assert len(res.worker_timings) == 3
        for wt in res.worker_timings:
            # Each worker's internal phases sum to at most its own total...
            assert wt.attach_s + wt.exec_s + wt.fold_s <= wt.total_s + 1e-6
            # ...and no worker can run longer than the wait window the
            # parent measured around the whole fan-out (generous tolerance:
            # includes dispatch overlap and scheduler noise).
            assert wt.total_s <= res.timing.dispatch_s + res.timing.wait_s + 0.25

    def test_pool_run_emits_obs_spans(self):
        from repro.obs.trace import RunTrace

        dfa = make_random_dfa(5, 2, seed=15)
        inp = random_input(2, 10_000, seed=16)
        t = RunTrace("pool")
        with ScaleoutPool(dfa, num_workers=2, k=2,
                          sub_chunks_per_worker=8) as pool:
            with t.activate():
                pool.run(inp)
        names = {s.name for s in t.spans}
        assert {"pool.publish_input", "pool.speculate", "pool.dispatch",
                "pool.wait", "pool.merge"} <= names
        workers = t.find("pool.worker")
        assert len(workers) == 2
        wait = t.find("pool.wait")[0]
        for w in workers:
            # Worker spans are drawn inside the parent's dispatch+wait
            # window (start-aligned to dispatch).
            assert w.t1 <= wait.t1 + 0.25
        assert t.counters["pool.shm.input_bytes"].value == inp.nbytes

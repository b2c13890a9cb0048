"""Tests for out-of-order chunk resolution (the scoreboard) and the
history-based start-state predictor.

The central properties:

* the scoreboard path (``schedule="ooo"``) is bit-exact with both the
  sequential reference and the barrier engine across every app, kernel,
  merge mode and collapse setting;
* misses re-execute *early* — while other chunks are still unposted —
  which the ``sched.reexec_early`` counter and the scoreboard's
  :attr:`reexec_log` prove.
"""

import numpy as np
import pytest

from repro.apps import APPLICATIONS
from repro.core.engine import run_speculative
from repro.core.lookback import speculate
from repro.core.predictor import HistoryPredictor, dfa_fingerprint
from repro.core.scoreboard import (
    STAGE_MERGED,
    STAGE_RETIRED,
    ChunkScoreboard,
    run_chunks_active,
)
from repro.core.types import ExecStats
from repro.fsm.run import run_reference
from repro.obs.trace import RunTrace
from repro.workloads.chunking import plan_chunks, plan_from_lengths
from tests.conftest import make_random_dfa, random_input


def post_all(board, dfa, inputs, plan, spec, order):
    """Execute every chunk sequentially and post in the given order."""
    for c in order:
        c = int(c)
        lo, hi = int(plan.starts[c]), int(plan.starts[c] + plan.lengths[c])
        end = np.array(
            [run_segment(dfa, inputs[lo:hi], int(s)) for s in spec[c]],
            dtype=spec.dtype,
        )
        board.post(c, spec[c], end)


def run_segment(dfa, seg, s):
    for sym in seg:
        s = int(dfa.table[int(sym), s])
    return s


class TestScoreboardUnit:
    def _case(self, seed=0, n=900, chunks=12, k=2):
        dfa = make_random_dfa(7, 3, seed=seed)
        inp = random_input(3, n, seed=seed + 1)
        plan = plan_chunks(n, chunks)
        spec = speculate(dfa, inp, plan, k, lookback=4)
        return dfa, inp, plan, spec

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_resolve_any_post_order(self, mode):
        dfa, inp, plan, spec = self._case()
        ref = run_reference(dfa, inp)
        rng = np.random.default_rng(42)
        for _ in range(5):
            order = rng.permutation(plan.num_chunks)
            board = ChunkScoreboard(dfa, inp, plan, spec.shape[1], mode=mode)
            post_all(board, dfa, inp, plan, spec, order)
            final, true_starts = board.resolve()
            assert final == ref
            assert np.all(board.stage >= STAGE_MERGED)
            if mode == "sequential":
                # Full per-chunk truth is recovered in sequential mode.
                assert true_starts is not None

    def test_resolve_with_unposted_chunk_raises(self):
        dfa, inp, plan, spec = self._case()
        board = ChunkScoreboard(dfa, inp, plan, spec.shape[1])
        post_all(board, dfa, inp, plan, spec, range(plan.num_chunks - 1))
        with pytest.raises(RuntimeError):
            board.resolve()

    def test_converged_chunks_retire_immediately(self):
        # An absorbing machine: every chunk's map is constant, so every
        # posted chunk should retire the moment it is posted.
        from repro.fsm.dfa import DFA

        table = np.zeros((2, 5), dtype=np.int32)  # everything goes to state 0
        dfa = DFA(table, 1, np.zeros(5, dtype=bool))
        n, chunks = 600, 8
        inp = random_input(2, n, seed=4)
        plan = plan_chunks(n, chunks)
        spec = speculate(dfa, inp, plan, 2, lookback=4)
        board = ChunkScoreboard(dfa, inp, plan, 2)
        for c in range(chunks - 1, -1, -1):  # worst-case order: right to left
            lo, hi = int(plan.starts[c]), int(plan.starts[c] + plan.lengths[c])
            end = np.array(
                [run_segment(dfa, inp[lo:hi], int(s)) for s in spec[c]],
                dtype=spec.dtype,
            )
            board.post(c, spec[c], end, converged=True)
            assert board.stage[c] == STAGE_RETIRED
        final, _ = board.resolve()
        assert final == run_reference(dfa, inp)

    def test_stats_counted(self):
        dfa, inp, plan, spec = self._case()
        stats = ExecStats()
        board = ChunkScoreboard(dfa, inp, plan, spec.shape[1], stats=stats)
        post_all(board, dfa, inp, plan, spec, range(plan.num_chunks))
        board.resolve()
        # Resolution accounts its work: front probes run the runtime check,
        # and misses land in the early re-execution counters.
        assert stats.check_comparisons + stats.hash_probes > 0
        assert stats.reexec_chunks_early == len(board.reexec_log)


class TestEarlyReexecution:
    def test_misses_reexecute_before_all_chunks_posted(self):
        """The tentpole ordering property: a provable miss launches its
        re-execution while other chunks are still in flight."""
        # k=1 with no lookback guesses the DFA start for every chunk, which
        # is almost always a miss on a random machine.
        dfa = make_random_dfa(9, 3, seed=11)
        n, chunks = 4000, 16
        inp = random_input(3, n, seed=12)
        plan = plan_chunks(n, chunks)
        spec = np.full((chunks, 1), dfa.start, dtype=np.int32)
        spec[:, 0] = dfa.start
        board = ChunkScoreboard(dfa, inp, plan, 1)
        post_all(board, dfa, inp, plan, spec, range(chunks))
        final, _ = board.resolve()
        assert final == run_reference(dfa, inp)
        assert board.reexec_log, "expected speculation misses"
        # Every logged re-execution happened before the last post:
        # posts_seen strictly less than the chunk count proves the miss was
        # handled eagerly, not after a full barrier.
        early = [e for e in board.reexec_log if e[2] < chunks]
        assert early, f"no early re-execution in {board.reexec_log}"

    def test_sched_counters_reach_the_trace(self):
        dfa = make_random_dfa(9, 3, seed=13)
        inp = random_input(3, 6000, seed=14)
        trace = RunTrace("sched")
        with trace.activate():
            res = run_speculative(
                dfa, inp, k=1, num_blocks=1, threads_per_block=32,
                lookback=0, schedule="ooo",
            )
        assert res.final_state == run_reference(dfa, inp)
        sched = trace.counters_with_prefix("sched.")
        assert sched.get("sched.posted", 0) == 32
        # k=1/lookback=0 speculation misses on a 9-state random machine.
        assert sched.get("sched.reexec_early", 0) > 0


class TestEngineEquivalence:
    @pytest.mark.parametrize("app", sorted(APPLICATIONS))
    @pytest.mark.parametrize("merge", ["sequential", "parallel"])
    def test_ooo_equals_barrier_and_reference_per_app(self, app, merge):
        dfa, inp = APPLICATIONS[app].build(6000, seed=5)
        ref = run_reference(dfa, inp)
        kw = dict(k=3, num_blocks=2, threads_per_block=32, merge=merge,
                  collect=("match_positions",))
        barrier = run_speculative(dfa, inp, schedule="barrier", **kw)
        ooo = run_speculative(dfa, inp, schedule="ooo", **kw)
        assert barrier.final_state == ref
        assert ooo.final_state == ref
        np.testing.assert_array_equal(
            ooo.match_positions, barrier.match_positions
        )

    @pytest.mark.parametrize("kernel", ["lockstep", "stride2", "stride4"])
    @pytest.mark.parametrize("collapse", [None, "auto"])
    def test_ooo_across_kernels_and_collapse(self, kernel, collapse):
        dfa, inp = APPLICATIONS["div7"].build(6000, seed=6)
        ref = run_reference(dfa, inp)
        for merge in ("sequential", "parallel"):
            res = run_speculative(
                dfa, inp, k=2, num_blocks=2, threads_per_block=32,
                merge=merge, kernel=kernel, collapse=collapse,
                schedule="ooo",
            )
            assert res.final_state == ref, (kernel, collapse, merge)

    def test_ragged_plan_uses_active_list(self):
        """A skewed explicit plan routes through run_chunks_active and
        still matches the reference."""
        dfa = make_random_dfa(8, 3, seed=7)
        n = 9000
        inp = random_input(3, n, seed=8)
        lengths = np.array([4000, 100, 50, 2000, 10, 2840], dtype=np.int64)
        assert int(lengths.sum()) == n
        plan = plan_from_lengths(lengths)
        res = run_speculative(
            dfa, inp, k=2, num_blocks=1, threads_per_block=32,
            plan=plan, schedule="ooo",
        )
        assert res.final_state == run_reference(dfa, inp)

    def test_run_chunks_active_posts_equal_lockstep(self):
        dfa = make_random_dfa(7, 3, seed=9)
        n = 3000
        inp = random_input(3, n, seed=10)
        plan = plan_from_lengths(np.array([1500, 10, 700, 790], dtype=np.int64))
        spec = speculate(dfa, inp, plan, 2, lookback=4)
        board = ChunkScoreboard(dfa, inp, plan, 2)
        run_chunks_active(dfa, inp, plan, spec, board)
        final, _ = board.resolve()
        assert final == run_reference(dfa, inp)

    def test_bad_schedule_rejected(self):
        dfa = make_random_dfa(4, 2, seed=0)
        inp = random_input(2, 100, seed=1)
        with pytest.raises(ValueError):
            run_speculative(dfa, inp, num_blocks=1, threads_per_block=32,
                            schedule="speculative")


class TestPredictor:
    def test_fingerprint_deterministic_and_distinct(self):
        a = make_random_dfa(6, 3, seed=1)
        b = make_random_dfa(6, 3, seed=2)
        assert dfa_fingerprint(a) == dfa_fingerprint(a)
        assert dfa_fingerprint(a) != dfa_fingerprint(b)

    def test_observe_shifts_prior(self):
        dfa = make_random_dfa(5, 2, seed=3)
        pred = HistoryPredictor()
        assert pred.prior(dfa) is None  # no history yet
        # Feed a history where state 2 dominates chunk starts.
        pred.observe(dfa, np.full(50, 2, dtype=np.int64))
        skewed = pred.prior(dfa)
        assert skewed is not None and skewed.argmax() == 2
        assert pred.ranking(dfa)[2] == 0  # state 2 ranked most likely

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "priors.json"
        dfa = make_random_dfa(5, 2, seed=4)
        pred = HistoryPredictor(path)
        pred.observe(dfa, np.full(20, 3, dtype=np.int64))
        pred.save()
        again = HistoryPredictor(path)
        assert again.runs_observed(dfa) == 1
        assert again.ranking(dfa)[3] == 0  # state 3 ranked most likely

    def test_engine_history_integration(self, tmp_path):
        path = tmp_path / "hist.json"
        dfa = make_random_dfa(8, 3, seed=5)
        inp = random_input(3, 8000, seed=6)
        ref = run_reference(dfa, inp)
        for _ in range(2):
            res = run_speculative(
                dfa, inp, k=2, num_blocks=1, threads_per_block=32,
                merge="parallel", history=path, schedule="ooo",
            )
            assert res.final_state == ref
        assert path.exists()
        assert HistoryPredictor(path).runs_observed(dfa) == 2

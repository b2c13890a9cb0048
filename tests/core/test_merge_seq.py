"""Tests for the sequential merge."""

import numpy as np

from repro.core.local import process_chunks
from repro.core.merge_seq import merge_sequential
from repro.core.types import ChunkResults, ExecStats
from repro.fsm.run import run_reference, run_reference_trace, run_segment
from repro.workloads.chunking import plan_chunks
from tests.conftest import make_random_dfa, random_input


def run_pipeline(dfa, inp, chunks, spec, check="nested", stats=None):
    plan = plan_chunks(inp.size, chunks)
    end, _ = process_chunks(dfa, inp, plan, spec)
    results = ChunkResults(spec=spec, end=end, valid=np.ones_like(spec, dtype=bool))
    return merge_sequential(dfa, inp, plan, results, check=check, stats=stats), plan


class TestMergeSequential:
    def test_correct_with_perfect_speculation(self):
        dfa = make_random_dfa(5, 2, seed=1)
        inp = random_input(2, 200, seed=2)
        plan = plan_chunks(200, 4)
        trace = run_reference_trace(dfa, inp)
        truth = np.concatenate([[dfa.start], trace[plan.starts[1:] - 1]])
        spec = truth[:, None].astype(np.int32)  # k=1, always right
        stats = ExecStats()
        (final, starts), _ = run_pipeline(dfa, inp, 4, spec, stats=stats)
        assert final == run_reference(dfa, inp)
        np.testing.assert_array_equal(starts, truth)
        assert stats.reexec_chunks_seq == 0
        assert stats.success_rate == 1.0

    def test_correct_with_hopeless_speculation(self):
        dfa = make_random_dfa(6, 2, seed=2)
        inp = random_input(2, 150, seed=3)
        # speculate a state that is always wrong by construction? use k=1
        # with fixed state and verify re-execution fixes everything
        spec = np.full((5, 1), 3, dtype=np.int32)
        stats = ExecStats()
        (final, _), _ = run_pipeline(dfa, inp, 5, spec, stats=stats)
        assert final == run_reference(dfa, inp)
        # chunk 0 is wrong too here (spec didn't include start): it re-executes
        assert stats.reexec_chunks_seq >= 1

    def test_reexec_counts_items(self):
        dfa = make_random_dfa(6, 2, seed=2)
        inp = random_input(2, 100, seed=3)
        spec = np.full((4, 1), 5, dtype=np.int32)
        stats = ExecStats()
        (final, _), _ = run_pipeline(dfa, inp, 4, spec, stats=stats)
        assert final == run_reference(dfa, inp)
        assert stats.reexec_items_seq == stats.reexec_chunks_seq * 25

    def test_success_counter_excludes_chunk0(self):
        dfa = make_random_dfa(5, 2, seed=4)
        inp = random_input(2, 80, seed=5)
        spec = np.full((4, 1), dfa.start, dtype=np.int32)
        stats = ExecStats()
        run_pipeline(dfa, inp, 4, spec, stats=stats)
        assert stats.success_total == 3

    def test_uncounted_mode(self):
        dfa = make_random_dfa(5, 2, seed=4)
        inp = random_input(2, 80, seed=5)
        spec = np.full((4, 1), dfa.start, dtype=np.int32)
        (final, starts), _ = run_pipeline(dfa, inp, 4, spec, stats=None)
        assert final == run_reference(dfa, inp)
        assert starts.shape == (4,)

    def test_hash_check_same_result(self):
        dfa = make_random_dfa(8, 3, seed=6)
        inp = random_input(3, 300, seed=7)
        rng = np.random.default_rng(1)
        spec = np.stack([rng.permutation(8)[:4] for _ in range(6)]).astype(np.int32)
        spec[0, 0] = dfa.start
        (f1, s1), _ = run_pipeline(dfa, inp, 6, spec, check="nested")
        (f2, s2), _ = run_pipeline(dfa, inp, 6, spec, check="hash")
        assert f1 == f2 == run_reference(dfa, inp)
        np.testing.assert_array_equal(s1, s2)

    def test_respects_validity_bits(self):
        dfa = make_random_dfa(5, 2, seed=8)
        inp = random_input(2, 60, seed=9)
        plan = plan_chunks(60, 3)
        spec = np.full((3, 1), dfa.start, dtype=np.int32)
        end, _ = process_chunks(dfa, inp, plan, spec)
        valid = np.ones_like(spec, dtype=bool)
        valid[1, 0] = False  # poison chunk 1's entry
        results = ChunkResults(spec=spec, end=end, valid=valid)
        final, _ = merge_sequential(dfa, inp, plan, results)
        assert final == run_reference(dfa, inp)

    def test_true_boundary_walk_equivalence(self):
        from repro.core.merge_seq import true_boundary_walk

        dfa = make_random_dfa(7, 2, seed=10)
        inp = random_input(2, 500, seed=11)
        plan = plan_chunks(500, 9)
        rng = np.random.default_rng(3)
        spec = np.stack([rng.permutation(7)[:3] for _ in range(9)]).astype(np.int32)
        end, _ = process_chunks(dfa, inp, plan, spec)
        results = ChunkResults(spec=spec, end=end,
                               valid=np.ones_like(spec, dtype=bool))
        f1, s1 = merge_sequential(dfa, inp, plan, results, stats=None)
        f2, s2 = true_boundary_walk(dfa, inp, plan, results)
        assert f1 == f2
        np.testing.assert_array_equal(s1, s2)

    def test_true_boundary_walk_fallback(self, monkeypatch):
        import repro.core.merge_seq as ms
        from repro.core.merge_seq import true_boundary_walk

        monkeypatch.setattr(ms, "_LUT_ENTRY_BUDGET", 1)  # force the fallback
        dfa = make_random_dfa(5, 2, seed=12)
        inp = random_input(2, 200, seed=13)
        plan = plan_chunks(200, 4)
        spec = np.full((4, 1), dfa.start, dtype=np.int32)
        end, _ = process_chunks(dfa, inp, plan, spec)
        results = ChunkResults(spec=spec, end=end,
                               valid=np.ones_like(spec, dtype=bool))
        f, s = true_boundary_walk(dfa, inp, plan, results)
        assert f == run_reference(dfa, inp)
        assert s.shape == (4,)

    def test_true_boundary_walk_respects_validity(self):
        from repro.core.merge_seq import true_boundary_walk

        dfa = make_random_dfa(5, 2, seed=14)
        inp = random_input(2, 120, seed=15)
        plan = plan_chunks(120, 3)
        spec = np.full((3, 1), dfa.start, dtype=np.int32)
        end, _ = process_chunks(dfa, inp, plan, spec)
        valid = np.ones_like(spec, dtype=bool)
        valid[1, 0] = False
        results = ChunkResults(spec=spec, end=end, valid=valid)
        f, _ = true_boundary_walk(dfa, inp, plan, results)
        assert f == run_reference(dfa, inp)

    def test_seq_steps_counted(self):
        dfa = make_random_dfa(5, 2, seed=4)
        inp = random_input(2, 80, seed=5)
        spec = np.full((4, 1), dfa.start, dtype=np.int32)
        stats = ExecStats()
        run_pipeline(dfa, inp, 4, spec, stats=stats)
        assert stats.seq_merge_steps == 4

    def test_seeds_restart_the_walk(self):
        # Chunks 0-1, 2-4 and 5 are three independent segments; a seed pins
        # each head. The walk must give every chunk its out-state, never
        # carry one segment's tail into the next, and not score a head.
        dfa = make_random_dfa(7, 3, seed=6)
        inp = random_input(3, 120, seed=7)
        plan = plan_chunks(120, 6)
        spec = np.full((6, 2), [0, 1], dtype=np.int32)
        end, _ = process_chunks(dfa, inp, plan, spec)
        results = ChunkResults(spec=spec, end=end, valid=np.ones_like(spec, dtype=bool))
        seeds = {0: 3, 2: 5, 5: 0}
        stats = ExecStats()
        exits, starts = merge_sequential(
            dfa, inp, plan, results, stats=stats, seeds=seeds
        )
        state = None
        for c in range(6):
            state = seeds.get(c, state)
            assert starts[c] == state
            state = run_segment(dfa, inp[plan.chunk_slice(c)], state)
            assert exits[c] == state
        assert stats.success_total == 3  # chunks 1, 3 and 4

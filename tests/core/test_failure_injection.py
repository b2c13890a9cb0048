"""Failure injection: corrupted inputs and adversarial shapes.

DESIGN.md §7: the merge must stay correct under corrupted speculation sets,
duplicate speculation entries, poisoned validity bits, hash collisions,
ragged chunking extremes, and degenerate machines.
"""

import numpy as np

import repro
from repro.core.local import process_chunks
from repro.core.merge_par import merge_parallel
from repro.core.merge_seq import merge_sequential
from repro.core.types import ChunkResults
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference
from repro.gpu import Grid
from repro.workloads.chunking import plan_chunks
from tests.conftest import make_random_dfa, random_input


def results_from_spec(dfa, inp, chunks, spec):
    plan = plan_chunks(inp.size, chunks)
    end, _ = process_chunks(dfa, inp, plan, spec)
    return plan, ChunkResults(spec=spec, end=end, valid=np.ones_like(spec, dtype=bool))


class TestCorruptedSpeculation:
    def test_duplicate_spec_entries(self):
        # duplicate states within a row: merge still correct (first match wins)
        dfa = make_random_dfa(6, 2, seed=0)
        inp = random_input(2, 300, seed=1)
        spec = np.full((4, 3), 2, dtype=np.int32)  # all duplicates
        spec[0, 0] = dfa.start
        plan, results = results_from_spec(dfa, inp, 4, spec)
        for merge, kwargs in (
            (merge_sequential, {}),
            (merge_parallel, {"reexec": "delayed"}),
            (merge_parallel, {"reexec": "eager"}),
        ):
            out = merge(dfa, inp, plan, results, stats=None, **kwargs)
            final = out[0]
            assert final == run_reference(dfa, inp)

    def test_spec_missing_true_start(self):
        # chunk 0's row lacks the machine start: everything recovers via
        # re-execution / fix-up
        dfa = make_random_dfa(6, 2, seed=2)
        inp = random_input(2, 200, seed=3)
        wrong = (dfa.start + 1) % 6
        spec = np.full((4, 2), wrong, dtype=np.int32)
        spec[:, 1] = (wrong + 1) % 6
        plan, results = results_from_spec(dfa, inp, 4, spec)
        f_seq, _ = merge_sequential(dfa, inp, plan, results, stats=None)
        f_par, _ = merge_parallel(dfa, inp, plan, results, stats=None)
        assert f_seq == f_par == run_reference(dfa, inp)

    def test_all_validity_poisoned(self):
        # every entry marked invalid: delayed fix-up degenerates to a full
        # sequential re-execution but stays correct
        dfa = make_random_dfa(5, 2, seed=4)
        inp = random_input(2, 150, seed=5)
        plan = plan_chunks(inp.size, 3)
        spec = np.zeros((3, 2), dtype=np.int32)
        spec[:, 1] = 1
        end, _ = process_chunks(dfa, inp, plan, spec)
        results = ChunkResults(spec=spec, end=end,
                               valid=np.zeros_like(spec, dtype=bool))
        final, _ = merge_parallel(dfa, inp, plan, results, stats=None)
        assert final == run_reference(dfa, inp)

    def test_partially_poisoned_validity(self):
        dfa = make_random_dfa(7, 2, seed=6)
        inp = random_input(2, 280, seed=7)
        plan = plan_chunks(inp.size, 8)
        rng = np.random.default_rng(0)
        spec = np.stack([rng.permutation(7)[:3] for _ in range(8)]).astype(np.int32)
        spec[0, 0] = dfa.start
        end, _ = process_chunks(dfa, inp, plan, spec)
        valid = rng.random((8, 3)) > 0.4
        results = ChunkResults(spec=spec, end=end, valid=valid)
        f_seq, _ = merge_sequential(dfa, inp, plan, results, stats=None)
        f_par, _ = merge_parallel(dfa, inp, plan, results, stats=None)
        assert f_seq == f_par == run_reference(dfa, inp)


class TestHashCollisions:
    def test_states_congruent_mod_hash_size(self):
        # states chosen to collide in the hash check's buckets
        from repro.core.checks import DEFAULT_HASH_SIZE

        n_states = DEFAULT_HASH_SIZE * 3
        dfa = make_random_dfa(n_states, 2, seed=8)
        inp = random_input(2, 400, seed=9)
        # spec rows: states 0, 16, 32 — all hash to bucket 0
        spec = np.tile(
            np.arange(0, n_states, DEFAULT_HASH_SIZE, dtype=np.int32), (4, 1)
        )
        spec[0, 0] = dfa.start if dfa.start % DEFAULT_HASH_SIZE == 0 else spec[0, 0]
        plan, results = results_from_spec(dfa, inp, 4, spec)
        f_nested, _ = merge_sequential(dfa, inp, plan, results, check="nested",
                                       stats=None)
        f_hash, _ = merge_sequential(dfa, inp, plan, results, check="hash",
                                     stats=None)
        assert f_nested == f_hash == run_reference(dfa, inp)


class TestDegenerateShapes:
    def test_one_state_machine(self):
        dfa = DFA(table=np.zeros((2, 1), dtype=np.int32), start=0,
                  accepting=np.array([True]))
        inp = random_input(2, 100, seed=0)
        r = repro.run_speculative(
            dfa, inp, k=1, grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.final_state == 0
        assert r.success_rate == 1.0

    def test_single_item_input(self):
        dfa = make_random_dfa(4, 2, seed=1)
        inp = np.array([1], dtype=np.int32)
        r = repro.run_speculative(
            dfa, inp, k=2, grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.final_state == run_reference(dfa, inp)

    def test_input_length_equals_chunks(self):
        dfa = make_random_dfa(4, 2, seed=2)
        inp = random_input(2, 32, seed=3)
        r = repro.run_speculative(
            dfa, inp, k=2, grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.final_state == run_reference(dfa, inp)

    def test_identity_machine_rows(self):
        # a machine where some symbol is the identity on all states
        table = np.stack([np.arange(5), np.roll(np.arange(5), 1)]).astype(np.int32)
        dfa = DFA(table=table, start=0, accepting=np.zeros(5, dtype=bool))
        inp = random_input(2, 500, seed=4)
        r = repro.run_speculative(
            dfa, inp, k=3, grid=Grid(num_blocks=2, threads_per_block=32),
        )
        assert r.final_state == run_reference(dfa, inp)

    def test_absorbing_machine(self):
        # everything maps to state 0 after one step
        table = np.zeros((2, 6), dtype=np.int32)
        dfa = DFA(table=table, start=3, accepting=np.zeros(6, dtype=bool))
        inp = random_input(2, 100, seed=5)
        r = repro.run_speculative(
            dfa, inp, k=1, lookback=1, grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.final_state == 0
        assert r.success_rate == 1.0  # convergence makes speculation trivial

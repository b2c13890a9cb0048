"""Tests for the reference runners."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fsm.run import (
    run_all_starts,
    run_reference,
    run_reference_trace,
    run_segment,
)
from tests.conftest import make_random_dfa, random_input


class TestRunReference:
    def test_empty_input_returns_start(self):
        dfa = make_random_dfa(4, 2, seed=0)
        assert run_reference(dfa, np.zeros(0, dtype=np.int32)) == dfa.start

    def test_explicit_start(self):
        dfa = make_random_dfa(4, 2, seed=0)
        inp = random_input(2, 50, seed=1)
        assert run_reference(dfa, inp, start=2) == run_segment(dfa, inp, 2)

    def test_matches_dfa_run(self):
        dfa = make_random_dfa(5, 3, seed=7)
        inp = random_input(3, 200, seed=2)
        assert run_reference(dfa, inp) == dfa.run(inp)


class TestTrace:
    def test_trace_length(self):
        dfa = make_random_dfa(4, 2, seed=1)
        inp = random_input(2, 37, seed=3)
        assert run_reference_trace(dfa, inp).size == 37

    def test_trace_final_matches_run(self):
        dfa = make_random_dfa(4, 2, seed=1)
        inp = random_input(2, 37, seed=3)
        assert run_reference_trace(dfa, inp)[-1] == run_reference(dfa, inp)

    def test_trace_step_consistency(self):
        dfa = make_random_dfa(4, 2, seed=2)
        inp = random_input(2, 20, seed=4)
        trace = run_reference_trace(dfa, inp)
        state = dfa.start
        for i, a in enumerate(inp):
            state = dfa.step(state, int(a))
            assert trace[i] == state


def _trace_loop(dfa, symbols, start):
    """The plain per-symbol loop the list fast paths must reproduce."""
    out, state = [], start
    for a in np.asarray(symbols):
        state = int(dfa.table[int(a), state])
        out.append(state)
    return np.asarray(out, dtype=np.int32)


class TestTraceFastPaths:
    # Inputs of 1..40 symbols over tables of up to 40x12 entries: both the
    # nested-list branch (table small relative to the input) and the
    # per-item branch (table large) are drawn.
    @given(
        num_states=st.integers(1, 12),
        num_inputs=st.integers(1, 40),
        length=st.integers(0, 40),
        seed=st.integers(0, 1000),
        start=st.integers(0, 11),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_loop(self, num_states, num_inputs, length, seed, start):
        dfa = make_random_dfa(num_states, num_inputs, seed=seed)
        inp = random_input(num_inputs, length, seed=seed + 1)
        start = start % num_states
        got = run_reference_trace(dfa, inp, start=start)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, _trace_loop(dfa, inp, start))

    def test_both_branches_taken(self):
        small = make_random_dfa(3, 2, seed=4)  # 6 entries <= 8 * 500
        large = make_random_dfa(40, 30, seed=5)  # 1200 entries > 8 * 10
        for dfa, n in ((small, 500), (large, 10)):
            inp = random_input(dfa.num_inputs, n, seed=6)
            np.testing.assert_array_equal(
                run_reference_trace(dfa, inp), _trace_loop(dfa, inp, dfa.start)
            )


class TestRunAllStarts:
    def test_shape(self):
        dfa = make_random_dfa(6, 2, seed=3)
        out = run_all_starts(dfa, random_input(2, 30, seed=5))
        assert out.shape == (6,)

    def test_empty_is_identity(self):
        dfa = make_random_dfa(6, 2, seed=3)
        np.testing.assert_array_equal(
            run_all_starts(dfa, np.zeros(0, dtype=np.int32)), np.arange(6)
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 200), start=st.integers(0, 5))
    def test_agrees_with_individual_runs(self, seed, start):
        dfa = make_random_dfa(6, 2, seed=seed)
        inp = random_input(2, 64, seed=seed + 1)
        assert run_all_starts(dfa, inp)[start] == run_reference(dfa, inp, start=start)

    def test_composition_property(self):
        # run over a+b == run over b starting from run over a
        dfa = make_random_dfa(5, 3, seed=9)
        a = random_input(3, 40, seed=1)
        b = random_input(3, 40, seed=2)
        fa = run_all_starts(dfa, a)
        fb = run_all_starts(dfa, b)
        fab = run_all_starts(dfa, np.concatenate([a, b]))
        np.testing.assert_array_equal(fab, fb[fa])

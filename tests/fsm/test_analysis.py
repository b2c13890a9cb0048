"""Tests for FSM analysis utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.div import div7_dfa
from repro.fsm import analysis
from repro.fsm.analysis import (
    dynamic_state_frequency,
    group_state_frequency,
    reachable_states,
    state_convergence,
    static_state_frequency,
    stationary_distribution,
)
from repro.fsm.dfa import DFA
from tests.conftest import make_random_dfa, random_input


class TestStaticFrequency:
    def test_sums_to_table_size(self):
        dfa = make_random_dfa(6, 3, seed=0)
        assert static_state_frequency(dfa).sum() == dfa.table_entries

    def test_paper_figure1_example(self):
        # Figure 1b: states a and c appear 4 times each, b and d twice.
        trans = {
            ("a", "/"): "b", ("a", "*"): "a", ("a", "x"): "a",
            ("b", "/"): "b", ("b", "*"): "c", ("b", "x"): "a",
            ("c", "/"): "c", ("c", "*"): "d", ("c", "x"): "c",
            ("d", "/"): "a", ("d", "*"): "d", ("d", "x"): "c",
        }
        dfa = DFA.from_dict(trans, start="a", accepting=["a"])
        freq = static_state_frequency(dfa)
        assert sorted(freq.tolist(), reverse=True) == [4, 4, 2, 2]


class TestDynamicFrequency:
    def test_counts_sum_to_length(self):
        dfa = make_random_dfa(5, 2, seed=1)
        inp = random_input(2, 300, seed=2)
        assert dynamic_state_frequency(dfa, inp).sum() == 300

    def test_empty_input(self):
        dfa = make_random_dfa(5, 2, seed=1)
        assert dynamic_state_frequency(dfa, np.zeros(0, dtype=np.int32)).sum() == 0


class TestGroupFrequency:
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        n=st.integers(0, 700),
        seed=st.integers(0, 2**16),
    )
    def test_each_machine_matches_its_own_walk(self, sizes, n, seed):
        dfas = [make_random_dfa(s, 3, seed=seed + i) for i, s in enumerate(sizes)]
        x = random_input(3, n, seed=seed)
        got = group_state_frequency(dfas, x)
        assert len(got) == len(dfas)
        for d, g in zip(dfas, got):
            np.testing.assert_array_equal(g, dynamic_state_frequency(d, x))

    def test_small_machines_walk_jointly_in_batches(self, monkeypatch):
        # Five small machines in batches of two, one large machine alone:
        # only the large one takes the per-machine walk.
        sizes = [3, 24, 5, 25, 1, 9]
        dfas = [make_random_dfa(s, 4, seed=i) for i, s in enumerate(sizes)]
        x = random_input(4, 1000, seed=7)
        want = [dynamic_state_frequency(d, x) for d in dfas]
        alone = []

        def walk_alone(dfa, symbols, start=None):
            alone.append(dfa.num_states)
            return dynamic_state_frequency(dfa, symbols, start)

        monkeypatch.setattr(analysis, "_JOINT_WALK_MACHINES", 2)
        monkeypatch.setattr(analysis, "dynamic_state_frequency", walk_alone)
        got = group_state_frequency(dfas, x)
        assert alone == [25]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestReachability:
    def test_start_always_reachable(self):
        dfa = make_random_dfa(6, 2, seed=5)
        assert reachable_states(dfa)[dfa.start]

    def test_unreachable_detected(self):
        table = np.array([[0, 2, 2]], dtype=np.int32)
        dfa = DFA(table=table, start=0, accepting=np.zeros(3, dtype=bool))
        mask = reachable_states(dfa)
        assert not mask[1] and not mask[2]  # state 0 self-loops only


class TestConvergence:
    def test_div7_never_converges(self):
        dfa = div7_dfa()
        inp = random_input(2, 200, seed=0)
        assert state_convergence(dfa, inp) == 7

    def test_constant_machine_converges_to_one(self):
        table = np.zeros((2, 4), dtype=np.int32)  # everything -> state 0
        dfa = DFA(table=table, start=0, accepting=np.zeros(4, dtype=bool))
        assert state_convergence(dfa, np.array([0, 1, 0])) == 1

    def test_window_limits(self):
        dfa = div7_dfa()
        inp = random_input(2, 100, seed=0)
        assert state_convergence(dfa, inp, window=0) == 7


class TestStationary:
    def test_valid_distribution(self):
        dfa = make_random_dfa(6, 3, seed=2)
        pi = stationary_distribution(dfa)
        assert pi.shape == (6,)
        assert pi.min() >= -1e-12
        assert pi.sum() == pytest.approx(1.0)

    def test_div7_uniform(self):
        pi = stationary_distribution(div7_dfa())
        np.testing.assert_allclose(pi, np.full(7, 1 / 7), atol=1e-6)

    def test_symbol_probs_shape_checked(self):
        with pytest.raises(ValueError):
            stationary_distribution(div7_dfa(), np.array([1.0]))

    def test_symbol_probs_nonnegative(self):
        with pytest.raises(ValueError):
            stationary_distribution(div7_dfa(), np.array([-1.0, 0.0]))

    def test_absorbing_state(self):
        table = np.array([[1, 1], [1, 1]], dtype=np.int32)  # 1 absorbs
        dfa = DFA(table=table, start=0, accepting=np.zeros(2, dtype=bool))
        pi = stationary_distribution(dfa)
        assert pi[1] == pytest.approx(1.0, abs=1e-6)

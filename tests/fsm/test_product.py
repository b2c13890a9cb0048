"""Tests for the product construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fsm.product import product_dfa
from repro.fsm.run import run_reference, run_reference_trace
from repro.gpu import Grid
from tests.conftest import make_random_dfa, random_input


class TestProduct:
    def test_single_machine_identity_behaviour(self):
        dfa = make_random_dfa(5, 2, seed=0)
        prod = product_dfa([dfa])
        inp = random_input(2, 200, seed=1)
        assert bool(prod.dfa.accepting[run_reference(prod.dfa, inp)]) == bool(
            dfa.accepting[run_reference(dfa, inp)]
        )

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError, match="num_inputs"):
            product_dfa([make_random_dfa(3, 2, seed=0), make_random_dfa(3, 3, seed=1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            product_dfa([])

    def test_reachable_only(self):
        a = make_random_dfa(4, 2, seed=2)
        b = make_random_dfa(5, 2, seed=3)
        prod = product_dfa([a, b])
        assert prod.dfa.num_states <= 20

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 300), n=st.integers(0, 60))
    def test_components_tracked_exactly(self, seed, n):
        a = make_random_dfa(4, 2, seed=seed)
        b = make_random_dfa(3, 2, seed=seed + 1)
        prod = product_dfa([a, b])
        inp = random_input(2, n, seed=seed + 2)
        ps = run_reference(prod.dfa, inp)
        assert prod.component_accepting(0, np.array([ps]))[0] == bool(
            a.accepting[run_reference(a, inp)]
        )
        assert prod.component_accepting(1, np.array([ps]))[0] == bool(
            b.accepting[run_reference(b, inp)]
        )

    def test_union_acceptance(self):
        a = make_random_dfa(4, 2, seed=8, accepting_fraction=0.5)
        b = make_random_dfa(4, 2, seed=9, accepting_fraction=0.5)
        prod = product_dfa([a, b])
        inp = random_input(2, 100, seed=10)
        want = bool(a.accepting[run_reference(a, inp)]) or bool(
            b.accepting[run_reference(b, inp)]
        )
        assert bool(prod.dfa.accepting[run_reference(prod.dfa, inp)]) == want

    def test_multi_pattern_match_positions(self):
        # one speculative pass finds both patterns' match positions
        import repro
        from repro.fsm.alphabet import Alphabet
        from repro.regex import compile_search

        ab = Alphabet.from_symbols("abc")
        m1 = compile_search("ab", ab, name="ab")
        m2 = compile_search("ca", ab, name="ca")
        prod = product_dfa([m1, m2])
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 3, size=5000).astype(np.int32)
        trace = run_reference_trace(prod.dfa, ids)
        for i, single in enumerate((m1, m2)):
            strace = run_reference_trace(single, ids)
            want = np.flatnonzero(single.accepting[strace])
            got = np.flatnonzero(prod.component_accepting(i, trace))
            np.testing.assert_array_equal(got, want)

    def test_product_through_engine(self):
        import repro
        from repro.fsm.alphabet import Alphabet
        from repro.regex import compile_search

        ab = Alphabet.from_symbols("abc")
        prod = product_dfa(
            [compile_search("ab", ab), compile_search("bc?a", ab)]
        )
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 3, size=20_000).astype(np.int32)
        r = repro.run_speculative(
            prod.dfa, ids, k=4, grid=Grid(num_blocks=2, threads_per_block=32),
        )
        assert r.final_state == run_reference(prod.dfa, ids)

    def test_component_names(self):
        a = make_random_dfa(3, 2, seed=0).with_name("alpha")
        b = make_random_dfa(3, 2, seed=1).with_name("")
        prod = product_dfa([a, b])
        assert prod.component_names == ("alpha", "component_1")
        assert prod.num_components == 2


class TestProductBudgetAndMinimize:
    def test_budget_aborts_construction(self):
        from repro.fsm.product import ProductStateBudget

        machines = [make_random_dfa(6, 3, seed=20 + i) for i in range(3)]
        with pytest.raises(ProductStateBudget):
            product_dfa(machines, max_states=3)

    def test_budget_is_a_value_error(self):
        from repro.fsm.product import ProductStateBudget

        assert issubclass(ProductStateBudget, ValueError)

    def test_budget_large_enough_succeeds(self):
        machines = [make_random_dfa(3, 2, seed=30 + i) for i in range(2)]
        prod = product_dfa(machines, max_states=9)
        assert prod.dfa.num_states <= 9

    def test_minimize_product_preserves_components(self):
        from repro.fsm.product import minimize_product

        a = make_random_dfa(5, 2, seed=40, accepting_fraction=0.4)
        b = make_random_dfa(4, 2, seed=41, accepting_fraction=0.4)
        prod = product_dfa([a, b])
        small = minimize_product(prod)
        assert small.dfa.num_states <= prod.dfa.num_states
        for seed in range(10):
            inp = random_input(2, 120, seed=seed)
            ps = run_reference(small.dfa, inp)
            assert small.component_accepting(0, np.array([ps]))[0] == bool(
                a.accepting[run_reference(a, inp)]
            )
            assert small.component_accepting(1, np.array([ps]))[0] == bool(
                b.accepting[run_reference(b, inp)]
            )

    def test_minimize_product_parallel_equals_sequential(self):
        from repro.fsm.product import minimize_product

        machines = [make_random_dfa(4, 3, seed=50 + i) for i in range(2)]
        prod = product_dfa(machines)
        seq = minimize_product(prod, parallel=False)
        par = minimize_product(prod, parallel=True)
        assert seq.dfa.num_states == par.dfa.num_states

    def test_vectorized_matches_tuple_fallback(self):
        from repro.fsm.product import _product_dfa_tuples

        machines = [make_random_dfa(4, 2, seed=60 + i) for i in range(3)]
        fast = product_dfa(machines)
        slow = _product_dfa_tuples(
            machines, name="product", max_states=None, keep_state_tuples=True
        )
        assert fast.dfa.num_states == slow.dfa.num_states
        for seed in range(8):
            inp = random_input(2, 150, seed=seed)
            assert bool(
                fast.dfa.accepting[run_reference(fast.dfa, inp)]
            ) == bool(slow.dfa.accepting[run_reference(slow.dfa, inp)])

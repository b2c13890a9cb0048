"""Tests for the cost-model-driven k selector (the paper's future work)."""

import numpy as np
import pytest

from repro.apps.div import div7_dfa
from repro.apps.registry import get_application
from repro.core.autotune import KChoice, candidate_ks, choose_k
from repro.workloads.binary import random_bits


class TestCandidates:
    def test_powers_of_two_plus_spec_n(self):
        assert candidate_ks(10) == [1, 2, 4, 8, None]

    def test_capped_at_max_k(self):
        ks = candidate_ks(1000, max_k=8)
        assert ks == [1, 2, 4, 8, None]

    def test_tiny_machine(self):
        assert candidate_ks(2) == [1, None]


class TestChooseK:
    def test_div7_prefers_spec_n(self):
        # Div7: no convergence, tiny state count -> the paper uses spec-N.
        dfa = div7_dfa()
        bits = random_bits(400_000, rng=0)
        choice = choose_k(dfa, bits, probe_items=100_000, lookback=0)
        assert choice.k is None
        assert choice.label == "spec-N"

    def test_regex2_prefers_small_k(self):
        app = get_application("regex2")
        dfa, inputs = app.build_instance(400_000, seed=1)
        choice = choose_k(dfa, inputs, probe_items=100_000,
                          lookback=app.default_lookback)
        assert choice.k == 1  # paper's Figure 13

    def test_regex1_prefers_larger_k(self):
        app = get_application("regex1")
        dfa, inputs = app.build_instance(400_000, seed=1)
        choice = choose_k(dfa, inputs, probe_items=100_000,
                          lookback=app.default_lookback,
                          candidates=[1, 2, 4, 8])
        assert choice.k == 8  # success reaches ~1.0 only at k=8 (Fig. 12)

    def test_choice_close_to_exhaustive(self):
        # the tuner's pick must be within 10% of the best candidate
        app = get_application("huffman")
        dfa, inputs = app.build_instance(300_000, seed=2)
        choice = choose_k(dfa, inputs, probe_items=150_000, lookback=16,
                          candidates=[1, 4, 8])
        speeds = {k: v[0] for k, v in choice.per_k.items()}
        assert choice.modeled_speedup >= 0.9 * max(speeds.values())

    def test_per_k_reports_all_candidates(self):
        dfa = div7_dfa()
        bits = random_bits(200_000, rng=0)
        choice = choose_k(dfa, bits, probe_items=50_000,
                          candidates=[1, 2, None])
        assert set(choice.per_k) == {1, 2, None}
        for speedup, success in choice.per_k.values():
            assert speedup > 0 and 0 <= success <= 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            choose_k(div7_dfa(), np.zeros(0, dtype=np.int32))

    def test_returns_kchoice(self):
        dfa = div7_dfa()
        bits = random_bits(100_000, rng=0)
        choice = choose_k(dfa, bits, probe_items=50_000, candidates=[2, None])
        assert isinstance(choice, KChoice)

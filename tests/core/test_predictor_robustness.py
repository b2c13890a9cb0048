"""Machine fingerprints: the content key of compiled kernels, the serving
registry and the cross-host coordinator."""

from __future__ import annotations

from repro.core.predictor import dfa_fingerprint

from tests.conftest import make_random_dfa


class TestPredictor:
    def test_fingerprint_deterministic_and_distinct(self):
        a = make_random_dfa(6, 3, seed=1)
        b = make_random_dfa(6, 3, seed=2)
        assert dfa_fingerprint(a) == dfa_fingerprint(a)
        assert dfa_fingerprint(a) != dfa_fingerprint(b)

"""Corrupt-store robustness of the history predictor (ISSUE 9 satellite).

A torn, foreign, or partially-rotten JSON store must never take the
engine down: the predictor falls back to an empty history (sample-prior
speculation) and the corruption is visible as the
``predictor.load_corrupt`` counter on the ambient trace. ``TestPredictor``
covers fingerprints, learning, persistence and the engine's ``history=``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import run_speculative
from repro.core.predictor import HistoryPredictor, dfa_fingerprint
from repro.fsm.run import run_reference
from repro.obs.trace import RunTrace

from tests.conftest import make_random_dfa, random_input


def load_counting(path):
    """Load a predictor under a trace; return (predictor, counters)."""
    with RunTrace(run_id="pred").activate() as tr:
        pred = HistoryPredictor(path)
    counts = {c.name: c.value for c in tr.counters.values()}
    return pred, counts


@pytest.mark.parametrize(
    "payload",
    [
        b"{ this is not json",
        b"\x00\x01\x02\xff binary garbage",
        b"[1, 2, 3]",  # valid JSON, wrong shape
        b'{"version": 999, "machines": {}}',  # future format
        b'{"version": 1, "machines": "not-a-dict"}',
        b"",
    ],
)
def test_corrupt_store_falls_back_empty_and_counts(tmp_path, payload):
    path = tmp_path / "history.json"
    path.write_bytes(payload)
    pred, counts = load_counting(path)
    dfa = make_random_dfa(12, 4, seed=2)
    assert pred.prior(dfa) is None  # empty history, sample prior wins
    assert counts.get("predictor.load_corrupt", 0) == 1


def test_partially_corrupt_store_keeps_sound_entries(tmp_path):
    dfa = make_random_dfa(12, 4, seed=2)
    path = tmp_path / "history.json"
    good = HistoryPredictor(path)
    good.observe(dfa, random_input(4, 500, seed=3)[:0])  # may be empty run
    good.observe(dfa, random_input(4, 2_000, seed=3))
    assert good.prior(dfa) is not None

    raw = json.loads(path.read_text())
    raw["machines"]["deadbeef"] = {"counts": "rotten"}
    raw["machines"]["cafebabe"] = {"counts": [1, "x", 3]}
    path.write_text(json.dumps(raw))

    pred, counts = load_counting(path)
    assert counts.get("predictor.load_corrupt", 0) == 1
    assert pred.prior(dfa) is not None  # the sound entry survived
    assert dfa_fingerprint(dfa) in pred._store
    assert "deadbeef" not in pred._store and "cafebabe" not in pred._store


def test_clean_store_counts_nothing(tmp_path):
    dfa = make_random_dfa(12, 4, seed=2)
    path = tmp_path / "history.json"
    good = HistoryPredictor(path)
    good.observe(dfa, random_input(4, 2_000, seed=3))
    pred, counts = load_counting(path)
    assert "predictor.load_corrupt" not in counts
    assert pred.prior(dfa) is not None


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
                merge="parallel", history=path,
            )
            assert res.final_state == ref
        assert path.exists()
        assert HistoryPredictor(path).runs_observed(dfa) == 2

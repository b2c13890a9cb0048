"""Tests for the CSV tokenizer FSM."""

import numpy as np
import pytest

import repro
from repro.apps.csv_tok import (
    FIELD_SEP,
    RECORD_SEP,
    build_csv_tokenizer,
    reference_tokenize_csv,
    synthetic_csv,
)
from repro.fsm.alphabet import Alphabet
from repro.fsm.run import run_reference
from repro.gpu import Grid

AB = Alphabet.ascii(128)


def fsm_tokenize(text: str) -> list[tuple[int, int]]:
    dfa = build_csv_tokenizer()
    ids = AB.encode_text(text)
    state = dfa.start
    out = []
    for i, a in enumerate(ids):
        e = dfa.emit[a, state]
        state = dfa.table[a, state]
        if e >= 0:
            out.append((i, int(e)))
    return out


class TestTokenizer:
    def test_shape(self):
        dfa = build_csv_tokenizer()
        assert dfa.num_states == 4 and dfa.num_inputs == 128

    def test_simple_row(self):
        assert fsm_tokenize("a,b\n") == [(1, FIELD_SEP), (3, RECORD_SEP)]

    def test_quoted_comma_is_data(self):
        text = '"a,b",c\n'
        assert fsm_tokenize(text) == [(5, FIELD_SEP), (7, RECORD_SEP)]

    def test_quoted_newline_is_data(self):
        text = '"a\nb",c\n'
        assert fsm_tokenize(text) == [(5, FIELD_SEP), (7, RECORD_SEP)]

    def test_escaped_quote(self):
        text = '"a""b",c\n'
        assert fsm_tokenize(text) == [(6, FIELD_SEP), (8, RECORD_SEP)]

    def test_empty_fields(self):
        assert fsm_tokenize(",,\n") == [
            (0, FIELD_SEP), (1, FIELD_SEP), (2, RECORD_SEP)
        ]

    def test_quote_mid_unquoted_is_data(self):
        text = 'a"b,c\n'
        assert fsm_tokenize(text) == [(3, FIELD_SEP), (5, RECORD_SEP)]

    CASES = [
        "",
        "plain\n",
        "a,b,c\nd,e,f\n",
        '"x","y"\n',
        '"","",""\n',
        '"a""",“oops trailing"\n'.replace("“", '"'),
        'junk"after,ok\n',
        "unterminated,row",
        '"open quoted never closes, even\nacross lines',
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_matches_reference(self, text):
        assert fsm_tokenize(text) == reference_tokenize_csv(text)

    def test_random_csv_matches_reference(self):
        for seed in range(4):
            text = synthetic_csv(3000, rng=seed)
            assert fsm_tokenize(text) == reference_tokenize_csv(text)

    def test_accepting_between_records(self):
        dfa = build_csv_tokenizer()
        assert dfa.accepts(AB.encode_text("a,b\n"))
        assert not dfa.accepts(AB.encode_text('"open'))


class TestWorkload:
    def test_size(self):
        text = synthetic_csv(5000, rng=1)
        assert len(text) >= 5000
        assert text.endswith("\n")

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_csv(-1)
        with pytest.raises(ValueError):
            synthetic_csv(10, columns=0)
        with pytest.raises(ValueError):
            synthetic_csv(10, quoted_fraction=1.5)

    def test_deterministic(self):
        assert synthetic_csv(1000, rng=2) == synthetic_csv(1000, rng=2)


class TestThroughEngine:
    def test_engine_tokens_match_reference(self):
        text = synthetic_csv(40_000, rng=3)
        dfa = build_csv_tokenizer()
        ids = AB.encode_text(text).astype(np.int32)
        r = repro.run_speculative(
            dfa, ids, k=2, lookback=32, collect=("emissions",),
            grid=Grid(num_blocks=2, threads_per_block=64),
        )
        positions, kinds = r.emissions
        got = list(zip(positions.tolist(), kinds.tolist()))
        assert got == reference_tokenize_csv(text)
        assert r.final_state == run_reference(dfa, ids)

    def test_quoted_state_speculation(self):
        # heavy quoting: boundaries often fall inside quoted fields; the
        # engine must still be exact, and k=2 covers both phase guesses
        text = synthetic_csv(30_000, quoted_fraction=0.9, rng=4)
        dfa = build_csv_tokenizer()
        ids = AB.encode_text(text).astype(np.int32)
        r = repro.run_speculative(
            dfa, ids, k=2, lookback=8, grid=Grid(num_blocks=1, threads_per_block=128),
        )
        assert r.final_state == run_reference(dfa, ids)

"""Hypothesis fuzzing: tokenizer FSMs vs their reference implementations.

The table builders and the hand-written per-character references are
independent encodings of the same rules; fuzzing over adversarial
character soups (heavy in the structural characters) hunts for rule
mismatches that curated cases miss.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.csv_tok import build_csv_tokenizer, reference_tokenize_csv
from repro.apps.html_tok import build_html_tokenizer, reference_tokenize
from repro.fsm.alphabet import Alphabet
from repro.gpu import Grid

AB = Alphabet.ascii(128)

# Alphabets biased toward the structural characters of each format.
html_soup = st.text(alphabet="<>!-dD&;#xX/='\"ab 1\n", max_size=60)
csv_soup = st.text(alphabet='",\nab1 ', max_size=60)


def run_transducer(dfa, text: str) -> list[tuple[int, int]]:
    ids = AB.encode_text(text)
    state = dfa.start
    out = []
    for i, a in enumerate(ids):
        e = dfa.emit[a, state]
        state = dfa.table[a, state]
        if e >= 0:
            out.append((i, int(e)))
    return out


class TestHtmlFuzz:
    @settings(max_examples=300, deadline=None)
    @given(text=html_soup)
    def test_fsm_equals_reference(self, text):
        dfa = build_html_tokenizer()
        assert run_transducer(dfa, text) == reference_tokenize(text)

    @settings(max_examples=100, deadline=None)
    @given(prefix=html_soup, suffix=html_soup)
    def test_tokenization_is_prefix_stable(self, prefix, suffix):
        # tokens of `prefix` are a prefix of tokens of `prefix + suffix`
        dfa = build_html_tokenizer()
        a = run_transducer(dfa, prefix)
        b = run_transducer(dfa, prefix + suffix)
        assert b[: len(a)] == a


class TestCsvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_soup)
    def test_fsm_equals_reference(self, text):
        dfa = build_csv_tokenizer()
        assert run_transducer(dfa, text) == reference_tokenize_csv(text)

    @settings(max_examples=100, deadline=None)
    @given(text=csv_soup)
    def test_engine_recovers_same_tokens(self, text):
        import repro

        if not text:
            return
        dfa = build_csv_tokenizer()
        ids = AB.encode_text(text).astype(np.int32)
        r = repro.run_speculative(
            dfa, ids, k=2, lookback=2, collect=("emissions",),
            grid=Grid(num_blocks=1, threads_per_block=32),
        )
        positions, kinds = r.emissions
        got = list(zip(positions.tolist(), kinds.tolist()))
        assert got == reference_tokenize_csv(text)

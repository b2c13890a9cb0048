"""Tests for application-output recovery through the engine (matches,
decoded symbols, accept counts)."""

import numpy as np
import pytest

import repro
from repro.apps.huffman import HuffmanCode
from repro.apps.paper_regexes import build_regex1, regex1_alphabet
from repro.fsm.run import run_reference_trace
from repro.gpu import Grid
from tests.conftest import make_random_dfa, random_input


class TestMatchPositions:
    def test_regex_matches_equal_sequential(self):
        dfa, class_of = build_regex1()
        ab = regex1_alphabet()
        rng = np.random.default_rng(5)
        text = "".join(rng.choice(list("likeapxyz"), size=3000))
        ids = class_of[ab.encode_text(text)].astype(np.int32)
        r = repro.run_speculative(
            dfa, ids, k=4, collect=("match_positions",),
            grid=Grid(num_blocks=2, threads_per_block=32),
        )
        trace = run_reference_trace(dfa, ids)
        want = np.flatnonzero(dfa.accepting[trace])
        np.testing.assert_array_equal(r.match_positions, want)

    def test_accept_count_collected(self):
        dfa = make_random_dfa(5, 2, seed=0, accepting_fraction=0.4)
        inp = random_input(2, 300, seed=1)
        r = repro.run_speculative(
            dfa, inp, k=2, collect=("accept_count",),
            grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.accept_counts is not None
        assert r.accept_counts.shape == (32, 2)

    def test_no_matches(self):
        dfa, _ = build_regex1()
        # class 6 is 'other': no match can ever complete
        ids = np.full(500, 6, dtype=np.int32)
        r = repro.run_speculative(
            dfa, ids, k=2, collect=("match_positions",),
            grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.match_positions.size == 0


class TestEmissions:
    @pytest.mark.parametrize("merge", ["sequential", "parallel"])
    def test_huffman_decode_through_engine(self, merge):
        code = HuffmanCode.from_frequencies(np.array([9, 6, 4, 2, 1, 1]))
        data = np.random.default_rng(7).integers(0, 6, size=2000)
        bits = code.encode(data).astype(np.int32)
        dfa = code.decoder_dfa()
        r = repro.run_speculative(
            dfa, bits, k=3, merge=merge, lookback=16, collect=("emissions",),
            grid=Grid(num_blocks=2, threads_per_block=32),
        )
        positions, values = r.emissions
        np.testing.assert_array_equal(values, data)
        assert positions.size == data.size
        assert np.all(np.diff(positions) > 0)

    def test_html_tokens_through_engine(self):
        from repro.apps.html_tok import build_html_tokenizer, reference_tokenize
        from repro.fsm.alphabet import Alphabet
        from repro.workloads.html import synthetic_page

        page = synthetic_page(4000, rng=3)
        dfa = build_html_tokenizer()
        ids = Alphabet.ascii(128).encode_text(page).astype(np.int32)
        r = repro.run_speculative(
            dfa, ids, k=1, lookback=64, collect=("emissions",),
            grid=Grid(num_blocks=1, threads_per_block=64),
        )
        positions, values = r.emissions
        want = reference_tokenize(page)
        got = list(zip(positions.tolist(), values.tolist()))
        assert got == want

    def test_emissions_deterministic_across_configs(self):
        code = HuffmanCode.from_frequencies(np.array([5, 3, 2, 1]))
        data = np.random.default_rng(9).integers(0, 4, size=800)
        bits = code.encode(data).astype(np.int32)
        dfa = code.decoder_dfa()
        outs = []
        for chunks in ((1, 32), (2, 64)):
            r = repro.run_speculative(
                dfa, bits, k=2, collect=("emissions",),
                grid=Grid(num_blocks=chunks[0], threads_per_block=chunks[1]),
            )
            outs.append(r.emissions[1])
        np.testing.assert_array_equal(outs[0], outs[1])

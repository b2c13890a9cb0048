"""Tests for the UTF-8 validator FSM (oracle: Python's bytes.decode)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.apps.utf8 import encode_utf8_workload, utf8_validator_dfa
from repro.fsm.run import run_reference
from repro.gpu import Grid


def is_valid_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
        return True
    except UnicodeDecodeError:
        return False


@pytest.fixture(scope="module")
def dfa():
    return utf8_validator_dfa()


class TestValidator:
    def test_shape(self, dfa):
        assert dfa.num_states == 9
        assert dfa.num_inputs == 256

    def test_ascii(self, dfa):
        assert dfa.accepts(np.frombuffer(b"hello", dtype=np.uint8).astype(np.int32))

    def test_two_byte(self, dfa):
        assert dfa.accepts(np.frombuffer("é".encode(), dtype=np.uint8).astype(np.int32))

    def test_three_byte(self, dfa):
        assert dfa.accepts(np.frombuffer("€".encode(), dtype=np.uint8).astype(np.int32))

    def test_four_byte(self, dfa):
        assert dfa.accepts(np.frombuffer("🎉".encode(), dtype=np.uint8).astype(np.int32))

    def test_bare_continuation_rejected(self, dfa):
        assert not dfa.accepts(np.array([0x80], dtype=np.int32))

    def test_overlong_two_byte_rejected(self, dfa):
        # 0xC0 0x80 is an overlong encoding of NUL
        assert not dfa.accepts(np.array([0xC0, 0x80], dtype=np.int32))

    def test_overlong_three_byte_rejected(self, dfa):
        # 0xE0 0x80 0x80 overlong
        assert not dfa.accepts(np.array([0xE0, 0x80, 0x80], dtype=np.int32))

    def test_surrogate_rejected(self, dfa):
        # U+D800 would encode as ED A0 80
        assert not dfa.accepts(np.array([0xED, 0xA0, 0x80], dtype=np.int32))

    def test_above_max_rejected(self, dfa):
        # U+110000 would start F4 90
        assert not dfa.accepts(np.array([0xF4, 0x90, 0x80, 0x80], dtype=np.int32))

    def test_truncated_not_accepting(self, dfa):
        seq = np.frombuffer("€".encode(), dtype=np.uint8).astype(np.int32)
        assert not dfa.accepts(seq[:-1])

    def test_reject_absorbing(self, dfa):
        bad_then_good = np.concatenate(
            [np.array([0xFF], dtype=np.int32),
             np.frombuffer(b"ok", dtype=np.uint8).astype(np.int32)]
        )
        assert not dfa.accepts(bad_then_good)

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=24))
    def test_agrees_with_python_decoder(self, dfa, data):
        ids = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
        assert dfa.accepts(ids) == is_valid_utf8(data)

    @settings(max_examples=100, deadline=None)
    @given(text=st.text(max_size=12))
    def test_all_valid_text_accepted(self, dfa, text):
        data = text.encode("utf-8")
        ids = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
        assert dfa.accepts(ids)


class TestWorkload:
    def test_clean_stream_valid(self, dfa):
        stream = encode_utf8_workload(50_000, rng=0)
        assert dfa.accepts(stream)

    def test_corrupted_stream_invalid(self, dfa):
        stream = encode_utf8_workload(50_000, corruption_rate=0.05, rng=0)
        assert not dfa.accepts(stream)

    def test_validation(self):
        with pytest.raises(ValueError):
            encode_utf8_workload(-1)
        with pytest.raises(ValueError):
            encode_utf8_workload(10, corruption_rate=2.0)

    def test_through_engine(self, dfa):
        stream = encode_utf8_workload(80_000, rng=1)
        r = repro.run_speculative(
            dfa, stream, k=2, lookback=8, grid=Grid(num_blocks=2, threads_per_block=64),
        )
        assert r.final_state == run_reference(dfa, stream)
        # look-back disambiguates continuation position: success is high
        assert r.success_rate > 0.95

    def test_multibyte_boundary_speculation(self, dfa):
        # chunks landing mid-sequence must still merge correctly
        stream = encode_utf8_workload(9_973, rng=2)  # prime-ish size
        r = repro.run_speculative(
            dfa, stream, k=3, lookback=4, grid=Grid(num_blocks=1, threads_per_block=96),
        )
        assert r.final_state == run_reference(dfa, stream)

"""Tests for repro.fsm.alphabet."""

import numpy as np
import pytest

from repro.fsm.alphabet import Alphabet


class TestConstruction:
    def test_from_symbols(self):
        ab = Alphabet.from_symbols("abc")
        assert ab.size == 3
        assert ab.id_of("b") == 1
        assert ab.symbol_of(2) == "c"

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Alphabet.from_symbols("aba")

    def test_binary(self):
        ab = Alphabet.binary()
        assert ab.size == 2
        assert ab.id_of(1) == 1

    def test_ascii(self):
        ab = Alphabet.ascii(128)
        assert ab.size == 128
        assert ab.id_of("A") == 65

    def test_ascii_bad_size(self):
        with pytest.raises(ValueError):
            Alphabet.ascii(0)

    def test_lowercase(self):
        ab = Alphabet.lowercase()
        assert ab.size == 26
        assert ab.id_of("z") == 25

    def test_contains(self):
        ab = Alphabet.from_symbols("xy")
        assert "x" in ab and "q" not in ab

    def test_len(self):
        assert len(Alphabet.from_symbols("xy")) == 2


class TestEncoding:
    def test_encode_sequence(self):
        ab = Alphabet.from_symbols("abc")
        np.testing.assert_array_equal(ab.encode("cab"), [2, 0, 1])

    def test_encode_unknown(self):
        with pytest.raises(KeyError, match="not in alphabet"):
            Alphabet.from_symbols("ab").encode("abc")

    def test_encode_text_contiguous_fast_path(self):
        ab = Alphabet.ascii(128)
        ids = ab.encode_text("Hi!")
        np.testing.assert_array_equal(ids, [72, 105, 33])

    def test_encode_text_out_of_range(self):
        with pytest.raises(KeyError):
            Alphabet.ascii(128).encode_text("é")

    def test_encode_text_noncontiguous(self):
        ab = Alphabet.from_symbols("ba")
        np.testing.assert_array_equal(ab.encode_text("ab"), [1, 0])

    def test_encode_text_noncontiguous_unknown(self):
        with pytest.raises(KeyError):
            Alphabet.from_symbols("ba").encode_text("c")

    def test_decode(self):
        ab = Alphabet.from_symbols("abc")
        assert ab.decode(np.array([2, 0])) == ["c", "a"]

    def test_decode_text(self):
        ab = Alphabet.from_symbols("abc")
        assert ab.decode_text(np.array([0, 1, 2])) == "abc"

    def test_roundtrip(self):
        ab = Alphabet.lowercase()
        text = "speculative"
        assert ab.decode_text(ab.encode_text(text)) == text


class TestJointCompaction:
    def _tables(self, sizes, num_symbols=10, seed=0):
        rng = np.random.default_rng(seed)
        return [
            rng.integers(0, s, size=(num_symbols, s)).astype(np.int32)
            for s in sizes
        ]

    def test_matches_concatenated_compaction(self):
        from repro.fsm.alphabet import compact_alphabet, compact_alphabet_joint

        tables = self._tables([3, 5, 2])
        joint = compact_alphabet_joint(tables)
        single = compact_alphabet(np.concatenate(tables, axis=1))
        assert np.array_equal(joint.class_of, single.class_of)
        assert joint.num_classes == single.num_classes

    def test_round_trip_every_symbol(self):
        from repro.fsm.alphabet import compact_alphabet_joint

        tables = self._tables([4, 3], seed=1)
        joint = compact_alphabet_joint(tables)
        for p, t in enumerate(tables):
            assert np.array_equal(joint.tables[p][joint.class_of], t)

    def test_joint_coarser_than_per_pattern(self):
        # Symbols 0 and 1 agree in table A but not in table B: joint
        # compaction must keep them apart even though A alone merges them.
        from repro.fsm.alphabet import compact_alphabet, compact_alphabet_joint

        a = np.array([[0, 1], [0, 1], [1, 0]], dtype=np.int32)
        b = np.array([[0, 1], [1, 0], [1, 0]], dtype=np.int32)
        assert compact_alphabet(a).num_classes == 2
        joint = compact_alphabet_joint([a, b])
        assert joint.num_classes == 3
        assert joint.class_of[0] != joint.class_of[1]

    def test_identical_rows_do_merge(self):
        from repro.fsm.alphabet import compact_alphabet_joint

        t = np.array([[0, 1], [0, 1], [1, 1]], dtype=np.int32)
        joint = compact_alphabet_joint([t, t.copy()])
        assert joint.num_classes == 2
        assert joint.class_of[0] == joint.class_of[1]
        assert joint.compression == pytest.approx(1.5)

    def test_ragged_padded_table(self):
        from repro.fsm.alphabet import compact_alphabet_joint

        tables = self._tables([2, 5], seed=2)
        joint = compact_alphabet_joint(tables)
        padded = joint.padded_table()
        assert padded.shape == (2, joint.num_classes, 5)
        # Padding states self-loop (unreachable, but well-formed).
        assert np.array_equal(
            padded[0, :, 2:], np.broadcast_to([2, 3, 4], (joint.num_classes, 3))
        )

    def test_validation(self):
        from repro.fsm.alphabet import compact_alphabet_joint

        with pytest.raises(ValueError):
            compact_alphabet_joint([])
        with pytest.raises(ValueError):
            compact_alphabet_joint(
                [np.zeros((3, 2), np.int32), np.zeros((4, 2), np.int32)]
            )


class TestRemap:
    """``remap`` gathers block by block; it must equal one fancy-indexing
    gather across block edges, dtypes and shapes, and still raise."""

    @pytest.mark.parametrize("joint", [False, True])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
    def test_equals_fancy_indexing_across_block_edges(self, joint, dtype):
        from repro.fsm.alphabet import (
            REMAP_BLOCK, compact_alphabet, compact_alphabet_joint,
        )

        rng = np.random.default_rng(3)
        table = rng.integers(0, 4, size=(200, 4)).astype(np.int32)
        table[100:] = table[:100]  # repeated rows: fewer classes than symbols
        comp = compact_alphabet_joint([table]) if joint else compact_alphabet(table)
        for size in (0, 1, REMAP_BLOCK - 1, REMAP_BLOCK, 2 * REMAP_BLOCK + 3):
            x = rng.integers(0, 200, size=size).astype(dtype)
            got = comp.remap(x)
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, comp.class_of[x])
        x2 = rng.integers(0, 200, size=(3, 7)).astype(dtype)
        np.testing.assert_array_equal(comp.remap(x2), comp.class_of[x2])

    def test_out_of_range_raises(self):
        from repro.fsm.alphabet import compact_alphabet

        comp = compact_alphabet(np.array([[0, 1], [1, 0]], dtype=np.int32))
        with pytest.raises(IndexError):
            comp.remap(np.array([0, 1, 2], dtype=np.int32))

"""Tests for the chunk-result algebra and ExecStats."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.types import ChunkResults, ExecStats, SegmentMaps


def simple_results() -> ChunkResults:
    spec = np.array([[0, 1], [2, 3]], dtype=np.int32)
    end = np.array([[2, 3], [0, 1]], dtype=np.int32)
    return ChunkResults(spec=spec, end=end, valid=np.ones((2, 2), dtype=bool))


class TestChunkResults:
    def test_shapes(self):
        r = simple_results()
        assert r.num_chunks == 2 and r.k == 2

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ChunkResults(
                spec=np.zeros((2, 2), dtype=np.int32),
                end=np.zeros((2, 3), dtype=np.int32),
                valid=np.ones((2, 2), dtype=bool),
            )

    def test_1d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            ChunkResults(
                spec=np.zeros(2, dtype=np.int32),
                end=np.zeros(2, dtype=np.int32),
                valid=np.ones(2, dtype=bool),
            )

    def test_lookup_hit(self):
        assert simple_results().lookup(0, 1) == 3

    def test_lookup_miss(self):
        assert simple_results().lookup(0, 9) is None

    def test_lookup_respects_validity(self):
        r = simple_results()
        r.valid[0, 1] = False
        assert r.lookup(0, 1) is None


class TestSegmentMaps:
    def test_from_chunks(self):
        maps = SegmentMaps.from_chunks(simple_results())
        assert maps.num_segments == 2 and maps.k == 2
        np.testing.assert_array_equal(maps.chunk_lo, [0, 1])
        np.testing.assert_array_equal(maps.chunk_hi, [1, 2])

    def test_from_chunks_copies(self):
        r = simple_results()
        maps = SegmentMaps.from_chunks(r)
        maps.spec[0, 0] = 99
        assert r.spec[0, 0] == 0


class TestExecStats:
    def test_success_rate_empty(self):
        assert ExecStats().success_rate == 1.0

    def test_success_rate(self):
        s = ExecStats(success_hits=3, success_total=4)
        assert s.success_rate == 0.75

    def test_cache_hit_rate_default(self):
        assert ExecStats().cache_hit_rate == 1.0

    def test_cache_hit_rate(self):
        s = ExecStats(cache_hits=9, cache_misses=1)
        assert s.cache_hit_rate == 0.9

    def test_total_reexec(self):
        s = ExecStats(reexec_items_seq=1, reexec_items_eager=2, fixup_items=3)
        assert s.total_reexec_items == 6

    def test_project_scales_items(self):
        s = ExecStats(num_items=100, local_steps=10, local_transitions=400,
                      local_input_reads=100, fixup_items=20)
        p = s.project(1000)
        assert p.num_items == 1000
        assert p.local_steps == 100
        assert p.local_transitions == 4000
        assert p.fixup_items == 200

    def test_project_preserves_structure(self):
        s = ExecStats(num_items=100, num_chunks=8, k=2, merge_pair_ops=7,
                      check_comparisons=30, success_hits=7, success_total=7)
        p = s.project(1000)
        assert p.num_chunks == 8
        assert p.merge_pair_ops == 7
        assert p.check_comparisons == 30
        assert p.success_rate == s.success_rate

    def test_project_zero_items_rejected(self):
        with pytest.raises(ValueError):
            ExecStats(num_items=0).project(100)

    def test_project_negative_rejected(self):
        with pytest.raises(ValueError):
            ExecStats(num_items=10).project(-1)

    def test_merged_with(self):
        a = ExecStats(num_items=5, local_transitions=10)
        b = ExecStats(num_items=7, local_transitions=20)
        m = a.merged_with(b)
        assert m.local_transitions == 30
        assert m.num_items == 5  # config echo keeps self's value

    def test_merged_with_sums_every_counter_and_keeps_every_echo(self):
        echoes = {"num_items", "num_chunks", "k", "num_states", "num_inputs",
                  "pool_shm_bytes"}
        names = [f.name for f in fields(ExecStats)]
        a = ExecStats(**{n: 3 * i + 1 for i, n in enumerate(names)})
        b = ExecStats(**{n: 5 * i + 2 for i, n in enumerate(names)})
        before = replace(a)
        m = a.merged_with(b)
        assert type(m) is ExecStats and m is not a
        for i, n in enumerate(names):
            want = 3 * i + 1 if n in echoes else (3 * i + 1) + (5 * i + 2)
            assert getattr(m, n) == want, n
        assert a == before  # operands untouched
        m.local_steps += 1  # the result owns its fields
        assert a == before
        # The summed-fields memo covers exactly the non-echo fields.
        assert m == replace(a, **{
            n: getattr(a, n) + getattr(b, n) + (n == "local_steps")
            for n in names if n not in echoes
        })

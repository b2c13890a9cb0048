"""Tests for lock-step local processing and output recovery."""

import numpy as np
import pytest

from repro.apps import APPLICATIONS
from repro.core.engine import run_speculative, run_speculative_batch
from repro.core.local import (
    process_chunks,
    process_chunks_ragged,
    recover_accepts,
    recover_emissions,
)
from repro.core.types import ExecStats
from repro.fsm.run import run_reference, run_reference_trace, run_segment
from repro.workloads.chunking import plan_chunks, plan_from_lengths, transform_layout
from tests.conftest import make_random_dfa, random_input


def brute_force_end(dfa, inputs, plan, spec):
    out = np.empty_like(spec)
    for c in range(plan.num_chunks):
        seg = inputs[plan.chunk_slice(c)]
        for j in range(spec.shape[1]):
            out[c, j] = run_segment(dfa, seg, int(spec[c, j]))
    return out


class TestProcessChunks:
    @pytest.mark.parametrize("n,chunks,k", [(100, 4, 2), (97, 5, 3), (7, 10, 1), (0, 3, 2)])
    def test_matches_brute_force(self, n, chunks, k):
        dfa = make_random_dfa(6, 3, seed=n + chunks)
        inp = random_input(3, n, seed=1)
        plan = plan_chunks(n, chunks)
        rng = np.random.default_rng(0)
        spec = rng.integers(0, 6, size=(chunks, k)).astype(np.int32)
        end, _ = process_chunks(dfa, inp, plan, spec)
        np.testing.assert_array_equal(end, brute_force_end(dfa, inp, plan, spec))

    def test_transformed_equals_natural(self):
        dfa = make_random_dfa(5, 2, seed=3)
        inp = random_input(2, 237, seed=2)
        plan = plan_chunks(237, 8)
        spec = np.zeros((8, 2), dtype=np.int32)
        spec[:, 1] = 1
        nat, _ = process_chunks(dfa, inp, plan, spec)
        tra, _ = process_chunks(
            dfa, inp, plan, spec, transformed=transform_layout(inp, plan)
        )
        np.testing.assert_array_equal(nat, tra)

    def test_empty_chunks_identity(self):
        dfa = make_random_dfa(5, 2, seed=3)
        inp = random_input(2, 3, seed=2)
        plan = plan_chunks(3, 6)  # chunks 3..5 empty
        spec = np.arange(6, dtype=np.int32)[:, None] % 5
        end, _ = process_chunks(dfa, inp, plan, spec)
        np.testing.assert_array_equal(end[3:], spec[3:])

    def test_stats_counters(self):
        dfa = make_random_dfa(5, 2, seed=3)
        inp = random_input(2, 100, seed=2)
        plan = plan_chunks(100, 4)
        spec = np.zeros((4, 3), dtype=np.int32)
        stats = ExecStats()
        process_chunks(dfa, inp, plan, spec, stats=stats)
        assert stats.local_transitions == 100 * 3
        assert stats.local_input_reads == 100
        assert stats.local_steps == 25

    def test_accept_counts(self):
        dfa = make_random_dfa(5, 2, seed=4, accepting_fraction=0.5)
        inp = random_input(2, 60, seed=2)
        plan = plan_chunks(60, 3)
        spec = np.zeros((3, 1), dtype=np.int32)
        _, acc = process_chunks(dfa, inp, plan, spec, count_accepting=True)
        # brute force accept count for chunk 0 from state 0
        seg = inp[plan.chunk_slice(0)]
        state, count = 0, 0
        for a in seg:
            state = dfa.step(state, int(a))
            count += bool(dfa.accepting[state])
        assert acc[0, 0] == count

    def test_cache_mask_counting(self):
        dfa = make_random_dfa(5, 2, seed=4)
        inp = random_input(2, 50, seed=2)
        plan = plan_chunks(50, 2)
        spec = np.zeros((2, 2), dtype=np.int32)
        stats = ExecStats()
        mask = np.ones(5, dtype=bool)  # everything cached
        process_chunks(dfa, inp, plan, spec, stats=stats, cache_mask=mask)
        assert stats.cache_hits == 50 * 2
        assert stats.cache_misses == 0

    def test_bad_spec_shape(self):
        dfa = make_random_dfa(5, 2, seed=4)
        inp = random_input(2, 50, seed=2)
        plan = plan_chunks(50, 2)
        with pytest.raises(ValueError, match="spec"):
            process_chunks(dfa, inp, plan, np.zeros((3, 2), dtype=np.int32))


def zipf_lengths(num_items, num_chunks, alpha=1.2, seed=0):
    """Chunk lengths ~ shuffled Zipf(alpha) ranks, summing to ``num_items``."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, num_chunks + 1, dtype=np.float64) ** alpha
    rng.shuffle(weights)
    lengths = np.maximum((weights / weights.sum() * num_items).astype(np.int64), 1)
    lengths[int(np.argmax(lengths))] += num_items - int(lengths.sum())
    return lengths


class TestRaggedLiveChunks:
    """A skewed plan steps only its live chunks: ``sum(lengths) * k`` gathers."""

    def test_matches_brute_force(self):
        dfa = make_random_dfa(7, 3, seed=4)
        lengths = np.array([300, 0, 1, 57, 2, 300, 11], dtype=np.int64)
        inp = random_input(3, int(lengths.sum()), seed=5)
        plan = plan_from_lengths(lengths)
        spec = np.random.default_rng(6).integers(0, 7, size=(7, 3)).astype(np.int32)
        stats = ExecStats()
        end = process_chunks_ragged(dfa, inp, plan, spec, stats=stats)
        np.testing.assert_array_equal(end, brute_force_end(dfa, inp, plan, spec))
        assert stats.local_steps == 300
        assert stats.local_gathers == stats.local_transitions == int(lengths.sum()) * 3

    def test_engine_zipf_plan(self):
        dfa, inp = APPLICATIONS["div7"].build(40_000, seed=8)
        lengths = zipf_lengths(inp.size, 64, seed=9)
        plan = plan_from_lengths(lengths)
        assert plan.max_len > 10 * plan.min_len
        r = run_speculative(dfa, inp, k=4, plan=plan, backend="vectorized")
        assert r.config.backend == "vectorized" and r.config.rung == "chunked"
        assert r.stats.local_gathers == int(lengths.sum()) * 4
        assert r.stats.local_steps == plan.max_len
        assert r.final_state == run_reference(dfa, inp)
        trace = run_reference_trace(dfa, inp)
        want = np.where(plan.starts == 0, dfa.start, trace[plan.starts - 1])
        np.testing.assert_array_equal(r.true_starts, want)

    def test_six_request_batch(self):
        dfa, corpus = APPLICATIONS["div7"].build(40_000, seed=3)
        sizes = [6000, 2048, 9000, 1, 4096, 700]
        segs = [corpus[i * 6000 : i * 6000 + n] for i, n in enumerate(sizes)]
        res = run_speculative_batch(dfa, segs)
        # One lane per request, each request one chunk.
        lengths = res.plan.lengths
        assert lengths.tolist() == sizes
        assert res.stats.local_gathers == int(lengths.sum()) == sum(sizes)
        assert res.stats.local_steps == res.plan.max_len == max(sizes)
        for r, seg in enumerate(segs):
            assert res.final_states[r] == run_reference(dfa, seg)


class TestRecovery:
    def test_recover_accepts_equals_trace(self):
        from repro.fsm.run import run_reference_trace

        dfa = make_random_dfa(6, 2, seed=1, accepting_fraction=0.4)
        inp = random_input(2, 120, seed=9)
        plan = plan_chunks(120, 5)
        # true starts from a sequential trace
        trace = run_reference_trace(dfa, inp)
        starts = np.concatenate([[dfa.start], trace[plan.starts[1:] - 1]]).astype(np.int32)
        got = recover_accepts(dfa, inp, plan, starts)
        want = np.flatnonzero(dfa.accepting[trace])
        np.testing.assert_array_equal(got, want)

    def test_recover_emissions_matches_sequential(self):
        from repro.apps.huffman import HuffmanCode
        from repro.fsm.run import run_reference_trace

        code = HuffmanCode.from_frequencies(np.array([5, 4, 3, 2, 1]))
        data = np.random.default_rng(0).integers(0, 5, size=300)
        bits = code.encode(data).astype(np.int32)
        dfa = code.decoder_dfa()
        plan = plan_chunks(bits.size, 7)
        trace = run_reference_trace(dfa, bits)
        starts = np.concatenate([[dfa.start], trace[plan.starts[1:] - 1]]).astype(np.int32)
        _, values = recover_emissions(dfa, bits, plan, starts)
        np.testing.assert_array_equal(values, data)

    def test_recover_emissions_requires_transducer(self):
        dfa = make_random_dfa(4, 2, seed=0)
        inp = random_input(2, 10, seed=0)
        plan = plan_chunks(10, 2)
        with pytest.raises(ValueError, match="emission"):
            recover_emissions(dfa, inp, plan, np.zeros(2, dtype=np.int32))

    def test_recover_bad_starts_shape(self):
        dfa = make_random_dfa(4, 2, seed=0)
        inp = random_input(2, 10, seed=0)
        plan = plan_chunks(10, 2)
        with pytest.raises(ValueError, match="true_starts"):
            recover_accepts(dfa, inp, plan, np.zeros(3, dtype=np.int32))

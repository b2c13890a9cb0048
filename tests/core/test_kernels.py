"""Property tests for the multi-symbol stepping kernel layer.

Every registered kernel must produce bit-identical results to the
sequential reference (:func:`repro.fsm.run.run_reference`) on randomized
machines, strides, chunk plans, and ragged tail lengths — including chunks
shorter than the stride and empty chunks.
"""

import numpy as np
import pytest

from repro.core.engine import run_speculative
from repro.core.kernels import (
    DEFAULT_TABLE_BUDGET_BYTES,
    KERNELS,
    build_stride_tables,
    plan_kernel,
    process_chunks_kernel,
    run_segment_kernel,
    select_kernel,
    stride_table_bytes,
)
from repro.core.local import process_chunks
from repro.core.mp_executor import ScaleoutPool
from repro.core.types import ExecStats
from repro.fsm.alphabet import compact_alphabet
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference, run_segment
from repro.gpu import Grid
from repro.workloads.chunking import plan_chunks, plan_from_lengths, transform_layout
from tests.conftest import make_random_dfa, random_input


def redundant_dfa(num_states, num_rows, num_symbols, seed):
    """A DFA whose symbol axis collapses: ``num_rows`` distinct rows spread
    over ``num_symbols`` symbols (the shape compaction exists for)."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, num_states, size=(num_rows, num_states)).astype(np.int32)
    table = base[rng.integers(0, num_rows, size=num_symbols)]
    return DFA(
        table=table, start=0, accepting=rng.random(num_states) < 0.3
    )


class TestCompaction:
    def test_round_trip(self):
        dfa = redundant_dfa(9, 4, 17, seed=0)
        comp = compact_alphabet(dfa.table)
        assert comp.num_classes <= 4
        np.testing.assert_array_equal(comp.table[comp.class_of], dfa.table)

    def test_first_appearance_order_is_stable(self):
        dfa = redundant_dfa(6, 3, 12, seed=1)
        a = compact_alphabet(dfa.table)
        b = compact_alphabet(dfa.table.copy())
        np.testing.assert_array_equal(a.class_of, b.class_of)
        np.testing.assert_array_equal(a.table, b.table)
        # Class 0 is symbol 0's row by construction.
        assert a.class_of[0] == 0

    def test_all_distinct_rows(self):
        dfa = make_random_dfa(5, 4, seed=2)
        comp = compact_alphabet(dfa.table)
        # Random 4x5 tables essentially never repeat rows; either way the
        # reconstruction identity must hold.
        np.testing.assert_array_equal(comp.table[comp.class_of], dfa.table)
        assert 1 <= comp.num_classes <= 4

    def test_compression_property(self):
        comp = compact_alphabet(redundant_dfa(8, 2, 64, seed=3).table)
        assert comp.compression == 64 / comp.num_classes


class TestStrideTables:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_power_table_matches_composition(self, m):
        dfa = redundant_dfa(7, 5, 5, seed=m)
        comp = compact_alphabet(dfa.table)
        st = build_stride_tables(comp.table, m)
        assert st.table_m.shape == (comp.num_classes ** m, 7)
        rng = np.random.default_rng(m)
        for _ in range(25):
            classes = rng.integers(0, comp.num_classes, size=m)
            q = int(rng.integers(0, 7))
            idx = 0
            state = q
            for c in classes:
                idx = idx * comp.num_classes + int(c)
                state = int(comp.table[c, state])
            assert st.table_m[idx, q] == state

    def test_table_bytes_formula(self):
        assert stride_table_bytes(5, 7, 2) == 25 * 7 * 4
        st = build_stride_tables(np.zeros((3, 4), np.int32), 3)
        assert st.nbytes == stride_table_bytes(3, 4, 3)


# The randomized cross-check grid: every kernel x plans with ragged tails,
# chunks shorter than the stride, and more chunks than items (empty chunks).
CASES = [
    # (num_items, num_chunks, k)
    (211, 8, 3),
    (97, 5, 1),
    (7, 10, 2),  # L < m for stride4, plus empty chunks
    (3, 4, 2),  # chunk lengths in {0, 1}
    (0, 3, 2),  # empty input
    (1024, 16, 4),  # exact multiples, no ragged tail
    (1025, 16, 4),  # one ragged chunk
]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("n,chunks,k", CASES)
def test_kernel_matches_reference(kernel, n, chunks, k):
    dfa = redundant_dfa(11, 4, 13, seed=n * 31 + chunks)
    inp = random_input(13, n, seed=n + k)
    plan = plan_chunks(n, chunks)
    rng = np.random.default_rng(chunks)
    spec = rng.integers(0, 11, size=(chunks, k)).astype(np.int32)
    kplan = plan_kernel(
        dfa, chunk_len=plan.max_len, num_chunks=chunks, k=k, kernel=kernel
    )
    end = process_chunks_kernel(dfa, inp, plan, spec, kplan)
    expect = np.empty_like(spec)
    for c in range(chunks):
        seg = inp[plan.chunk_slice(c)]
        for j in range(k):
            expect[c, j] = run_segment(dfa, seg, int(spec[c, j]))
    np.testing.assert_array_equal(end, expect, err_msg=f"{kernel} {n}/{chunks}/{k}")


@pytest.mark.parametrize("kernel", sorted(KERNELS) + ["process_chunks"])
@pytest.mark.parametrize("layout", ["natural", "transformed"])
def test_longer_chunks_anywhere_in_a_near_equal_plan(kernel, layout):
    """A coalesced request batch is near-equal with its longer chunks
    interleaved (here 56, 56, 56, 55, 55, 56, 56, 55, 55, 55); the ragged
    tail must step those chunks, not the leading ones."""
    dfa = redundant_dfa(11, 4, 13, seed=5)
    plan = plan_from_lengths([56, 56, 56, 55, 55, 56, 56, 55, 55, 55])
    inp = random_input(13, plan.num_items, seed=6)
    spec = np.random.default_rng(7).integers(0, 11, size=(10, 3)).astype(np.int32)
    transformed = transform_layout(inp, plan) if layout == "transformed" else None
    if kernel == "process_chunks":
        end, _ = process_chunks(dfa, inp, plan, spec, transformed=transformed)
    else:
        kplan = plan_kernel(
            dfa, chunk_len=plan.max_len, num_chunks=10, k=3, kernel=kernel
        )
        end = process_chunks_kernel(
            dfa, inp, plan, spec, kplan, transformed=transformed
        )
    expect = np.array([
        [run_segment(dfa, inp[plan.chunk_slice(c)], int(s)) for s in spec[c]]
        for c in range(10)
    ])
    np.testing.assert_array_equal(end, expect)


@pytest.mark.parametrize("kernel", ["stride2", "stride4"])
def test_kernel_transformed_layout_equals_natural(kernel):
    dfa = redundant_dfa(9, 5, 21, seed=7)
    inp = random_input(21, 537, seed=8)
    plan = plan_chunks(537, 12)
    spec = np.random.default_rng(9).integers(0, 9, size=(12, 3)).astype(np.int32)
    kplan = plan_kernel(dfa, chunk_len=plan.max_len, num_chunks=12, k=3, kernel=kernel)
    nat = process_chunks_kernel(dfa, inp, plan, spec, kplan)
    tra = process_chunks_kernel(
        dfa, inp, plan, spec, kplan, transformed=transform_layout(inp, plan)
    )
    np.testing.assert_array_equal(nat, tra)


def test_kernel_stats_match_lockstep_semantics():
    """Stride kernels fill the same algorithmic counters as lockstep."""
    dfa = redundant_dfa(9, 4, 16, seed=11)
    inp = random_input(16, 333, seed=12)
    plan = plan_chunks(333, 8)
    spec = np.zeros((8, 2), dtype=np.int32)
    s_lock, s_stride = ExecStats(), ExecStats()
    process_chunks(dfa, inp, plan, spec, stats=s_lock)
    kplan = plan_kernel(dfa, chunk_len=plan.max_len, num_chunks=8, k=2, kernel="stride4")
    process_chunks_kernel(dfa, inp, plan, spec, kplan, stats=s_stride)
    assert s_stride.local_steps == s_lock.local_steps
    assert s_stride.local_transitions == s_lock.local_transitions
    assert s_stride.local_input_reads == s_lock.local_input_reads


@pytest.mark.parametrize("length", [0, 1, 3, 4, 5, 63, 256])
@pytest.mark.parametrize("kernel", ["lockstep", "stride2", "stride4"])
def test_run_segment_kernel_matches_reference(kernel, length):
    dfa = redundant_dfa(8, 3, 10, seed=length)
    inp = random_input(10, length, seed=length + 1)
    kplan = plan_kernel(dfa, chunk_len=length, num_chunks=1, k=1, kernel=kernel)
    for start in range(dfa.num_states):
        assert run_segment_kernel(kplan, inp, start) == run_reference(
            dfa, inp, start
        )


class TestSelection:
    def test_budget_excludes_oversized_tables(self):
        # 20 classes, 64 states: stride4 needs 20^4 * 64 * 4 = 41 MB.
        assert stride_table_bytes(20, 64, 4) > DEFAULT_TABLE_BUDGET_BYTES
        name = select_kernel(20, 64, 4096, 4096, 4)
        assert name in ("lockstep", "stride2")

    def test_long_chunks_prefer_stride(self):
        assert select_kernel(4, 16, 1 << 14, 4096, 4) == "stride4"

    def test_explicit_oversized_kernel_raises(self):
        dfa = make_random_dfa(64, 20, seed=1)
        with pytest.raises(ValueError, match="budget"):
            plan_kernel(
                dfa, chunk_len=100, num_chunks=8, k=2, kernel="stride4",
                table_budget_bytes=1 << 10,
            )

    def test_scalar_kernel_rejected_up_front(self):
        from repro.core.multipattern import run_multipattern

        dfa = redundant_dfa(8, 3, 10, seed=7)
        inp = random_input(10, 1_000, seed=8)
        with pytest.raises(ValueError, match="kernel"):
            run_speculative(dfa, inp, kernel="scalar")
        with pytest.raises(ValueError, match="kernel"):
            ScaleoutPool(dfa, num_workers=1, kernel="scalar")
        with pytest.raises(ValueError, match="kernel"):
            run_multipattern([dfa, dfa], inp, kernel="scalar")

    def test_auto_plan_respects_budget(self):
        dfa = make_random_dfa(64, 20, seed=1)
        kplan = plan_kernel(
            dfa, chunk_len=1 << 14, num_chunks=4096, k=4,
            table_budget_bytes=1 << 12,
        )
        assert kplan.table_bytes <= (1 << 12) + dfa.num_states * 20 * 4


class TestEngineIntegration:
    @pytest.mark.parametrize("kernel", ["auto", "stride2", "stride4", "lockstep"])
    def test_final_state_matches_reference(self, kernel):
        dfa = redundant_dfa(10, 5, 14, seed=3)
        inp = random_input(14, 9_000, seed=4)
        ref = run_reference(dfa, inp)
        res = run_speculative(
            dfa, inp, k=3, kernel=kernel, grid=Grid(num_blocks=2, threads_per_block=32),
        )
        assert res.final_state == ref
        assert res.config.kernel in KERNELS

    def test_match_positions_kernel_independent(self):
        dfa = redundant_dfa(10, 4, 12, seed=13)
        inp = random_input(12, 5_000, seed=14)
        base = run_speculative(
            dfa, inp, k=2, collect=("match_positions",),
            grid=Grid(num_blocks=1, threads_per_block=64),
        )
        strided = run_speculative(
            dfa, inp, k=2, collect=("match_positions",), kernel="stride4",
            grid=Grid(num_blocks=1, threads_per_block=64),
        )
        np.testing.assert_array_equal(base.match_positions, strided.match_positions)

    def test_stride_rejects_per_symbol_features(self):
        dfa = redundant_dfa(10, 4, 12, seed=15)
        inp = random_input(12, 1_000, seed=16)
        with pytest.raises(ValueError, match="per-symbol"):
            run_speculative(
                dfa, inp, k=2, kernel="stride2",
                grid=Grid(num_blocks=1, threads_per_block=32, cache_table=True),
            )
        # "auto" quietly falls back to lockstep instead.
        res = run_speculative(
            dfa, inp, k=2, kernel="auto",
            grid=Grid(num_blocks=1, threads_per_block=32, cache_table=True),
        )
        assert res.config.kernel == "lockstep"


class TestPoolIntegration:
    @pytest.mark.parametrize("kernel", ["auto", "stride2"])
    @pytest.mark.parametrize("k", [None, 2])
    def test_pool_kernel_exactness(self, kernel, k):
        dfa = redundant_dfa(9, 4, 16, seed=19)
        inp = random_input(16, 20_000, seed=20)
        ref = run_reference(dfa, inp)
        with ScaleoutPool(
            dfa, num_workers=2, k=k, sub_chunks_per_worker=6, kernel=kernel
        ) as pool:
            assert pool.run(inp).final_state == ref
            # stride tables are published once: shm footprint includes them
            if pool.kernel.startswith("stride"):
                assert pool._stride_shm is not None

    def test_pool_single_worker_routes_through_kernel(self):
        dfa = redundant_dfa(9, 4, 16, seed=21)
        inp = random_input(16, 3_000, seed=22)
        with ScaleoutPool(dfa, num_workers=1, kernel="stride4") as pool:
            assert pool.run(inp).final_state == run_reference(dfa, inp)

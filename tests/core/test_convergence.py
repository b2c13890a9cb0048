"""Property tests for the convergence-aware lane-collapse layer.

The contract under test: collapsed execution is **bit-identical** to both
the uncollapsed lock-step run and the sequential reference — across every
registered kernel, every application (including never-converging Div7),
empty chunks, ragged tails, and speculation wider than the state space —
while the modeled counters keep lock-step semantics and the physical
gather count shrinks. Converged chunks must never be charged a merge
check or trigger a re-execution.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.faultinject as fi
from repro.apps import APPLICATIONS, get_application
from repro.core.convergence import (
    CADENCE_BACKOFF,
    DEFAULT_CADENCE,
    CollapseConfig,
    LaneCollapser,
    _pack_lanes,
    collapse_rows,
    converged_chunks,
    coverage_mask,
    probe_cadence,
    resolve_collapse,
)
from repro.core.engine import run_speculative
from repro.core.kernels import KERNELS, plan_kernel, process_chunks_kernel
from repro.core.local import process_chunks
from repro.core.lookback import speculate
from repro.core.mp_executor import ScaleoutPool
from repro.core.types import ExecStats
from repro.fsm.run import run_reference
from repro.gpu import Grid
from repro.workloads.chunking import plan_chunks
from tests.conftest import make_random_dfa, random_input


# --------------------------------------------------------------------------- #
# Storage packing
# --------------------------------------------------------------------------- #


class TestPackLanes:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        k=st.integers(1, 12),
        ns=st.integers(1, 15),
        seed=st.integers(0, 2**31),
    )
    def test_round_trip_and_rowmap_validity(self, n, k, ns, seed):
        rng = np.random.default_rng(seed)
        S = rng.integers(0, ns, size=(n, k)).astype(np.int32)
        out = _pack_lanes(S)
        u_max = max(len(np.unique(r)) for r in S)
        if k <= 1 or u_max >= k:
            assert out is None
            return
        storage, rowmap, recon = out
        # Exact reconstruction of every original lane.
        np.testing.assert_array_equal(storage.ravel()[recon], S)
        # Storage never grows and genuinely shrinks.
        assert storage.size < S.size
        # The first n rows are the chunks themselves, in order.
        np.testing.assert_array_equal(rowmap[:n], np.arange(n))
        # Every storage row (incl. padding) holds states achievable for its
        # chunk — a spill/padding lane never consumes a foreign symbol.
        for i, c in enumerate(rowmap):
            assert set(storage[i].tolist()) <= set(S[c].tolist())

    def test_collapse_rows_round_trip(self):
        S = np.array([[3, 3, 1], [2, 2, 2], [4, 1, 4]], dtype=np.int32)
        compressed, recon = collapse_rows(S)
        np.testing.assert_array_equal(
            np.take_along_axis(compressed, recon, axis=1), S
        )
        assert compressed.shape[1] == 2  # widest row has 2 distinct lanes

    def test_all_distinct_returns_none(self):
        S = np.arange(12, dtype=np.int32).reshape(3, 4)
        assert collapse_rows(S) is None
        assert _pack_lanes(S) is None

    def test_single_lane_returns_none(self):
        S = np.zeros((5, 1), dtype=np.int32)
        assert collapse_rows(S) is None
        assert _pack_lanes(S) is None

    def test_straggler_spills_instead_of_holding_width(self):
        # 7 converged chunks + 1 straggler with 7 distinct lanes: the
        # straggler must not keep the storage at full width.
        S = np.full((8, 8), 5, dtype=np.int32)
        S[0, :7] = np.arange(7)
        storage, rowmap, recon = _pack_lanes(S)
        assert storage.shape[1] < 8
        assert storage.shape[0] > 8  # spill rows for the straggler
        assert (rowmap[8:] == 0).all()  # all spill rows belong to chunk 0
        np.testing.assert_array_equal(storage.ravel()[recon], S)


class TestLaneCollapser:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        cadence=st.integers(1, 40),
        steps=st.integers(0, 120),
    )
    def test_collapsed_walk_equals_plain_walk(self, seed, cadence, steps):
        rng = np.random.default_rng(seed)
        n, k, ns, na = 13, 6, 9, 5
        table = rng.integers(0, ns, size=(na, ns)).astype(np.int32)
        S0 = rng.integers(0, ns, size=(n, k)).astype(np.int32)
        syms = rng.integers(0, na, size=(steps, n))
        ref = S0.copy()
        for j in range(steps):
            ref = table[syms[j][:, None], ref]
        col = LaneCollapser(k, CollapseConfig(cadence=cadence))
        S = S0.copy()
        consumed = 0
        for j in range(steps):
            sy = syms[j]
            if col.rowmap is not None:
                sy = sy[col.rowmap]
            S = table[sy[:, None], S]
            consumed += 1
            if consumed >= col.next_scan:
                S = col.scan(S, consumed)
        np.testing.assert_array_equal(col.expand(S), ref)
        assert col.width <= k

    def test_backoff_on_non_converging_machine(self):
        # A permutation table never merges lanes: every scan misses and the
        # cadence backs off geometrically, bounding total scans.
        n, k, steps = 8, 4, 4096
        table = np.stack([np.roll(np.arange(7), s) for s in (1, 3)]).astype(
            np.int32
        )
        rng = np.random.default_rng(0)
        S = np.tile(np.arange(4, dtype=np.int32), (n, 1))
        col = LaneCollapser(k, CollapseConfig(cadence=8))
        consumed = 0
        for j in range(steps):
            S = table[rng.integers(0, 2), S]
            consumed += 1
            if consumed >= col.next_scan:
                S = col.scan(S, consumed)
        assert col.width == k and col.rowmap is None
        # 8, 16, 32, ... doubling: at most log2(steps/cadence) + 1 scans.
        assert col.scans <= 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CollapseConfig(cadence=0)
        with pytest.raises(ValueError):
            CollapseConfig(backoff=0)
        assert CollapseConfig().label == f"on(W={DEFAULT_CADENCE})"
        assert CollapseConfig(enabled=False).label == "off"
        assert CollapseConfig().backoff == CADENCE_BACKOFF


# --------------------------------------------------------------------------- #
# Coverage soundness
# --------------------------------------------------------------------------- #


class TestCoverage:
    def test_coverage_mask_exact(self):
        M = np.array([[0, 1, 1], [2, 2, 2]], dtype=np.int32)
        spec = np.array([[0, 1], [0, 1]], dtype=np.int32)
        cov = coverage_mask(M, spec, num_states=3)
        # Chunk 0's image {0, 1} is inside {0, 1}; chunk 1's image {2} is not.
        np.testing.assert_array_equal(cov, [True, False])

    def test_converged_requires_coverage(self):
        end = np.array([[4, 4, 4], [5, 5, 5]], dtype=np.int32)
        assert not converged_chunks(end, None).any()
        cov = np.array([True, False])
        np.testing.assert_array_equal(
            converged_chunks(end, cov), [True, False]
        )

    def test_converged_requires_constant_row(self):
        end = np.array([[4, 4, 3], [5, 5, 5]], dtype=np.int32)
        cov = np.array([True, True])
        np.testing.assert_array_equal(
            converged_chunks(end, cov), [False, True]
        )

    def test_converged_respects_valid_mask(self):
        end = np.array([[4, 4, 4]], dtype=np.int32)
        cov = np.array([True])
        valid = np.array([[True, True, False]])
        np.testing.assert_array_equal(
            converged_chunks(end, cov, valid), [False]
        )

    def test_speculate_coverage_marks_chunk0(self):
        dfa = make_random_dfa(12, 3, seed=0)
        inp = random_input(3, 30_000, seed=1)
        plan = plan_chunks(inp.size, 32)
        spec, covered = speculate(
            dfa, inp, plan, k=4, lookback=8, return_coverage=True
        )
        assert covered.shape == (32,)
        assert covered[0]  # chunk 0 starts from dfa.start — always covered
        # Soundness spot-check: for covered chunks the true incoming state
        # is genuinely among the speculated ones.
        ref_final = run_reference(dfa, inp)
        cur = dfa.start
        for c in range(plan.num_chunks):
            if covered[c]:
                assert cur in set(spec[c].tolist())
            lo, ln = int(plan.starts[c]), int(plan.lengths[c])
            for a in inp[lo : lo + ln]:
                cur = int(dfa.table[a, cur])
        assert cur == ref_final


# --------------------------------------------------------------------------- #
# Cadence probe + resolution
# --------------------------------------------------------------------------- #


class TestProbeAndResolve:
    def test_probe_none_on_permutation_machine(self):
        dfa, inputs = get_application("div7").build(40_000, seed=0)
        assert probe_cadence(dfa, inputs, k=8) is None

    @pytest.mark.parametrize("name", ["huffman", "html"])
    def test_probe_finds_cadence_on_converging_machines(self, name):
        dfa, inputs = get_application(name).build(40_000, seed=0)
        w = probe_cadence(dfa, inputs, k=8)
        assert isinstance(w, int) and 8 <= w <= 512

    def test_probe_trivial_inputs(self):
        dfa = make_random_dfa(6, 2, seed=0)
        assert probe_cadence(dfa, np.zeros(0, dtype=np.int32), k=8) is None
        assert probe_cadence(dfa, random_input(2, 100, seed=0), k=1) is None

    def test_resolve_modes(self):
        dfa, inputs = get_application("huffman").build(40_000, seed=0)
        assert resolve_collapse(None, dfa, inputs, k=8) is None
        assert resolve_collapse("off", dfa, inputs, k=8) is None
        on = resolve_collapse("on", dfa, inputs, k=8)
        assert on is not None and on.cadence == DEFAULT_CADENCE
        auto = resolve_collapse("auto", dfa, inputs, k=8)
        assert auto is not None and auto.enabled
        cfg = CollapseConfig(cadence=17)
        assert resolve_collapse(cfg, dfa, inputs, k=8) is cfg
        assert resolve_collapse(CollapseConfig(enabled=False), dfa, inputs, k=8) is None
        with pytest.raises(ValueError):
            resolve_collapse("bogus", dfa, inputs, k=8)

    def test_auto_disables_on_div7(self):
        dfa, inputs = get_application("div7").build(40_000, seed=0)
        assert resolve_collapse("auto", dfa, inputs, k=6) is None


# --------------------------------------------------------------------------- #
# Local-layer equivalence: process_chunks / kernels
# --------------------------------------------------------------------------- #


class TestLocalEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        num_chunks=st.integers(1, 40),
        length=st.integers(0, 3000),
        k=st.integers(1, 9),
        cadence=st.integers(1, 64),
    )
    def test_collapsed_equals_uncollapsed(
        self, seed, num_chunks, length, k, cadence
    ):
        """Includes empty inputs, chunks shorter than the cadence, ragged
        tails, and k larger than the state count (duplicate spec lanes)."""
        dfa = make_random_dfa(7, 3, seed=seed % 1000)
        inp = random_input(3, length, seed=seed % 997)
        plan = plan_chunks(inp.size, num_chunks)
        rng = np.random.default_rng(seed)
        spec = rng.integers(0, 7, size=(num_chunks, k)).astype(np.int32)
        base, _ = process_chunks(dfa, inp, plan, spec)
        cfg = CollapseConfig(cadence=cadence)
        stats = ExecStats()
        end, _ = process_chunks(dfa, inp, plan, spec, collapse=cfg, stats=stats)
        np.testing.assert_array_equal(end, base)
        # Modeled counter keeps lock-step semantics regardless of collapse.
        assert stats.local_transitions == int(plan.lengths.sum()) * k
        assert stats.local_gathers <= stats.local_transitions

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_every_kernel_collapsed_equals_uncollapsed(self, kernel):
        dfa = make_random_dfa(9, 6, seed=3)
        inp = random_input(6, 40_000, seed=4)
        plan = plan_chunks(inp.size, 24)
        rng = np.random.default_rng(5)
        spec = rng.integers(0, 9, size=(24, 5)).astype(np.int32)
        base, _ = process_chunks(dfa, inp, plan, spec)
        kplan = plan_kernel(
            dfa, chunk_len=plan.max_len, num_chunks=24, k=5, kernel=kernel
        )
        stats = ExecStats()
        end = process_chunks_kernel(
            dfa, inp, plan, spec, kplan,
            collapse=CollapseConfig(cadence=16), stats=stats,
        )
        np.testing.assert_array_equal(end, base)
        assert stats.local_transitions == int(plan.lengths.sum()) * 5
        assert stats.local_gathers <= stats.local_transitions

    def test_collapse_reduces_physical_gathers(self):
        dfa, inp = get_application("huffman").build(1 << 17, seed=0)
        plan = plan_chunks(inp.size, 64)
        spec = speculate(dfa, inp, plan, k=8, lookback=16)
        off, on = ExecStats(), ExecStats()
        base, _ = process_chunks(dfa, inp, plan, spec, stats=off)
        end, _ = process_chunks(
            dfa, inp, plan, spec, stats=on,
            collapse=CollapseConfig(cadence=16),
        )
        np.testing.assert_array_equal(end, base)
        assert on.local_transitions == off.local_transitions  # modeled
        assert on.local_gathers < off.local_gathers / 2  # physical
        assert on.collapse_scans > 0
        assert on.lanes_collapsed > 0

    def test_per_symbol_features_disable_collapse(self):
        dfa = make_random_dfa(6, 2, seed=9)
        inp = random_input(2, 5_000, seed=9)
        plan = plan_chunks(inp.size, 8)
        spec = np.zeros((8, 3), dtype=np.int32)
        stats = ExecStats()
        end, acc = process_chunks(
            dfa, inp, plan, spec, collapse=CollapseConfig(cadence=4),
            count_accepting=True, stats=stats,
        )
        assert acc is not None
        assert stats.collapse_scans == 0  # silently full-width


# --------------------------------------------------------------------------- #
# Engine-level equivalence
# --------------------------------------------------------------------------- #


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    @pytest.mark.parametrize("merge", ["sequential", "parallel"])
    def test_apps_match_reference_and_off(self, name, merge):
        app = get_application(name)
        dfa, inputs = app.build(60_000, seed=11)
        ref = run_reference(dfa, inputs)
        kw = dict(
            k=8, merge=merge, lookback=app.default_lookback,
            grid=Grid(num_blocks=2, threads_per_block=32),
        )
        base = run_speculative(dfa, inputs, collapse="off", **kw)
        assert base.final_state == ref
        for mode in ("on", "auto"):
            r = run_speculative(dfa, inputs, collapse=mode, **kw)
            assert r.final_state == ref
            if base.true_starts is not None and r.true_starts is not None:
                np.testing.assert_array_equal(r.true_starts, base.true_starts)

    @pytest.mark.parametrize("reexec", ["delayed", "eager"])
    def test_reexec_modes(self, reexec):
        dfa = make_random_dfa(20, 4, seed=21)
        inputs = random_input(4, 50_000, seed=22)
        ref = run_reference(dfa, inputs)
        for mode in ("off", "on"):
            r = run_speculative(
                dfa, inputs, k=3, merge="parallel", reexec=reexec, lookback=4,
                collapse=mode, grid=Grid(num_blocks=2, threads_per_block=32),
            )
            assert r.final_state == ref

    @pytest.mark.parametrize("kernel", ["auto"] + sorted(KERNELS))
    def test_kernels_under_collapse(self, kernel):
        dfa = make_random_dfa(8, 5, seed=31)
        inputs = random_input(5, 40_000, seed=32)
        ref = run_reference(dfa, inputs)
        r = run_speculative(
            dfa, inputs, k=4, lookback=8, kernel=kernel, collapse="on",
            grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.final_state == ref

    def test_k_wider_than_state_space(self):
        dfa = make_random_dfa(5, 3, seed=41)
        inputs = random_input(3, 20_000, seed=42)
        r = run_speculative(
            dfa, inputs, k=16, collapse="on",
            grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.final_state == run_reference(dfa, inputs)

    def test_empty_and_tiny_inputs(self):
        dfa = make_random_dfa(6, 2, seed=51)
        for n in (0, 1, 7):
            inputs = random_input(2, n, seed=n)
            r = run_speculative(
                dfa, inputs, k=4, collapse="on",
                grid=Grid(num_blocks=1, threads_per_block=32),
            )
            assert r.final_state == run_reference(dfa, inputs)

    def test_converged_chunks_skip_all_checks(self):
        """Acceptance criterion: a fully converged run is charged zero
        merge check comparisons and zero re-executions."""
        dfa, inputs = get_application("huffman").build(1 << 19, seed=6)
        ref = run_reference(dfa, inputs)
        for merge in ("sequential", "parallel"):
            r = run_speculative(
                dfa, inputs, k=8, merge=merge, lookback=16, collapse="on",
                grid=Grid(num_blocks=2, threads_per_block=64),
            )
            assert r.final_state == ref
            s = r.stats
            assert s.chunks_converged == s.num_chunks
            assert s.checks_skipped > 0
            assert s.check_comparisons == 0
            assert s.reexec_chunks_seq == 0
            assert s.reexec_chunks_eager == 0 and s.fixup_chunks == 0

    def test_modeled_counters_lockstep_invariant(self):
        dfa, inputs = get_application("huffman").build(1 << 18, seed=7)
        kw = dict(k=8, lookback=16, grid=Grid(num_blocks=2, threads_per_block=64))
        off = run_speculative(dfa, inputs, collapse="off", **kw).stats
        on = run_speculative(dfa, inputs, collapse="on", **kw).stats
        assert on.local_transitions == off.local_transitions
        assert on.local_input_reads == off.local_input_reads
        assert on.local_gathers < off.local_gathers
        assert on.chunks_converged > 0

    def test_spec_counters_reach_trace(self):
        from repro.obs.trace import RunTrace

        dfa, inputs = get_application("huffman").build(1 << 17, seed=8)
        t = RunTrace("collapse")
        run_speculative(
            dfa, inputs, k=8, lookback=16, collapse="on", trace=t,
            grid=Grid(num_blocks=1, threads_per_block=64),
        )
        counters = t.counters
        assert counters["spec.collapse_scans"].value > 0
        assert counters["spec.lanes_collapsed"].value > 0
        assert counters["spec.chunks_converged"].value > 0
        assert counters["spec.checks_skipped"].value > 0

    def test_engine_config_label(self):
        dfa, inputs = get_application("huffman").build(1 << 15, seed=9)
        r = run_speculative(
            dfa, inputs, k=8, lookback=16, collapse="on",
            grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.config.collapse == f"on(W={DEFAULT_CADENCE})"
        r = run_speculative(
            dfa, inputs, k=8, lookback=16, collapse="off",
            grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.config.collapse == "off"


# --------------------------------------------------------------------------- #
# Scale-out pool + streaming
# --------------------------------------------------------------------------- #


class TestScaleout:
    @pytest.mark.parametrize("mode", ["off", "on", "auto"])
    def test_pool_exactness(self, mode):
        dfa, inputs = get_application("huffman").build(1 << 17, seed=12)
        ref = run_reference(dfa, inputs)
        with ScaleoutPool(
            dfa, num_workers=2, k=8, lookback=16, sub_chunks_per_worker=16,
            collapse=mode,
        ) as pool:
            res = pool.run(inputs)
        assert res.final_state == ref
        if mode != "off":
            assert res.stats.chunks_converged > 0
            assert res.stats.checks_skipped > 0

    def test_pool_random_dfa_equivalence(self):
        dfa = make_random_dfa(11, 4, seed=13)
        inputs = random_input(4, 50_000, seed=14)
        ref = run_reference(dfa, inputs)
        for mode in ("off", "auto"):
            with ScaleoutPool(
                dfa, num_workers=3, k=4, sub_chunks_per_worker=8,
                collapse=mode,
            ) as pool:
                assert pool.run(inputs).final_state == ref

    def test_worker_kill_mid_collapse_recovers_exactly(self):
        """Chaos criterion: a worker killed mid-collapse is respawned and
        rebuilds its collapse state deterministically from the task tuple —
        the retried run is exact, with convergence still detected."""
        dfa, inputs = get_application("huffman").build(1 << 17, seed=15)
        ref = run_reference(dfa, inputs)
        plan = fi.FaultPlan([fi.kill_worker(0, at_task=0)])
        with ScaleoutPool(
            dfa, num_workers=2, k=8, lookback=16, sub_chunks_per_worker=16,
            collapse="on", fault_plan=plan,
        ) as pool:
            res = pool.run(inputs)
            assert res.final_state == ref
            assert res.recovery is not None
            assert res.recovery.worker_deaths == 1
            assert res.stats.chunks_converged > 0
            # Subsequent clean runs keep collapsing.
            clean = pool.run(inputs)
            assert clean.final_state == ref
            assert clean.recovery is None
            assert clean.stats.chunks_converged > 0

    def test_streaming_simulate_collapse(self):
        dfa, inputs = get_application("huffman").build(1 << 17, seed=16)
        ref = run_reference(dfa, inputs)
        finals = {}
        for mode in ("off", "auto"):
            # A modeled-GPU session: each block speculates on the grid from
            # the state carried into it.
            state = dfa.start
            for block in np.array_split(inputs, 4):
                state = run_speculative(
                    dfa.with_start(state), block, k=8, lookback=16,
                    collapse=mode, grid=Grid(num_blocks=2, threads_per_block=64),
                ).final_state
            finals[mode] = state
        assert finals["off"] == finals["auto"] == ref

"""Tests for the native-compiled hot path (repro.core.native).

Every kernel the C generator emits is property-tested for bit-exactness
against :func:`repro.fsm.run.run_reference` and the NumPy kernel layer —
across applications, stride widths, collapse on/off, ragged tails,
chunks shorter than the stride, and empty chunks — and the JIT cache is
tested for warm restarts (a second process performs zero compiles) and
atomicity under concurrent compilers. Tests that need a working compiler
skip cleanly when none exists (the ``CC=/bin/false`` CI leg).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.apps.registry import get_application
from repro.core.convergence import CollapseConfig
from repro.core.engine import run_speculative, run_speculative_batch
from repro.core.kernels import plan_kernel, process_chunks_kernel
from repro.core.lookback import speculate
from repro.core.merge_par import compose_maps
from repro.core.mp_executor import ScaleoutPool
from repro.core.native import (
    ABI_VERSION,
    NativeSpec,
    UNROLL_LIMIT,
    cache_key,
    clear_memory_cache,
    find_compiler,
    generate_source,
    load_artifact,
    load_native_plan,
    native_available,
    reset_build_state,
)
from repro.core.native.build import ensure_artifact
from repro.fsm.run import run_reference
from repro.workloads.chunking import plan_chunks, plan_from_lengths
from tests.conftest import make_random_dfa, random_input

def _probe_native() -> bool:
    """Whether native kernels actually *load* (``CC=/bin/false`` resolves
    via ``which`` but fails every build, so probe with a real load once)."""
    if not native_available():
        return False
    return load_native_plan(make_random_dfa(4, 3, seed=0), k=2) is not None


HAVE_NATIVE = _probe_native()
needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="no working C compiler"
)


def _load(dfa, k, *, kernel="auto", collapse=None, **kw):
    nk = load_native_plan(dfa, k=k, kernel=kernel, collapse=collapse, **kw)
    assert nk is not None, "native kernel failed to load"
    return nk


# --------------------------------------------------------------------------- #
# code generation
# --------------------------------------------------------------------------- #


class TestCodegen:
    def test_source_unrolls_small_k(self):
        src = generate_source(NativeSpec(k=3, m=2, num_classes=4, num_states=9))
        assert "s0" in src and "s2" in src and "int32_t st[" not in src

    def test_source_array_lanes_large_k(self):
        src = generate_source(
            NativeSpec(k=UNROLL_LIMIT + 2, m=1, num_classes=4, num_states=20)
        )
        assert "st[" in src

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NativeSpec(k=0, m=1, num_classes=2, num_states=2)
        with pytest.raises(ValueError):
            NativeSpec(k=2, m=0, num_classes=2, num_states=2)

    def test_cache_key_axes_distinct(self):
        base = dict(k=4, kernel="stride2:m2", collapse="off")
        k0 = cache_key("fp", **base)
        assert k0 != cache_key("fp2", **base)
        assert k0 != cache_key("fp", **{**base, "k": 5})
        assert k0 != cache_key("fp", **{**base, "collapse": "on(W=32,B=2)"})
        assert k0 != cache_key("fp", **base, abi=ABI_VERSION + 1)


# --------------------------------------------------------------------------- #
# bit-exactness of the compiled kernels
# --------------------------------------------------------------------------- #


@needs_native
class TestBitExact:
    @pytest.mark.parametrize("kernel", ["lockstep", "stride2", "stride4"])
    @pytest.mark.parametrize("collapse", [None, CollapseConfig(cadence=16)])
    def test_process_chunks_matches_numpy(self, kernel, collapse):
        dfa = make_random_dfa(18, 12, seed=3)
        inputs = random_input(12, 40_000, seed=4)
        plan = plan_chunks(inputs.size, 32)
        k = 4
        spec = speculate(dfa, inputs, plan, k, lookback=8)
        kplan = plan_kernel(
            dfa, chunk_len=plan.max_len, num_chunks=plan.num_chunks,
            k=k, kernel=kernel,
        )
        nk = _load(dfa, k, kernel=kernel, collapse=collapse)
        end_native = nk.process_chunks(inputs, plan, spec)
        end_numpy = process_chunks_kernel(dfa, inputs, plan, spec, kplan)
        assert np.array_equal(end_native, end_numpy)

    @pytest.mark.parametrize("app", ["huffman", "regex1", "div7"])
    def test_run_segment_matches_reference(self, app):
        dfa, inputs = get_application(app).build_instance(20_000, seed=5)
        nk = _load(dfa, 4)
        for start in range(min(dfa.num_states, 6)):
            assert nk.run_segment(inputs, start) == run_reference(
                dfa, inputs, start=start
            )

    def test_ragged_short_and_empty_chunks(self):
        # Lengths below the stride, a zero-length chunk, and ragged tails.
        dfa = make_random_dfa(9, 5, seed=6)
        lengths = np.array([1, 0, 3, 4097, 2, 777, 5], dtype=np.int64)
        plan = plan_from_lengths(lengths)
        inputs = random_input(5, int(lengths.sum()), seed=7)
        k = 3
        spec = np.stack(
            [np.arange(k, dtype=np.int32) % dfa.num_states] * plan.num_chunks
        )
        nk = _load(dfa, k, kernel="stride4")
        end = nk.process_chunks(inputs, plan, spec)
        for c in range(plan.num_chunks):
            seg = inputs[plan.chunk_slice(c)]
            for j in range(k):
                assert end[c, j] == run_reference(
                    dfa, seg, start=int(spec[c, j])
                )

    def test_large_k_array_lane_path(self):
        dfa = make_random_dfa(14, 6, seed=8)
        inputs = random_input(6, 15_000, seed=9)
        k = UNROLL_LIMIT + 4  # forces the st[]-loop variant
        plan = plan_chunks(inputs.size, 8)
        spec = speculate(dfa, inputs, plan, k, lookback=8)
        nk = _load(dfa, k)
        end = nk.process_chunks(inputs, plan, spec)
        for c in (0, plan.num_chunks - 1):
            seg = inputs[plan.chunk_slice(c)]
            for j in range(k):
                assert end[c, j] == run_reference(
                    dfa, seg, start=int(spec[c, j])
                )

    def test_empty_segment_run(self):
        dfa = make_random_dfa(7, 4, seed=10)
        nk = _load(dfa, 2)
        assert nk.run_segment(np.zeros(0, dtype=np.int32), 5) == 5

    def test_fold_maps_matches_python_fold(self):
        dfa = make_random_dfa(16, 8, seed=11)
        inputs = random_input(8, 30_000, seed=12)
        plan = plan_chunks(inputs.size, 24)
        k = 4
        rng = np.random.default_rng(13)
        # Random speculation rows force genuine misses in the fold.
        spec = rng.integers(
            0, dfa.num_states, size=(plan.num_chunks, k)
        ).astype(np.int32)
        kplan = plan_kernel(
            dfa, chunk_len=plan.max_len, num_chunks=plan.num_chunks, k=k,
        )
        end = process_chunks_kernel(dfa, inputs, plan, spec, kplan)
        converged = np.zeros(plan.num_chunks, dtype=bool)
        converged[5] = bool((end[5] == end[5, 0]).all())

        # Python reference fold (the pool worker's NumPy loop).
        cur = end[0][None, :].copy()
        valid = np.ones((1, k), dtype=bool)
        for c in range(1, plan.num_chunks):
            if converged[c]:
                cur = np.full_like(cur, end[c, 0])
                continue
            nxt, found, _ = compose_maps(
                cur, valid, spec[c][None, :], end[c][None, :], valid
            )
            for j in np.flatnonzero(~found[0]):
                nxt[0, j] = run_reference(
                    dfa, inputs[plan.chunk_slice(c)], start=int(cur[0, j])
                )
            cur = nxt

        nk = _load(dfa, k)
        row, counters = nk.fold_maps(
            spec, end, inputs, plan.starts, plan.lengths, converged=converged
        )
        assert np.array_equal(row, cur[0])
        assert counters.reexec_chunks > 0  # random rows must have missed


# --------------------------------------------------------------------------- #
# engine integration
# --------------------------------------------------------------------------- #


@needs_native
class TestEngineBackend:
    @pytest.mark.parametrize("merge", ["parallel", "sequential"])
    def test_native_equals_vectorized(self, merge):
        dfa = make_random_dfa(20, 10, seed=14)
        inputs = random_input(10, 60_000, seed=15)
        kw = dict(
            k=4, num_blocks=2, threads_per_block=32, merge=merge, price=False,
        )
        rn = run_speculative(dfa, inputs, backend="native", **kw)
        rv = run_speculative(dfa, inputs, backend="vectorized", **kw)
        assert rn.final_state == rv.final_state == run_reference(dfa, inputs)
        assert rn.config.backend == "native"

    def test_batch_native_matches(self):
        dfa = make_random_dfa(12, 6, seed=16)
        rng = np.random.default_rng(17)
        segs = [
            rng.integers(0, 6, size=n, dtype=np.int32)
            for n in (0, 100, 9_000, 3)
        ]
        starts = [0, 2, 5, 1]
        nk = _load(dfa, 4)
        res = run_speculative_batch(dfa, segs, starts=starts, k=4, native=nk)
        for i, (seg, s0) in enumerate(zip(segs, starts)):
            assert res.final_states[i] == run_reference(dfa, seg, start=s0)

    def test_kernels_native_param(self):
        dfa = make_random_dfa(10, 5, seed=18)
        inputs = random_input(5, 20_000, seed=19)
        plan = plan_chunks(inputs.size, 16)
        spec = speculate(dfa, inputs, plan, 4, lookback=8)
        kplan = plan_kernel(
            dfa, chunk_len=plan.max_len, num_chunks=plan.num_chunks, k=4,
        )
        nk = _load(dfa, 4)
        assert np.array_equal(
            process_chunks_kernel(dfa, inputs, plan, spec, kplan, native=nk),
            process_chunks_kernel(dfa, inputs, plan, spec, kplan),
        )


# --------------------------------------------------------------------------- #
# the JIT cache
# --------------------------------------------------------------------------- #


class TestCache:
    @needs_native
    def test_memory_cache_returns_same_object(self):
        dfa = make_random_dfa(8, 4, seed=20)
        kplan = plan_kernel(dfa, chunk_len=1 << 12, num_chunks=16, k=2)
        a = load_native_plan(dfa, k=2, kplan=kplan)
        b = load_native_plan(dfa, k=2, kplan=kplan)
        assert a is not None and a is b

    @needs_native
    def test_repeated_engine_call_hits_memory_cache(self, monkeypatch):
        """A second identical call reuses the loaded kernel: one memory hit,
        no re-plan, no disk lookup, no smoke check."""
        from repro.core.native import runtime
        from repro.core.native.build import build_stats

        dfa = make_random_dfa(10, 4, seed=25)
        inputs = random_input(4, 20_000, seed=26)
        first = run_speculative(dfa, inputs, k=2, backend="native")
        assert first.config.backend == "native"
        smokes = []
        real_smoke = runtime._smoke_check
        monkeypatch.setattr(
            runtime, "_smoke_check",
            lambda nk, d: smokes.append(nk) or real_smoke(nk, d),
        )
        before = build_stats()
        entries = runtime.cache_stats()["mem_entries"]
        second = run_speculative(dfa, inputs, k=2, backend="native")
        after = build_stats()
        assert after["hit_mem"] == before["hit_mem"] + 1
        assert after["hit_disk"] == before["hit_disk"]
        assert smokes == []
        assert runtime.cache_stats()["mem_entries"] == entries
        assert second.native is first.native
        assert second.final_state == run_reference(dfa, inputs)

    @needs_native
    def test_repeated_multipattern_call_hits_memory_cache(self):
        """The batched route reuses the stack's union plan, so identical
        native calls find the loaded kernel in memory, not on disk."""
        from repro.core.multipattern import run_multipattern, stack_machines
        from repro.core.native.build import build_stats

        machines = [make_random_dfa(6, 4, seed=s) for s in (31, 32, 33)]
        inputs = random_input(4, 20_000, seed=34)
        st = stack_machines(machines)
        before = build_stats()
        results = [
            run_multipattern(
                machines, inputs, k=2, route="batched", backend="native",
                stack=st,
            )
            for _ in range(3)
        ]
        after = build_stats()
        assert after["hit_mem"] - before["hit_mem"] >= 2
        for res in results:
            for m, pr in zip(machines, res.patterns):
                assert pr.final_state == run_reference(m, inputs)

    @pytest.mark.skipif(
        find_compiler() is None, reason="needs a real C compiler"
    )
    def test_warm_start_second_process_zero_compiles(self, tmp_path):
        """Acceptance: a restarted process with a warm disk cache never
        invokes the compiler (asserted via the native.compile stats)."""
        code = """
import json, sys
import numpy as np
from repro.core.native import load_native_plan
from repro.core.native.build import build_stats
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference
dfa = DFA.random(11, 7, rng=42)
rng = np.random.default_rng(1)
inputs = rng.integers(0, 7, size=30_000, dtype=np.int32)
nk = load_native_plan(dfa, k=4)
assert nk is not None, "load failed"
assert nk.run_segment(inputs, 0) == run_reference(dfa, inputs)
print(json.dumps(build_stats()))
"""
        env = dict(
            os.environ,
            REPRO_NATIVE_CACHE=str(tmp_path),
            PYTHONPATH=os.pathsep.join(sys.path),
        )
        env.pop("CC", None)
        cold = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True,
        )
        assert cold.returncode == 0, cold.stderr
        cold_stats = json.loads(cold.stdout.strip().splitlines()[-1])
        warm = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True,
        )
        assert warm.returncode == 0, warm.stderr
        warm_stats = json.loads(warm.stdout.strip().splitlines()[-1])
        assert cold_stats["compiles"] >= 1
        assert warm_stats["compiles"] == 0
        assert warm_stats["hit_disk"] >= 1

    def test_concurrent_compiles_are_atomic(self, tmp_path, monkeypatch):
        # Needs a real compiler: ignore a $CC pointed at /bin/false, as the
        # warm-start test does for its child processes.
        monkeypatch.delenv("CC", raising=False)
        if find_compiler() is None:
            pytest.skip("needs a real C compiler")
        spec = NativeSpec(k=2, m=2, num_classes=3, num_states=5)
        key = cache_key("race-fp", k=2, kernel="stride2:m2", collapse="off")
        barrier = threading.Barrier(4)
        paths, errors = [], []

        def compile_one():
            try:
                barrier.wait(timeout=30)
                paths.append(
                    ensure_artifact(
                        key, lambda: generate_source(spec),
                        directory=str(tmp_path),
                    )
                )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=compile_one) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert len(set(paths)) == 1 and os.path.exists(paths[0])
        spec2 = NativeSpec(k=2, m=2, num_classes=3, num_states=5)
        dfa = make_random_dfa(5, 3, seed=1)
        kplan = plan_kernel(
            dfa, chunk_len=1 << 10, num_chunks=4, k=2, kernel="stride2",
        )
        nk = load_artifact(paths[0], (2, 2, 3, 5, 0, 2), kplan)
        # num_classes of this DFA may differ from the raced spec; only the
        # load/ABI handshake is under test here.
        assert nk is None or nk.spec == spec2

    def test_no_compiler_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        reset_build_state()
        clear_memory_cache()
        try:
            dfa = make_random_dfa(9, 4, seed=21)
            assert load_native_plan(dfa, k=3) is None
            inputs = random_input(4, 30_000, seed=22)
            res = run_speculative(
                dfa, inputs, k=3, num_blocks=2, threads_per_block=32,
                backend="native", price=False,
            )
            assert res.final_state == run_reference(dfa, inputs)
            assert res.config.backend == "vectorized"  # silent fallback
            from repro.core.native.build import build_stats
            assert build_stats()["fallbacks"] >= 1
        finally:
            reset_build_state()
            clear_memory_cache()


# --------------------------------------------------------------------------- #
# pool integration
# --------------------------------------------------------------------------- #


@needs_native
class TestPoolNative:
    def test_pool_native_equals_numpy(self):
        dfa = make_random_dfa(15, 8, seed=23)
        inputs = random_input(8, 120_000, seed=24)
        ref = run_reference(dfa, inputs)
        with ScaleoutPool(
            dfa, num_workers=2, k=4, sub_chunks_per_worker=8,
            backend="native",
        ) as pool:
            assert pool.run(inputs).final_state == ref

    def test_pool_kill_worker_under_native(self):
        from repro.core import faultinject as fi

        dfa, inputs = get_application("huffman").build_instance(
            1 << 16, seed=27
        )
        ref = run_reference(dfa, inputs)
        plan = fi.FaultPlan([fi.kill_worker(0, at_task=0)])
        with ScaleoutPool(
            dfa, num_workers=2, k=8, lookback=16, sub_chunks_per_worker=16,
            collapse="on", fault_plan=plan, backend="native",
        ) as pool:
            res = pool.run(inputs)
            assert res.final_state == ref
            assert res.recovery is not None
            assert res.recovery.worker_deaths == 1
            clean = pool.run(inputs)
            assert clean.final_state == ref and clean.recovery is None

    def test_pool_rejects_bad_backend(self):
        dfa = make_random_dfa(5, 3, seed=28)
        with pytest.raises(ValueError, match="backend"):
            ScaleoutPool(dfa, num_workers=1, backend="cuda")


# --------------------------------------------------------------------------- #
# multi-pattern (P-loop) code generation
# --------------------------------------------------------------------------- #


class TestMultiPatternCodegen:
    def test_patterns_baked_as_constant(self):
        spec = NativeSpec(
            k=6, m=1, num_classes=4, num_states=12,
            patterns=3, group_widths=(2, 2, 2),
        )
        src = generate_source(spec)
        assert "#define NK_P 3" in src

    def test_group_collapse_helpers_emitted(self):
        spec = NativeSpec(
            k=6, m=1, num_classes=4, num_states=12, cadence=8,
            patterns=3, group_widths=(1, 2, 3),
        )
        src = generate_source(spec)
        # Group-aware collapse: per-group seeds and a P-lane continuation.
        assert "nk_advance_group" in src
        assert "gs[" in src

    def test_goff_table_only_for_array_lanes(self):
        big = NativeSpec(
            k=UNROLL_LIMIT + 4, m=1, num_classes=4, num_states=40,
            cadence=8, patterns=2,
            group_widths=(UNROLL_LIMIT, 4),
        )
        assert "GOFF" in generate_source(big)
        small = NativeSpec(
            k=4, m=1, num_classes=4, num_states=8, cadence=8,
            patterns=2, group_widths=(2, 2),
        )
        assert "GOFF" not in generate_source(small)

    def test_single_pattern_source_unchanged(self):
        base = NativeSpec(k=4, m=2, num_classes=5, num_states=9, cadence=8)
        explicit = NativeSpec(
            k=4, m=2, num_classes=5, num_states=9, cadence=8,
            patterns=1, group_widths=(4,),
        )
        assert generate_source(base) == generate_source(explicit)

    def test_spec_validation(self):
        # widths must cover k exactly, one width per pattern.
        with pytest.raises(ValueError):
            NativeSpec(
                k=6, m=1, num_classes=4, num_states=12,
                patterns=3, group_widths=(2, 2),
            )
        with pytest.raises(ValueError):
            NativeSpec(
                k=6, m=1, num_classes=4, num_states=12,
                patterns=3, group_widths=(2, 2, 3),
            )
        with pytest.raises(ValueError):
            NativeSpec(
                k=6, m=1, num_classes=4, num_states=12,
                patterns=3, group_widths=(2, 2, 0),
            )
        # k not divisible by patterns requires explicit widths.
        with pytest.raises(ValueError):
            NativeSpec(
                k=7, m=1, num_classes=4, num_states=12, patterns=3,
            )

    def test_collapse_requires_spare_lanes(self):
        # One lane per pattern leaves nothing to collapse.
        spec = NativeSpec(
            k=3, m=1, num_classes=4, num_states=6, cadence=8,
            patterns=3, group_widths=(1, 1, 1),
        )
        assert not spec.collapsing

    def test_pattern_tag_distinguishes_cache_entries(self):
        from repro.core.native.runtime import _pattern_tag

        single = NativeSpec(k=4, m=1, num_classes=4, num_states=8)
        multi = NativeSpec(
            k=4, m=1, num_classes=4, num_states=8,
            patterns=2, group_widths=(2, 2),
        )
        assert _pattern_tag(single) == ""
        tag = _pattern_tag(multi)
        assert "p2" in tag and tag != _pattern_tag(single)

    @needs_native
    def test_group_kernel_meta_roundtrip(self, tmp_path):
        from repro.core.multipattern import run_multipattern
        from repro.fsm.dfa import DFA

        machines = [
            DFA.random(3 + i, 5, rng=70 + i, name=f"n{i}") for i in range(3)
        ]
        rng = np.random.default_rng(70)
        inputs = rng.integers(0, 5, size=6000).astype(np.int32)
        res = run_multipattern(
            machines, inputs, k=3, num_chunks=8, kernel="lockstep",
            backend="native", route="batched",
        )
        for pr, m in zip(res.patterns, machines):
            tr_fin = run_reference(m, inputs)
            assert pr.final_state == tr_fin

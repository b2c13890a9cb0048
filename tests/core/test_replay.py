"""Replay equivalence: the replay hook changes who steps, nothing else.

Every merge takes one ``replay(chunk, state) -> state`` hook
(:mod:`repro.core.replay`). For random machines and the paper's apps,
``merge_parallel`` (eager and delayed), ``merge_sequential`` and
``true_boundary_walk`` must return the same final state, true starts,
re-executed chunk list and ``ExecStats`` counters with a compiled hook
as with the default ``run_segment`` walk — including forced misses
(k=1, and a corrupted speculation row that misses the true start).
"""

from __future__ import annotations

from dataclasses import asdict
from functools import partial

import numpy as np
import pytest

from repro.apps.registry import get_application
from repro.core.kernels import plan_kernel, run_segment_kernel
from repro.core.local import process_chunks
from repro.core.lookback import speculate
from repro.core.merge_par import merge_parallel
from repro.core.merge_seq import merge_sequential, true_boundary_walk
from repro.core.native import load_native_plan, native_available
from repro.core.replay import ChunkReplay, replay_path
from repro.core.types import ChunkResults, ExecStats
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference
from repro.obs.trace import RunTrace
from repro.workloads.chunking import plan_chunks
from tests.conftest import random_input


def _native_loads() -> bool:
    if not native_available():
        return False
    return load_native_plan(DFA.random(4, 3, rng=0), k=2) is not None


needs_native = pytest.mark.skipif(
    not _native_loads(), reason="no working C compiler"
)

# "native" is the compiled kernel; "stride" is the kernel layer's NumPy
# stride stepping, so the equivalence also runs without a compiler.
HOOKS = [pytest.param("native", marks=needs_native), "stride"]


def _machines():
    out = [
        (f"random{seed}", DFA.random(s, a, rng=seed), random_input(a, 6_000, seed + 100))
        for seed, (s, a) in enumerate([(5, 2), (9, 3), (14, 4), (30, 5)])
    ]
    for app in ("div7", "regex2", "huffman", "html"):
        dfa, inputs = get_application(app).build_instance(6_000, seed=3)
        out.append((app, dfa, np.asarray(inputs, dtype=np.int32)))
    return out


MACHINES = _machines()
IDS = [name for name, _, _ in MACHINES]


class _Counting:
    """A replay hook that counts its calls (so no case passes vacuously)."""

    def __init__(self, inner: ChunkReplay) -> None:
        self.inner = inner
        self.path = inner.path
        self.calls = 0

    def __call__(self, c: int, s: int) -> int:
        self.calls += 1
        return self.inner(c, s)


def _hook(kind: str, dfa: DFA, inputs: np.ndarray, plan) -> _Counting:
    if kind == "native":
        nk = load_native_plan(dfa, k=2, kernel="stride2")
        assert nk is not None
        return _Counting(ChunkReplay(nk.run_segment, inputs, plan, path="native"))
    kplan = plan_kernel(dfa, chunk_len=plan.max_len, num_chunks=plan.num_chunks,
                        k=1, kernel="stride2")
    return _Counting(
        ChunkReplay(partial(run_segment_kernel, kplan), inputs, plan)
    )


def _results(dfa, inputs, plan, k, *, corrupt: bool) -> ChunkResults:
    """Chunk maps for ``plan``; ``corrupt`` drops the true start from
    chunk 0's row and a wrong row into the middle (maps stay exact)."""
    spec = speculate(dfa, inputs, plan, k, lookback=4)
    if corrupt:
        spec[0] = (dfa.start + 1 + np.arange(k)) % dfa.num_states
        if dfa.start in spec[0]:
            pytest.skip("machine too small to miss its start")
        mid = plan.num_chunks // 2
        spec[mid] = (spec[mid] + 1) % dfa.num_states
        for row in spec:
            assert np.unique(row).size == row.size
    end, _ = process_chunks(dfa, inputs, plan, spec)
    return ChunkResults(spec=spec, end=end, valid=np.ones_like(spec, dtype=bool))


def _stats(dfa, inputs, k) -> ExecStats:
    return ExecStats(num_items=int(inputs.size), num_chunks=64, k=k,
                     num_states=dfa.num_states, num_inputs=dfa.num_inputs)


CASES = [(1, False), (2, False), (1, True), (3, True)]


@pytest.mark.parametrize("kind", HOOKS)
@pytest.mark.parametrize("k,corrupt", CASES)
@pytest.mark.parametrize("name,dfa,inputs", MACHINES, ids=IDS)
class TestReplayEquivalence:
    def _setup(self, kind, dfa, inputs, k, corrupt):
        k = min(k, dfa.num_states - 1) if corrupt else min(k, dfa.num_states)
        plan = plan_chunks(inputs.size, 64)
        return k, plan, _results(dfa, inputs, plan, k, corrupt=corrupt), _hook(
            kind, dfa, inputs, plan
        )

    @pytest.mark.parametrize("reexec", ["delayed", "eager"])
    def test_merge_parallel(self, kind, name, dfa, inputs, k, corrupt, reexec):
        k, plan, results, hook = self._setup(kind, dfa, inputs, k, corrupt)
        s0, s1 = _stats(dfa, inputs, k), _stats(dfa, inputs, k)
        f0, t0 = merge_parallel(dfa, inputs, plan, results, reexec=reexec, stats=s0)
        f1, t1 = merge_parallel(
            dfa, inputs, plan, results, reexec=reexec, stats=s1, replay=hook
        )
        assert f0 == f1 == run_reference(dfa, inputs)
        assert t0.reexecuted == t1.reexecuted
        assert asdict(s0) == asdict(s1)
        replays = s1.fixup_chunks + s1.reexec_chunks_eager
        assert hook.calls == replays
        if corrupt:
            assert replays > 0

    def test_merge_sequential(self, kind, name, dfa, inputs, k, corrupt):
        k, plan, results, hook = self._setup(kind, dfa, inputs, k, corrupt)
        s0, s1 = _stats(dfa, inputs, k), _stats(dfa, inputs, k)
        f0, ts0 = merge_sequential(dfa, inputs, plan, results, stats=s0)
        f1, ts1 = merge_sequential(dfa, inputs, plan, results, stats=s1, replay=hook)
        assert f0 == f1 == run_reference(dfa, inputs)
        np.testing.assert_array_equal(ts0, ts1)
        assert asdict(s0) == asdict(s1)
        assert hook.calls == s1.reexec_chunks_seq
        if corrupt:
            assert hook.calls > 0

    def test_true_boundary_walk(self, kind, name, dfa, inputs, k, corrupt):
        k, plan, results, hook = self._setup(kind, dfa, inputs, k, corrupt)
        f0, ts0 = true_boundary_walk(dfa, inputs, plan, results)
        f1, ts1 = true_boundary_walk(dfa, inputs, plan, results, replay=hook)
        assert f0 == f1 == run_reference(dfa, inputs)
        np.testing.assert_array_equal(ts0, ts1)
        if corrupt:
            assert hook.calls > 0


@needs_native
def test_fixup_span_names_the_replay_path():
    dfa, inputs = get_application("div7").build_instance(4_000, seed=1)
    inputs = np.asarray(inputs, dtype=np.int32)
    plan = plan_chunks(inputs.size, 32)
    results = _results(dfa, inputs, plan, 1, corrupt=True)
    for kind, path in (("native", "native"), ("stride", "vectorized")):
        hook = _hook(kind, dfa, inputs, plan)
        assert replay_path(hook) == path
        trace = RunTrace("fixup")
        with trace.activate():
            merge_parallel(dfa, inputs, plan, results, replay=hook)
        (span,) = trace.find("merge.fixup")
        assert span.attrs["replay"] == path
    trace = RunTrace("default")
    with trace.activate():
        merge_parallel(dfa, inputs, plan, results)
    (span,) = trace.find("merge.fixup")
    assert span.attrs["replay"] == "vectorized"

"""The native accept pass against the NumPy recovery oracles.

``NativeKernel.accept_positions`` steps ``W`` lanes per chunk from a
``(chunks, W)`` matrix of true entry states and records ``(position,
lane, state)`` at every accepting step. It must reproduce
:func:`repro.core.local.recover_accepts` (one lane) and
:func:`repro.core.multipattern._recover_group_matches` (one lane per
pattern, or one shared product lane) exactly: on stride kernels (the
pass steps per symbol), empty input, chunks shorter than the stride,
ragged tails, and through its buffer-overflow re-run. The public entry
points — ``run_multipattern``, ``run_speculative(collect=...)`` and
``StreamingExecutor(collect_matches=True)`` — must return
the same arrays natively and through the NumPy fallback (``CC=/bin/false``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import run_speculative
from repro.core.local import recover_accepts
from repro.core.streaming import StreamingExecutor
from repro.core.multipattern import (
    _batched_accept_matrix,
    _build_product,
    _group_matches,
    _recover_group_matches,
    run_multipattern,
    stack_machines,
)
from repro.core.native import load_native_plan, native_available
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference_trace
from repro.gpu import Grid
from repro.obs.trace import RunTrace
from repro.workloads.chunking import plan_chunks
from tests.conftest import random_input

ROOT = Path(__file__).resolve().parents[2]


def _native_loads() -> bool:
    if not native_available():
        return False
    return load_native_plan(DFA.random(4, 3, rng=0), k=2) is not None


HAVE_NATIVE = _native_loads()
needs_native = pytest.mark.skipif(not HAVE_NATIVE, reason="no working C compiler")


def _reference_matches(dfa: DFA, inputs: np.ndarray) -> np.ndarray:
    states = run_reference_trace(dfa, inputs)
    return np.flatnonzero(dfa.accepting[states]).astype(np.int64)


def _true_starts(dfa: DFA, inputs: np.ndarray, plan) -> np.ndarray:
    states = np.concatenate([[dfa.start], run_reference_trace(dfa, inputs)])
    return states[plan.starts].astype(np.int32)


def _group(sizes, num_inputs=6, seed=0):
    return [
        DFA.random(s, num_inputs, rng=seed + i, accepting_fraction=0.2, name=f"p{i}")
        for i, s in enumerate(sizes)
    ]


# ragged group widths: k=4 clamps to each pattern's state count
GROUPS = {
    1: (7,),
    3: (3, 9, 14),
    20: tuple(2 + (i * 5) % 17 for i in range(20)),
}


# --------------------------------------------------------------------------- #
# the pass itself
# --------------------------------------------------------------------------- #


@needs_native
class TestSingleLane:
    @pytest.mark.parametrize("kernel", ["lockstep", "stride2", "stride4"])
    @pytest.mark.parametrize(
        "n,chunks",
        [(0, 4), (3, 8), (10, 4), (5_003, 64), (20_000, 7)],
        ids=["empty", "L<m", "short", "ragged", "long"],
    )
    def test_matches_recover_accepts(self, kernel, n, chunks):
        dfa = DFA.random(11, 5, rng=n + chunks)
        inputs = random_input(5, n, seed=n)
        nk = load_native_plan(dfa, k=3, kernel=kernel)
        assert nk is not None and nk.kplan.kernel == kernel
        plan = plan_chunks(n, chunks)
        ts = _true_starts(dfa, inputs, plan)
        pos, lane, state = nk.accept_positions(
            inputs, plan.starts, plan.lengths, ts[:, None], dfa.accepting
        )
        ref = recover_accepts(dfa, inputs, plan, ts)
        np.testing.assert_array_equal(pos, ref)
        np.testing.assert_array_equal(pos, _reference_matches(dfa, inputs))
        assert pos.dtype == np.int64
        assert (lane == 0).all()
        assert dfa.accepting[state].all()

    def test_overflow_reruns_exactly(self):
        # Every state accepts: every step of every lane is a record, far
        # more than the first buffer holds.
        dfa = DFA.random(6, 3, rng=2, accepting_fraction=1.0)
        assert dfa.accepting.all()
        n, W = 10_007, 3
        inputs = random_input(3, n, seed=3)
        nk = load_native_plan(dfa, k=2, kernel="stride2")
        plan = plan_chunks(n, 16)
        states0 = np.random.default_rng(4).integers(0, 6, size=(16, W))
        pos, lane, state = nk.accept_positions(
            inputs, plan.starts, plan.lengths, states0, dfa.accepting
        )
        assert pos.size == lane.size == state.size == n * W
        for w in range(W):
            sel = pos[lane == w]
            np.testing.assert_array_equal(sel, np.arange(n))

    def test_bad_arguments_rejected(self):
        dfa = DFA.random(5, 3, rng=1)
        nk = load_native_plan(dfa, k=2)
        x = random_input(3, 100, seed=1)
        plan = plan_chunks(100, 4)
        with pytest.raises(ValueError):
            nk.accept_positions(x, plan.starts, plan.lengths, np.full((4, 1), 5), dfa.accepting)
        with pytest.raises(ValueError):
            nk.accept_positions(x, plan.starts, plan.lengths, np.zeros((3, 1)), dfa.accepting)
        with pytest.raises(ValueError):
            nk.accept_positions(x[:50], plan.starts, plan.lengths, np.zeros((4, 1)), dfa.accepting)
        with pytest.raises(ValueError):
            nk.accept_positions(x, plan.starts, plan.lengths, np.zeros((4, 1)), dfa.accepting[:3])


@needs_native
class TestGroupMatches:
    @pytest.mark.parametrize("P", sorted(GROUPS))
    @pytest.mark.parametrize("n,chunks", [(0, 4), (9_001, 32), (3, 8)])
    def test_batched_union(self, P, n, chunks):
        stack = stack_machines(_group(GROUPS[P], seed=P))
        union = stack.union_dfa
        raw = random_input(6, n, seed=P + n)
        cls = stack.joint.remap(raw).astype(np.int32)
        plan = plan_chunks(n, chunks)
        states0 = np.stack(
            [_true_starts(m, raw, plan) + int(stack.offsets[p])
             for p, m in enumerate(stack.machines)],
            axis=1,
        ).astype(np.int32)
        nk = load_native_plan(union, k=P, kernel="stride2")
        assert nk is not None
        acc = _batched_accept_matrix(stack)
        got = _group_matches(nk, union.table, acc, cls, plan, states0)
        ref = _recover_group_matches(union.table, acc, cls, plan, states0)
        assert len(got) == len(ref) == P
        for p, m in enumerate(stack.machines):
            np.testing.assert_array_equal(got[p], ref[p])
            np.testing.assert_array_equal(got[p], _reference_matches(m, raw))

    def test_product_route(self):
        stack = stack_machines(_group((3, 4, 5), seed=9))
        prod = _build_product(stack, budget=None)
        raw = random_input(6, 7_777, seed=10)
        cls = stack.joint.remap(raw).astype(np.int32)
        plan = plan_chunks(raw.size, 24)
        ts = _true_starts(prod.dfa, cls, plan)[:, None]
        acc = np.stack(prod.accept_masks, axis=1)
        nk = load_native_plan(prod.dfa, k=2, kernel="stride4")
        assert nk is not None
        got = _group_matches(nk, prod.dfa.table, acc, cls, plan, ts,
                             shared_trajectory=True)
        ref = _recover_group_matches(prod.dfa.table, acc, cls, plan, ts,
                                     shared_trajectory=True)
        for p, m in enumerate(stack.machines):
            np.testing.assert_array_equal(got[p], ref[p])
            np.testing.assert_array_equal(got[p], _reference_matches(m, raw))


# --------------------------------------------------------------------------- #
# public entry points (native when a compiler works, NumPy otherwise)
# --------------------------------------------------------------------------- #


def _entry_point_results(backend: str) -> dict:
    """Match arrays (as lists) from every public entry point."""
    out = {}
    group = _group(GROUPS[3], seed=30)
    raw = random_input(6, 30_011, seed=31)
    for route in ("batched", "product"):
        trace = RunTrace("mp")
        res = run_multipattern(group, raw, k=2, backend=backend, route=route,
                               kernel="stride2", trace=trace)
        assert res.route == route
        (span,) = trace.find("mp.recover")
        out[f"mp.{route}.replay"] = span.attrs["replay"]
        out[f"mp.{route}"] = [p.match_positions.tolist() for p in res.patterns]
    dfa = DFA.random(12, 4, rng=32, accepting_fraction=0.2)
    x = random_input(4, 20_003, seed=33)
    for merge in ("parallel", "sequential"):
        trace = RunTrace("engine")
        res = run_speculative(
            dfa, x, k=1, backend=backend, merge=merge, collect=("match_positions",),
            trace=trace, grid=Grid(num_blocks=1, threads_per_block=64),
        )
        (span,) = trace.find("engine.output_recovery")
        out[f"engine.{merge}.replay"] = span.attrs["replay"]
        out[f"engine.{merge}"] = res.match_positions.tolist()
    # The stream's accept pass runs from the carried state of each block.
    ex = StreamingExecutor(dfa, collect_matches=True)
    for block in np.array_split(x, 5):
        ex.feed(block)
    out["stream"] = ex.match_positions.tolist()
    out["expect.mp"] = [_reference_matches(m, raw).tolist() for m in group]
    out["expect.engine"] = _reference_matches(dfa, x).tolist()
    return out


def _check_entry_points(out: dict, path: str) -> None:
    for route in ("batched", "product"):
        assert out[f"mp.{route}"] == out["expect.mp"]
        assert out[f"mp.{route}.replay"] == path
    for merge in ("parallel", "sequential"):
        assert out[f"engine.{merge}"] == out["expect.engine"]
        assert out[f"engine.{merge}.replay"] == path
    assert out["stream"] == out["expect.engine"]


@needs_native
def test_entry_points_native():
    _check_entry_points(_entry_point_results("native"), "native")


def test_entry_points_vectorized():
    _check_entry_points(_entry_point_results("vectorized"), "vectorized")


def test_entry_points_native_fallback(tmp_path):
    # backend="native" with no usable compiler: the same arrays come back
    # through the NumPy fallback, and every span says so.
    env = dict(os.environ, CC="/bin/false", REPRO_NATIVE_CACHE=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    code = (
        "import json\n"
        "from tests.core.test_accept_pass import _entry_point_results\n"
        "print(json.dumps(_entry_point_results('native')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    _check_entry_points(json.loads(proc.stdout.strip().splitlines()[-1]), "vectorized")

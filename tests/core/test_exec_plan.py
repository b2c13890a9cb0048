"""The execution-plan resolver (``core/plan.py``) and the CPU plan end to end.

Resolver rules: ``grid=`` selects the modeled-GPU plan, the CPU plan's serial
rung at defaults and its chunked path under an explicit ``plan=`` (with the
CPU chunk rule at its breakpoints), the per-symbol and no-compiler
fallbacks. Then one Hypothesis differential: every CPU-plan configuration
returns exactly what the sequential reference and the NumPy oracles
return.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.apps.registry import get_application
from repro.core.native import load_native_plan, native_available
from repro.core.plan import (
    CPU_CHUNK_ITEMS,
    CPU_MAX_CHUNKS,
    NATIVE_MIN_ITEMS,
    cpu_chunks,
    resolve_plan,
)
from repro.fsm.run import run_reference, run_reference_trace
from repro.gpu import Grid
from repro.gpu.device import TESLA_V100
from repro.obs import RunTrace
from repro.workloads.chunking import plan_chunks, plan_from_lengths
from tests.conftest import make_random_dfa, random_input

HAVE_NATIVE = (
    native_available()
    and load_native_plan(make_random_dfa(4, 3, seed=0), k=2) is not None
)

# Every Grid field, with a value that keeps the defaults' launch; "price"
# is Grid() itself, which the modeled plan always prices.
GPU_ARGS = [
    {"num_blocks": 80},
    {"threads_per_block": 256},
    {"device": TESLA_V100},
    {"layout": "transformed"},
    {"cache_table": False},
    {"cache_budget_bytes": 1 << 14},
    {"cpu_transition_ns": 2.5},
    {},
]
GPU_ARG_IDS = [next(iter(a), "price") for a in GPU_ARGS]

# The GPU plan's defaults spelled out: what a GPU-plan call must equal.
OLD_DEFAULTS = dict(
    num_blocks=80, threads_per_block=256, layout="transformed",
    cache_table=False, device=TESLA_V100,
)


@pytest.fixture(scope="module")
def case():
    dfa = make_random_dfa(7, 3, seed=31)
    return dfa, random_input(3, 3000, seed=32)


class TestGpuPlan:
    @pytest.mark.parametrize("arg", GPU_ARGS, ids=GPU_ARG_IDS)
    def test_each_gpu_argument_selects_todays_config(self, case, arg):
        dfa, x = case
        got = repro.run_speculative(dfa, x, k=2, grid=Grid(**arg))
        want = repro.run_speculative(
            dfa, x, k=2, backend="vectorized", kernel="lockstep",
            grid=Grid(**{**OLD_DEFAULTS, **arg}),
        )
        assert got.config.plan == "gpu"
        assert got.config == want.config
        assert (got.config.num_blocks, got.config.threads_per_block) == (80, 256)
        assert got.config.num_chunks == 80 * 256
        assert (got.config.backend, got.config.kernel) == ("vectorized", "lockstep")
        assert got.stats == want.stats
        assert got.timing is not None and got.timing == want.timing
        assert got.final_state == run_reference(dfa, x)

    def test_a_grid_that_is_not_a_grid_is_refused(self, case):
        dfa, x = case
        with pytest.raises(TypeError, match="grid"):
            repro.run_speculative(dfa, x, grid=80)

    def test_warp_validation_stays_on_the_gpu_plan(self, case):
        dfa, x = case
        with pytest.raises(ValueError, match="warp"):
            repro.run_speculative(dfa, x, grid=Grid(threads_per_block=50))


def _chunked(size: int, backend: str = "vectorized"):
    """The CPU chunk rule's partition, passed as ``plan=`` to force the
    chunked speculative path."""
    return plan_chunks(size, cpu_chunks(size, backend))


class TestCpuPlan:
    def test_defaults_select_the_cpu_plan(self, case):
        dfa, x = case
        r = repro.run_speculative(dfa, x)
        assert r.config.plan == "cpu"
        assert r.timing is None
        assert r.config.rung == "serial"
        assert (r.config.num_chunks, r.config.k) == (1, 1)
        assert (r.config.backend, r.config.kernel) == ("reference", "lockstep")
        np.testing.assert_array_equal(r.true_starts, [dfa.start])
        assert r.final_state == run_reference(dfa, x)
        # An explicit plan= forces the chunked speculative path.
        r = repro.run_speculative(dfa, x, plan=_chunked(x.size))
        assert (r.config.plan, r.config.rung) == ("cpu", "chunked")
        assert r.timing is None
        assert r.true_starts is not None  # truth recovery stays on
        assert r.config.num_chunks == cpu_chunks(x.size, "vectorized")
        assert (r.config.num_blocks, r.config.threads_per_block) == (
            1, r.config.num_chunks,
        )
        assert r.final_state == run_reference(dfa, x)

    @pytest.mark.parametrize("backend", ["vectorized", "native"])
    def test_chunk_rule_breakpoints(self, backend):
        per, cap = CPU_CHUNK_ITEMS[backend], CPU_MAX_CHUNKS
        assert cpu_chunks(0, backend) == 1
        assert cpu_chunks(1, backend) == 1
        assert cpu_chunks(per, backend) == 1
        assert cpu_chunks(per + 1, backend) == 2
        assert cpu_chunks(per * cap, backend) == cap
        assert cpu_chunks(per * cap + 1, backend) == cap
        assert cpu_chunks(1 << 20, backend) == cap

    @pytest.mark.parametrize(
        "size", [0, 1, NATIVE_MIN_ITEMS - 1, NATIVE_MIN_ITEMS, 1 << 20]
    )
    def test_resolver_at_the_size_breakpoints(self, size):
        dfa = make_random_dfa(9, 4, seed=33)
        x = random_input(4, size, seed=34)
        native = size >= NATIVE_MIN_ITEMS and HAVE_NATIVE
        xp = resolve_plan(dfa, x)
        assert (xp.kind, xp.rung, xp.chunks, xp.k) == ("cpu", "serial", 1, 1)
        assert xp.backend == ("native" if native else "reference")
        assert (xp.native is not None) == native
        assert xp.chunk_plan.num_items == size
        assert xp.collapse is None and not xp.collapse_requested
        assert xp.grid is None and xp.measure_success
        # The chunked path, forced by plan=, keeps the CPU chunk rule.
        xp = resolve_plan(dfa, x, plan=_chunked(size, "native" if native else "vectorized"))
        assert (xp.kind, xp.rung) == ("cpu", "chunked")
        assert xp.backend == ("native" if native else "vectorized")
        assert (xp.native is not None) == native
        assert xp.chunks == cpu_chunks(size, xp.backend)
        assert xp.chunk_plan.num_items == size
        assert xp.grid is None and xp.measure_success
        # 1-31 chunks are legal: nothing validates against a warp size.
        if size <= 1:
            assert xp.chunks == 1

    def test_accept_count_resolves_to_vectorized_lockstep(self):
        dfa = make_random_dfa(9, 4, seed=35)
        x = random_input(4, NATIVE_MIN_ITEMS, seed=36)
        trace = run_reference_trace(dfa, x)
        visits = int(dfa.accepting[trace].sum())
        plan = _chunked(x.size)
        xp = resolve_plan(dfa, x, collect=("accept_count",), plan=plan)
        assert (xp.backend, xp.kernel) == ("vectorized", "lockstep")
        # spec-N: lane q of every chunk starts in state q.
        r = repro.run_speculative(
            dfa, x, k=None, collect=("accept_count",), plan=plan
        )
        assert r.config.backend == "vectorized"
        per_chunk = r.accept_counts[np.arange(r.config.num_chunks), r.true_starts]
        assert int(per_chunk.sum()) == visits
        # The serial rung counts on the reference loop's trajectory.
        r = repro.run_speculative(dfa, x, collect=("accept_count",))
        assert r.config.backend == "reference"
        assert r.accept_counts.tolist() == [[visits]]

    def test_explicit_native_with_accept_count_still_raises(self, case):
        dfa, x = case
        with pytest.raises(ValueError, match="accept_count"):
            repro.run_speculative(dfa, x, backend="native", collect=("accept_count",))
        with pytest.raises(ValueError, match="accept_count"):
            repro.run_speculative(
                dfa, x, backend="native", collect=("accept_count",),
                plan=_chunked(x.size),
            )

    def test_explicit_kernel_keeps_its_meaning(self, case):
        dfa, x = case
        r = repro.run_speculative(
            dfa, x, kernel="lockstep", backend="vectorized", plan=_chunked(x.size)
        )
        assert (r.config.plan, r.config.kernel) == ("cpu", "lockstep")

    def test_engine_plan_span_records_the_choice(self, case):
        dfa, x = case
        trace = RunTrace()
        repro.run_speculative(dfa, x, trace=trace)
        repro.run_speculative(dfa, x, plan=_chunked(x.size), trace=trace)
        serial, chunked = trace.find("engine.plan")
        assert (serial.attrs["plan"], serial.attrs["rung"]) == ("cpu", "serial")
        assert serial.attrs["chunks"] == 1
        assert serial.attrs["backend"] == "reference"
        assert "serial" in serial.attrs["reason"]
        assert (chunked.attrs["plan"], chunked.attrs["rung"]) == ("cpu", "chunked")
        assert chunked.attrs["chunks"] == cpu_chunks(x.size, "vectorized")
        assert chunked.attrs["backend"] == "vectorized"
        assert chunked.attrs["kernel"] in repro.core.kernels.KERNELS
        for span in (serial, chunked):
            assert span.attrs["reason"].startswith("cpu")

    def test_no_compiler_resolves_to_vectorized(self, tmp_path):
        code = """
import numpy as np, repro
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference
from repro.core.plan import NATIVE_MIN_ITEMS, cpu_chunks
from repro.workloads.chunking import plan_chunks
dfa = DFA.random(9, 4, rng=7)
x = np.random.default_rng(8).integers(0, 4, NATIVE_MIN_ITEMS * 2).astype(np.int32)
plan = plan_chunks(x.size, cpu_chunks(x.size, "native"))
r = repro.run_speculative(dfa, x, plan=plan)
assert r.final_state == run_reference(dfa, x)
assert r.config.backend == "vectorized", r.config
assert r.config.num_chunks == cpu_chunks(x.size, "native")
r = repro.run_speculative(dfa, x)
assert r.final_state == run_reference(dfa, x)
assert (r.config.rung, r.config.backend) == ("serial", "reference"), r.config
print("ok")
"""
        env = dict(
            os.environ, CC="/bin/false", REPRO_NATIVE_CACHE=str(tmp_path),
            PYTHONPATH=os.pathsep.join(sys.path),
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"


class TestGroupDispatch:
    def test_group_uses_the_cpu_chunk_rule(self):
        machines = [make_random_dfa(5, 3, seed=s) for s in (40, 41)]
        x = random_input(3, 5000, seed=42)
        res = repro.run_multipattern(machines, x, collect=("match_positions",))
        assert res.plan.num_chunks == cpu_chunks(x.size, "vectorized")
        for m, pr in zip(machines, res.patterns):
            want = np.flatnonzero(m.accepting[run_reference_trace(m, x)])
            np.testing.assert_array_equal(pr.match_positions, want)


# --------------------------------------------------------------------------- #
# differential: every CPU-plan configuration equals the references
# --------------------------------------------------------------------------- #

SIZES = [
    0, 1, 2, 255, 256, 257, 4095, 4097,
    NATIVE_MIN_ITEMS - 1, NATIVE_MIN_ITEMS, NATIVE_MIN_ITEMS + 1,
]
APPS = ("huffman", "regex1", "regex2", "html", "div7")


@functools.lru_cache(maxsize=None)
def _app_instance(name: str):
    return get_application(name).build_instance(max(SIZES), seed=3)


@st.composite
def machines_and_inputs(draw):
    size = draw(st.sampled_from(SIZES))
    if draw(st.booleans()):
        dfa, x = _app_instance(draw(st.sampled_from(APPS)))
        return dfa, np.ascontiguousarray(x[:size])
    dfa = make_random_dfa(
        draw(st.integers(2, 12)), draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 10_000)),
    )
    return dfa, random_input(dfa.num_inputs, size, seed=draw(st.integers(0, 99)))


def _skewed_plan(size: int, seed: int):
    """A plan whose chunk lengths differ by more than one (stragglers)."""
    if size < 8:
        return None
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, size), size=min(6, size - 1), replace=False))
    lengths = np.diff(np.concatenate([[0], cuts, [size]])).astype(np.int64)
    plan = plan_from_lengths(lengths)
    return plan if plan.max_len - plan.min_len > 1 else None


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    mi=machines_and_inputs(),
    k=st.sampled_from([1, 2, None]),
    merge=st.sampled_from(["parallel", "sequential"]),
    matches=st.booleans(),
    partition=st.sampled_from(["serial", "chunked", "skewed"]),
    seed=st.integers(0, 99),
)
def test_cpu_plan_is_bit_exact(mi, k, merge, matches, partition, seed):
    dfa, x = mi
    plan = {
        "serial": None,
        "chunked": _chunked(x.size, "native" if x.size >= NATIVE_MIN_ITEMS else "vectorized"),
        "skewed": _skewed_plan(x.size, seed),
    }[partition]
    skewed = plan is not None and plan.max_len - plan.min_len > 1
    collect = ("match_positions",) if matches and not skewed else ()
    r = repro.run_speculative(
        dfa, x, k=k, merge=merge, collect=collect, plan=plan,
    )
    assert r.config.plan == "cpu"
    assert r.config.rung == ("serial" if plan is None else "chunked")
    assert r.final_state == run_reference(dfa, x)
    trace = run_reference_trace(dfa, x)
    used = plan if plan is not None else plan_chunks(x.size, r.config.num_chunks)
    starts = used.starts
    want_starts = np.where(
        starts == 0, dfa.start, trace[np.maximum(starts - 1, 0)] if x.size else dfa.start
    )
    np.testing.assert_array_equal(r.true_starts, want_starts)
    if collect:
        np.testing.assert_array_equal(
            r.match_positions, np.flatnonzero(dfa.accepting[trace])
        )

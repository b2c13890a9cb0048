"""The CPU plan's serial rung: one pass from the start state.

At defaults a single-DFA ``run_speculative`` call has one stepping thread,
so it runs one chunk and one lane from the start state: the one-lane
native kernel from ``NATIVE_MIN_ITEMS`` items on (when one loads), the
``run_reference`` loop otherwise. These tests check

* a Hypothesis differential against ``run_reference`` and
  ``run_reference_trace`` — random machines (some with emission tables),
  empty, one-symbol and shorter-than-stride inputs, sizes on both sides of
  the native floor, carried start states, every ``collect`` item, and the
  native loader forced to return None;
* a guard that defaults never reach the speculative stages, while an
  explicit ``plan=`` still speculates;
* the loader's request memo: a new input length does not re-plan, and a
  failed load (a failed plan, or a failed build with no usable compiler)
  is not retried on every call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
import repro.core.engine as engine
import repro.core.lookback as lookback
import repro.core.merge_seq as merge_seq
import repro.core.native as native_pkg
import repro.core.plan as plan_mod
from repro.core.native import clear_memory_cache
from repro.core.native import runtime as native_runtime
from repro.core.plan import NATIVE_MIN_ITEMS
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference, run_reference_trace
from repro.obs import RunTrace
from repro.workloads.chunking import plan_chunks
from tests.conftest import make_random_dfa, native_builds, random_input

HAVE_NATIVE = native_builds()
needs_native = pytest.mark.skipif(not HAVE_NATIVE, reason="no working C compiler")

# Empty, one symbol, shorter than every stride, short, and both sides of
# the native floor.
SIZES = [0, 1, 2, 3, 255, NATIVE_MIN_ITEMS - 1, NATIVE_MIN_ITEMS, NATIVE_MIN_ITEMS + 3]
COLLECTS = [
    (),
    ("match_positions",),
    ("accept_count",),
    ("emissions",),
    ("match_positions", "accept_count", "emissions"),
]


def _with_emissions(dfa: DFA, seed: int) -> DFA:
    """``dfa`` as a Mealy transducer: random outputs, -1 on about half."""
    rng = np.random.default_rng(seed)
    emit = rng.integers(-1, 4, size=dfa.table.shape).astype(np.int32)
    emit[rng.random(dfa.table.shape) < 0.5] = -1
    return DFA(dfa.table, dfa.start, dfa.accepting, emit=emit)


def _emissions_oracle(dfa: DFA, x: np.ndarray) -> tuple[list, list]:
    """Transducer outputs of the plain serial walk, as Python lists."""
    positions, values = [], []
    state = dfa.start
    for i, a in enumerate(x.tolist()):
        e = int(dfa.emit[a, state])
        if e >= 0:
            positions.append(i)
            values.append(e)
        state = int(dfa.table[a, state])
    return positions, values


@pytest.fixture(scope="module")
def cold_cache(tmp_path_factory) -> str:
    """An artifact cache nothing was compiled into."""
    return str(tmp_path_factory.mktemp("cold-native-cache"))


def _expected_backend(size: int, backend: str | None, collect, loader_ok: bool) -> str:
    wants_native = backend == "native" or (backend is None and size >= NATIVE_MIN_ITEMS)
    if wants_native and "accept_count" not in collect and loader_ok and HAVE_NATIVE:
        return "native"
    return "reference"


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    num_states=st.integers(1, 12),
    num_inputs=st.integers(1, 6),
    seed=st.integers(0, 10_000),
    size=st.sampled_from(SIZES),
    start=st.integers(0, 11),
    emits=st.booleans(),
    collect=st.sampled_from(COLLECTS),
    backend=st.sampled_from([None, "native", "vectorized"]),
    k=st.sampled_from([1, 4, None]),
    loader_ok=st.booleans(),
)
def test_serial_rung_is_bit_exact(
    cold_cache, num_states, num_inputs, seed, size, start, emits, collect,
    backend, k, loader_ok,
):
    dfa = make_random_dfa(num_states, num_inputs, seed=seed)
    if emits:
        dfa = _with_emissions(dfa, seed)
    dfa = dfa.with_start(start % num_states)
    if "emissions" in collect and not emits:
        collect = tuple(c for c in collect if c != "emissions")
    if backend == "native" and "accept_count" in collect:
        collect = tuple(c for c in collect if c != "accept_count")
    x = random_input(num_inputs, size, seed=seed + 1)

    with pytest.MonkeyPatch.context() as mp:
        if not loader_ok:
            mp.setattr(native_pkg, "load_serial_kernel", lambda *a, **kw: None)
        if not HAVE_NATIVE:
            # Without a compiler, kernels cached by an earlier run must not
            # load either.
            mp.setenv("REPRO_NATIVE_CACHE", cold_cache)
        r = repro.run_speculative(dfa, x, k=k, backend=backend, collect=collect)

    c = r.config
    assert (c.plan, c.rung, c.num_chunks, c.k) == ("cpu", "serial", 1, 1)
    assert c.backend == _expected_backend(size, backend, collect, loader_ok)
    assert (r.native is not None) == (c.backend == "native")
    assert r.timing is None
    assert r.final_state == run_reference(dfa, x)
    assert r.accepted == bool(dfa.accepting[r.final_state])
    np.testing.assert_array_equal(r.true_starts, [dfa.start])
    assert r.stats.num_items == size and r.stats.success_total == 0

    trace = run_reference_trace(dfa, x)
    if "match_positions" in collect:
        np.testing.assert_array_equal(
            r.match_positions, np.flatnonzero(dfa.accepting[trace])
        )
    else:
        assert r.match_positions is None
    if "accept_count" in collect:
        assert r.accept_counts.tolist() == [[int(dfa.accepting[trace].sum())]]
    else:
        assert r.accept_counts is None
    if "emissions" in collect:
        positions, values = r.emissions
        assert (positions.tolist(), values.tolist()) == _emissions_oracle(dfa, x)
    else:
        assert r.emissions is None


def test_emissions_need_an_emission_table():
    dfa = make_random_dfa(5, 3, seed=3)
    with pytest.raises(ValueError, match="emission"):
        repro.run_speculative(dfa, random_input(3, 50, seed=4), collect=("emissions",))


# --------------------------------------------------------------------------- #
# guard: defaults never reach the speculative stages
# --------------------------------------------------------------------------- #


class Speculated(AssertionError):
    pass


SPECULATIVE_STAGES = [
    (engine, "speculate"),
    (engine, "enumerative_spec"),
    (engine, "state_prior"),
    (engine, "merge_parallel"),
    (engine, "merge_sequential"),
    (lookback, "state_prior"),
    (plan_mod, "resolve_collapse"),
    (merge_seq, "true_boundary_walk"),
]


@pytest.fixture
def forbid_speculation(monkeypatch):
    for module, name in SPECULATIVE_STAGES:
        def refuse(*args, _name=name, **kwargs):
            raise Speculated(f"{_name} ran")

        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("size", [0, 1, 1000, NATIVE_MIN_ITEMS + 5])
@pytest.mark.parametrize("k", [1, 4, None])
def test_defaults_do_not_speculate(forbid_speculation, size, k):
    dfa = make_random_dfa(9, 4, seed=50)
    x = random_input(4, size, seed=51)
    trace = run_reference_trace(dfa, x)
    for merge in ("parallel", "sequential"):
        r = repro.run_speculative(
            dfa, x, k=k, merge=merge, collect=("match_positions",),
        )
        assert r.final_state == run_reference(dfa, x)
        np.testing.assert_array_equal(
            r.match_positions, np.flatnonzero(dfa.accepting[trace])
        )
    if size >= 64:
        with pytest.raises(Speculated):
            repro.run_speculative(dfa, x, k=k, plan=plan_chunks(size, 64))


@pytest.mark.parametrize("size", [1000, NATIVE_MIN_ITEMS + 5])
def test_an_explicit_plan_speculates(size):
    dfa = make_random_dfa(9, 4, seed=50)
    x = random_input(4, size, seed=51)
    r = repro.run_speculative(dfa, x, plan=plan_chunks(size, 64))
    assert r.config.rung == "chunked" and r.config.num_chunks == 64
    assert r.stats.success_total > 0
    assert r.final_state == run_reference(dfa, x)


def test_engine_plan_span_records_the_rung():
    dfa = make_random_dfa(9, 4, seed=52)
    x = random_input(4, 500, seed=53)
    trace = RunTrace()
    repro.run_speculative(dfa, x, trace=trace)
    (span,) = trace.find("engine.plan")
    assert span.attrs["rung"] == "serial"
    assert span.attrs["reason"] == (
        "cpu: L=500, serial: one stepping thread, below the native floor"
    )
    assert not trace.find("engine.speculate") and not trace.find("engine.merge")
    assert not trace.find("engine.collapse_resolve")


# --------------------------------------------------------------------------- #
# the one-lane kernel memo
# --------------------------------------------------------------------------- #


@needs_native
def test_a_new_input_length_does_not_replan():
    dfa = make_random_dfa(11, 5, seed=54)
    x = random_input(5, 3 * NATIVE_MIN_ITEMS, seed=55)
    first = repro.run_speculative(dfa, x[:NATIVE_MIN_ITEMS])
    assert first.config.backend == "native"
    trace = RunTrace()
    second = repro.run_speculative(dfa, x, trace=trace)
    assert second.native is first.native
    assert not trace.find("kernel.plan") and not trace.find("native.load")
    assert second.final_state == run_reference(dfa, x)
    third = repro.run_speculative(dfa.with_start(3), x[:-7])
    assert third.native is first.native
    assert third.final_state == run_reference(dfa, x[:-7], start=3)


def test_a_failed_load_is_remembered(monkeypatch):
    calls = []

    def refuse(*args, **kwargs):
        calls.append(1)
        raise ValueError("no plan")

    monkeypatch.setattr(native_runtime, "plan_kernel", refuse)
    dfa = make_random_dfa(13, 3, seed=56)
    x = random_input(3, NATIVE_MIN_ITEMS, seed=57)
    clear_memory_cache()
    try:
        for _ in range(3):
            trace = RunTrace()
            r = repro.run_speculative(dfa, x, trace=trace)
            assert r.config.backend == "reference"
            (span,) = trace.find("engine.plan")
            assert span.attrs["reason"].endswith("no native kernel")
            assert r.final_state == run_reference(dfa, x)
        assert len(calls) == 1
    finally:
        clear_memory_cache()


def test_a_failed_build_is_not_retried(tmp_path, monkeypatch):
    # No usable compiler and a cold artifact cache: the first chunked call
    # plans the kernel and attempts one build; the second call finds the
    # remembered failure and neither re-plans nor rebuilds.
    from repro.core.native import build as native_build

    planned, builds = [], []
    real_plan, real_compile = native_runtime.plan_kernel, native_build._compile
    monkeypatch.setattr(
        native_runtime, "plan_kernel",
        lambda *a, **kw: planned.append(1) or real_plan(*a, **kw),
    )
    monkeypatch.setattr(
        native_build, "_compile",
        lambda *a, **kw: builds.append(1) or real_compile(*a, **kw),
    )
    monkeypatch.setenv("CC", "/bin/false")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    native_build.reset_build_state()
    clear_memory_cache()
    dfa = make_random_dfa(11, 4, seed=58)
    x = random_input(4, NATIVE_MIN_ITEMS, seed=59)
    try:
        for _ in range(2):
            r = repro.run_speculative(dfa, x, plan=plan_chunks(x.size, 16))
            assert r.config.rung == "chunked" and r.config.backend == "vectorized"
            assert r.final_state == run_reference(dfa, x)
        assert (len(planned), len(builds)) == (1, 1)
    finally:
        native_build.reset_build_state()
        clear_memory_cache()

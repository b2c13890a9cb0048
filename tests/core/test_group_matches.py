"""Matches recorded by the multi-pattern stepping pass against the oracle.

On the batched route with a native kernel and lane collapse on, the
collapsed one-lane-per-pattern continuation records every accepting step
(``NativeKernel.process_chunks_recording``). The truth pass then replays
only the prefix before each *clean* chunk's collapse — a chunk that
collapsed and whose true entry states were all speculated — and every
other chunk in full. Final states, true chunk-entry states and match
positions must equal :func:`repro.core.multipattern._recover_group_matches`
and the sequential reference on every kernel, under forced misses (k=1),
at the collapse position and chunk edges, when ``"auto"`` resolves
collapse off (a group with Div7), and through a record-buffer overflow.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.div import div7_dfa
from repro.core.convergence import CollapseConfig, resolve_group_collapse
from repro.core.multipattern import (
    _batched_accept_matrix,
    _recover_group_matches,
    run_multipattern,
    stack_machines,
)
from repro.core.native import load_native_plan, native_available
from repro.core.native import runtime
from repro.fsm.alphabet import Alphabet
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference, run_reference_trace
from repro.obs.trace import RunTrace
from repro.regex import compile_search


def _native_loads() -> bool:
    if not native_available():
        return False
    return load_native_plan(DFA.random(4, 3, rng=0), k=2) is not None


needs_native = pytest.mark.skipif(not _native_loads(), reason="no working C compiler")

ABC = Alphabet.from_symbols("abc")
GROUPS = {
    "literal": [compile_search(lit, ABC, name=lit) for lit in ("ab", "ba", "aab", "bcb")],
    "random": [
        DFA.random(5 + i, 3, rng=40 + i, accepting_fraction=0.25, name=f"r{i}")
        for i in range(3)
    ],
}
STACKS = {kind: stack_machines(group) for kind, group in GROUPS.items()}


def _run(kind, x, trace=None, **kw):
    return run_multipattern(
        GROUPS[kind], x, stack=STACKS[kind], route="batched", trace=trace, **kw
    )


def _assert_exact(kind, x, res):
    """Finals, entry states and matches equal the oracle and the reference."""
    group, stack = GROUPS[kind], STACKS[kind]
    plan = res.plan
    boundary = np.stack([p.true_starts for p in res.patterns], axis=1)
    oracle = _recover_group_matches(
        stack.union_dfa.table, _batched_accept_matrix(stack),
        stack.joint.remap(x), plan, boundary + stack.offsets[:-1],
    )
    for p, (m, pr) in enumerate(zip(group, res.patterns)):
        trace = run_reference_trace(m, x)
        assert pr.final_state == run_reference(m, x)
        entry = np.concatenate([[m.start], trace])[plan.starts]
        np.testing.assert_array_equal(pr.true_starts, entry)
        np.testing.assert_array_equal(pr.match_positions, oracle[p])
        np.testing.assert_array_equal(
            pr.match_positions, np.flatnonzero(m.accepting[trace])
        )


def _recorded_pass(trace: RunTrace) -> bool:
    """Whether the stepping pass itself recorded (not a load's smoke check)."""
    (local,) = trace.find("mp.local_exec")
    return any(
        s.name == "native.process_chunks" and s.attrs.get("record")
        for s in trace.children(local)
    )


@needs_native
@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(GROUPS)),
    k=st.sampled_from([1, 2, 3]),
    kernel=st.sampled_from(["lockstep", "stride2", "stride4"]),
    n=st.integers(0, 3_000),
    chunks=st.integers(1, 24),
    seed=st.integers(0, 2**16),
)
def test_recording_matches_oracle(kind, k, kernel, n, chunks, seed):
    x = np.random.default_rng(seed).integers(0, 3, size=n).astype(np.int32)
    trace = RunTrace("group")
    res = _run(
        kind, x, trace, k=k, num_chunks=chunks, kernel=kernel,
        collapse=CollapseConfig(cadence=8), backend="native",
    )
    _assert_exact(kind, x, res)
    # k=1 has one lane per pattern: nothing to collapse, nothing recorded.
    assert _recorded_pass(trace) == (k > 1)
    (recover,) = trace.find("mp.recover")
    assert 0 <= recover.attrs["replayed_chunks"] <= res.plan.num_chunks


@needs_native
@pytest.mark.parametrize("kernel", ["lockstep", "stride2", "stride4"])
def test_match_at_collapse_position_and_chunk_edges(kernel):
    # 'c' resets every literal, so each chunk's lanes agree at the first
    # scan (offset 8) and the chunk collapses there. Matches end at offset
    # 7 (prefix replay), 8 and 9 (recorded), 0 (first symbol of a chunk,
    # entered mid-match) and 63 (last symbol of a chunk).
    L, n = 64, 8
    x = np.full(L * n, 2, dtype=np.int32)
    for chunk, end in ((1, 8), (2, 7), (3, 9), (4, 0), (5, L - 1)):
        x[chunk * L + end - 1] = 0  # 'a'
        x[chunk * L + end] = 1  # 'b': "ab" ends here
    trace = RunTrace("edges")
    res = _run(
        "literal", x, trace, k=2, num_chunks=n, kernel=kernel,
        collapse=CollapseConfig(cadence=8), backend="native",
    )
    _assert_exact("literal", x, res)
    assert res.patterns[0].match_positions.tolist() == [
        L + 8, 2 * L + 7, 3 * L + 9, 4 * L, 5 * L + L - 1,
    ]
    (recover,) = trace.find("mp.recover")
    assert recover.attrs["replayed_chunks"] == 0
    assert recover.attrs["prefix_items"] == 8 * n


def _two_component_group() -> list:
    """A machine whose sampled prior misses its second component.

    States 0-2 cycle under 'a'/'b' and reset to 0 on 'c' (lanes collapse
    there); 'x' leaves for states 3-4, which never come back. The prior,
    sampled from a prefix without 'x', ranks 0-2 first, so after the 'x'
    every chunk speculates two lanes of the first component, collapses
    them, and misses the true entry state. The second machine converges
    on every symbol.
    """
    table = np.array([
        [1, 2, 0, 4, 3],  # a
        [2, 0, 1, 3, 4],  # b
        [0, 0, 0, 3, 3],  # c
        [3, 3, 3, 3, 4],  # x
    ], dtype=np.int32)
    first = DFA(table=table, start=0, accepting=np.array([0, 0, 1, 0, 1], bool))
    second = DFA(
        table=np.array([[1, 1], [0, 0], [0, 0], [0, 0]], dtype=np.int32),
        start=0, accepting=np.array([0, 1], bool),
    )
    return [first, second]


@needs_native
def test_miss_after_collapse_replays_the_chunk():
    group = _two_component_group()
    rng = np.random.default_rng(8)
    x = rng.integers(0, 2, size=40_000).astype(np.int32)
    x[rng.integers(0, x.size, size=800)] = 2
    x[20_000] = 3
    trace = RunTrace("miss")
    res = run_multipattern(
        group, x, k=2, num_chunks=8, kernel="lockstep", backend="native",
        route="batched", collapse=CollapseConfig(cadence=8), trace=trace,
    )
    (recover,) = trace.find("mp.recover")
    assert recover.attrs["replayed_chunks"] >= 3  # the chunks after the 'x'
    for m, pr in zip(group, res.patterns):
        trace_m = run_reference_trace(m, x)
        assert pr.final_state == int(trace_m[-1])
        np.testing.assert_array_equal(
            pr.match_positions, np.flatnonzero(m.accepting[trace_m])
        )


@needs_native
def test_auto_resolves_off_with_div7_and_replays_everything():
    group = [div7_dfa(), DFA.random(6, 2, rng=5, name="r")]
    x = np.random.default_rng(6).integers(0, 2, size=40_000).astype(np.int32)
    trace = RunTrace("div7")
    res = run_multipattern(
        group, x, k=3, num_chunks=16, backend="native", route="batched",
        trace=trace,
    )
    (resolve,) = trace.find("mp.collapse_resolve")
    assert resolve.attrs["resolved"] == "off"
    assert resolve.attrs["cadences"][0] is None
    (recover,) = trace.find("mp.recover")
    assert recover.attrs["replayed_chunks"] == 16
    assert recover.attrs["prefix_items"] == 0
    assert not _recorded_pass(trace)
    for m, pr in zip(group, res.patterns):
        trace_m = run_reference_trace(m, x)
        assert pr.final_state == int(trace_m[-1])
        np.testing.assert_array_equal(
            pr.match_positions, np.flatnonzero(m.accepting[trace_m])
        )


@needs_native
def test_record_overflow_reruns_exactly(monkeypatch):
    # Half of every machine's states accept: thousands of records against
    # a one-record first buffer.
    group = [
        DFA.random(4 + i, 3, rng=60 + i, accepting_fraction=0.5) for i in range(3)
    ]
    x = np.random.default_rng(7).integers(0, 3, size=20_000).astype(np.int32)
    kw = dict(k=2, num_chunks=8, kernel="stride2", route="batched",
              collapse=CollapseConfig(cadence=8))
    expect = run_multipattern(group, x, backend="vectorized", **kw)
    monkeypatch.setattr(runtime, "_ACCEPT_CAP", 1)
    trace = RunTrace("overflow")
    res = run_multipattern(group, x, backend="native", trace=trace, **kw)
    assert _recorded_pass(trace)
    for got, want in zip(res.patterns, expect.patterns):
        assert got.final_state == want.final_state
        assert got.match_count > 100
        np.testing.assert_array_equal(got.match_positions, want.match_positions)


def _nids_rules() -> list:
    """Twenty literal signatures of 4-8 symbols over a 16-symbol alphabet."""
    alphabet = Alphabet.from_symbols(tuple("abcdefghijklmnop"))
    rng = np.random.default_rng(20)
    out, seen = [], set()
    while len(out) < 20:
        lit = "".join(
            "abcdefghijklmnop"[c] for c in rng.integers(0, 16, size=int(rng.integers(4, 9)))
        )
        if lit not in seen:
            seen.add(lit)
            out.append(compile_search(lit, alphabet, name=lit))
    return out


def test_auto_resolves_on_for_literal_rule_set():
    rules = _nids_rules()
    stack = stack_machines(rules)
    x = np.random.default_rng(1).integers(0, 16, size=1 << 15).astype(np.int32)
    cls = stack.joint.remap(x)
    widths = tuple(min(4, d.num_states) for d in stack.class_dfas)
    cfg, cadences = resolve_group_collapse("auto", stack.class_dfas, cls, widths=widths)
    assert cadences == (8,) * 20
    assert cfg == CollapseConfig(cadence=8)
    trace = RunTrace("nids")
    run_multipattern(rules, x, k=4, stack=stack, route="batched", collect=(),
                     trace=trace)
    (resolve,) = trace.find("mp.collapse_resolve")
    assert resolve.attrs["resolved"] == "on(W=8)"

"""The serial rung for pattern groups and request batches.

At defaults (no ``num_chunks``, no ``plan=``, no GPU argument) a native
``run_multipattern`` call has one stepping thread, so it steps each
pattern from its start state in one lane: the batched route on the
group's one-lane-per-pattern kernel over the raw symbols, which records
the matches in the same pass; the product route on ``run_speculative``'s
serial rung. Request batches take the same rung: every request is one
chunk from its known (carried) starts, on such a kernel (a single
machine's batch runs the reference loop without one). These tests
check

* a Hypothesis differential against ``run_reference`` over random DFAs,
  ``repro.regex`` literals and perfbench-style literal rule sets, in
  groups of 1 to 8 patterns on both routes, with empty and one-symbol
  inputs, carried starts and both ``collect`` settings. Without a
  compiler the same tests check the chunked NumPy fallback;
* a guard that the defaults never reach speculation, resolution, the
  merges, the collapse probe or the joint remap, while an explicit
  ``num_chunks`` still does;
* the chunked NumPy group batch path, which runs when no kernel loads;
* that ``k``, ``lookback`` and a kernel's width are checked before the
  rung is chosen, and that a failed group build is not retried;
* the server: a group tenant and single tenants answer exactly as
  ``run_reference`` across requests carved into several rounds, and
  without a kernel a single machine's rounds neither sample a prior nor
  plan a kernel.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.engine as engine
import repro.core.multipattern as mp
from repro.apps.div import div7_dfa
from repro.core.engine import run_speculative_batch
from repro.core.multipattern import (
    run_multipattern,
    run_multipattern_batch,
    stack_machines,
)
from repro.core.native import load_serial_kernel, native_available
from repro.core.plan import NATIVE_MIN_ITEMS
from repro.fsm.alphabet import Alphabet, JointCompaction
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference, run_reference_trace
from repro.obs import RunTrace
from repro.regex import compile_search
from repro.serve import FSMServer, ServeConfig

ABCD = Alphabet.from_symbols("abcd")
PAYLOAD = Alphabet.from_symbols("abcdefghijklmnop")


def _rules(num: int, seed: int) -> list:
    """``num`` literal signatures of 4-8 payload symbols, as search DFAs
    (the way the multi-pattern benchmarks build their rule sets)."""
    rng = np.random.default_rng(seed)
    out, seen = [], set()
    while len(out) < num:
        lit = "".join(
            PAYLOAD.symbol_of(int(c))
            for c in rng.integers(0, PAYLOAD.size, size=int(rng.integers(4, 9)))
        )
        if lit not in seen:
            seen.add(lit)
            out.append(compile_search(lit, PAYLOAD, name=f"sig-{len(out)}"))
    return out


def _random(i: int, states: int) -> DFA:
    return DFA.random(
        states, ABCD.size, rng=70 + i, accepting_fraction=0.3, name=f"r{i}"
    )


def _literal(lit: str) -> DFA:
    return compile_search(lit, ABCD, name=lit)


# One group per size 1..8: random machines, regex literals and rule sets.
GROUPS = [
    [_random(0, 5)],
    [_literal("ab"), _random(1, 4)],
    [_literal("abc"), _literal("ca"), _literal("dd")],
    [_random(2, 3), _literal("bad"), _random(3, 6), _literal("cc")],
    _rules(5, 5),
    [_random(4 + i, 3 + i) for i in range(3)] + [_literal(s) for s in ("a", "db", "acd")],
    _rules(7, 7),
    _rules(8, 8),
]
STACKS = [stack_machines(g) for g in GROUPS]
# The product route only for groups whose product is small.
PRODUCT_OK = [
    mp._select_route(s, product_budget=mp.DEFAULT_PRODUCT_BUDGET,
                     product_max_patterns=mp.DEFAULT_PRODUCT_MAX_PATTERNS)
    == "product"
    for s in STACKS
]


def _native_loads() -> bool:
    return native_available() and STACKS[1].serial_kernel() is not None


HAVE_NATIVE = _native_loads()
needs_native = pytest.mark.skipif(not HAVE_NATIVE, reason="no working C compiler")


def _symbols(g: int, size: int, seed: int) -> np.ndarray:
    num = GROUPS[g][0].num_inputs
    return np.random.default_rng(seed).integers(0, num, size=size).astype(np.int32)


def _assert_exact(g: int, x: np.ndarray, res, collect) -> None:
    for m, pr in zip(GROUPS[g], res.patterns):
        trace = run_reference_trace(m, x)
        final = int(trace[-1]) if x.size else int(m.start)
        assert pr.accepted == bool(m.accepting[final])
        if res.route == "batched":
            assert pr.final_state == final
        if collect:
            np.testing.assert_array_equal(
                pr.match_positions, np.flatnonzero(m.accepting[trace])
            )
        else:
            assert pr.match_positions is None


SIZES = st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(4, 3_000))


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    g=st.integers(0, len(GROUPS) - 1),
    route=st.sampled_from(["batched", "product"]),
    size=SIZES,
    collect=st.sampled_from([(), ("match_positions",)]),
    seed=st.integers(0, 2**16),
)
def test_defaults_match_reference(g, route, size, collect, seed):
    if route == "product" and not PRODUCT_OK[g]:
        route = "batched"
    x = _symbols(g, size, seed)
    trace = RunTrace("mp")
    res = run_multipattern(
        GROUPS[g], x, backend="native", route=route, stack=STACKS[g],
        collect=collect, trace=trace,
    )
    assert res.route == route
    _assert_exact(g, x, res, collect)
    (span,) = trace.find("mp.run")
    assert span.attrs["rung"] == ("serial" if HAVE_NATIVE else "chunked")
    if HAVE_NATIVE:
        assert res.plan.num_chunks == 1
        assert span.attrs["reason"] == "serial: one stepping thread"
    else:
        assert span.attrs["reason"].endswith("no native kernel")


def _batch_case(g: int, sizes, seed: int):
    rng = np.random.default_rng(seed)
    segs = [_symbols(g, n, seed + 1 + r) for r, n in enumerate(sizes)]
    starts = np.array(
        [[int(rng.integers(0, m.num_states)) for m in GROUPS[g]] for _ in sizes],
        dtype=np.int64,
    ).reshape(len(sizes), len(GROUPS[g]))
    expect = np.array(
        [
            [run_reference(m, seg, start=int(s0)) for m, s0 in zip(GROUPS[g], row)]
            for seg, row in zip(segs, starts)
        ],
        dtype=np.int64,
    ).reshape(starts.shape)
    return segs, starts, expect


@settings(
    max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    g=st.integers(0, len(GROUPS) - 1),
    sizes=st.lists(SIZES, min_size=1, max_size=6),
    chunk_items=st.sampled_from([64, 1 << 13]),
    seed=st.integers(0, 2**16),
)
def test_batches_match_reference(g, sizes, chunk_items, seed):
    segs, starts, expect = _batch_case(g, sizes, seed)
    trace = RunTrace("batch")
    with trace.activate():
        finals, accepted = run_multipattern_batch(
            STACKS[g], segs, starts=starts, chunk_items=chunk_items
        )
    np.testing.assert_array_equal(finals, expect)
    for p, m in enumerate(GROUPS[g]):
        np.testing.assert_array_equal(accepted[:, p], m.accepting[expect[:, p]])
    rungs = [s.attrs["rung"] for s in trace.find("mp.batch")]
    assert rungs in ([], ["serial" if HAVE_NATIVE else "chunked"])
    if len(GROUPS[g]) == 1:
        dfa = GROUPS[g][0]
        trace = RunTrace("batch")
        with trace.activate():
            res = run_speculative_batch(
                dfa, segs, starts=starts[:, 0], native=load_serial_kernel(dfa),
            )
        np.testing.assert_array_equal(res.final_states, expect[:, 0])
        np.testing.assert_array_equal(res.accepted, dfa.accepting[expect[:, 0]])
        rungs = [s.attrs["rung"] for s in trace.find("engine.batch")]
        assert rungs in ([], ["serial"])


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    g=st.integers(0, len(GROUPS) - 1),
    sizes=st.lists(SIZES, min_size=1, max_size=6),
    chunk_items=st.sampled_from([64, 1 << 13]),
    seed=st.integers(0, 2**16),
)
def test_chunked_batches_match_reference(g, sizes, chunk_items, seed):
    # The chunked NumPy path of the group batch adapter, which runs when
    # no kernel loads: with a compiler present it is reached only this way.
    segs, starts, expect = _batch_case(g, sizes, seed)
    trace = RunTrace("batch")
    with pytest.MonkeyPatch.context() as patch, trace.activate():
        patch.setattr(mp.MachineStack, "serial_kernel", lambda self, **kw: None)
        finals, _ = run_multipattern_batch(
            STACKS[g], segs, starts=starts, k=2, chunk_items=chunk_items
        )
    np.testing.assert_array_equal(finals, expect)
    spans = trace.find("mp.batch")
    assert {sp.attrs["rung"] for sp in spans} <= {"chunked"}
    assert {sp.attrs["reason"] for sp in spans} <= {"no native kernel"}


# --------------------------------------------------------------------------- #
# options are checked before the rung is chosen
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("option", [{"k": 0}, {"k": -1}, {"lookback": -1}])
@pytest.mark.parametrize("kernel", [True, False], ids=["serial", "chunked"])
def test_bad_options_raise_on_both_rungs(option, kernel, monkeypatch):
    if kernel and not HAVE_NATIVE:
        pytest.skip("no working C compiler")
    if not kernel:
        monkeypatch.setattr(mp.MachineStack, "serial_kernel", lambda self, **kw: None)
    stack = STACKS[1]
    segs = [_symbols(1, 300, seed=1), _symbols(1, 0, seed=2)]
    x = _symbols(1, NATIVE_MIN_ITEMS, seed=3)
    with pytest.raises(ValueError, match=next(iter(option))):
        run_multipattern_batch(stack, segs, **option)
    with pytest.raises(ValueError, match=next(iter(option))):
        run_multipattern(
            GROUPS[1], x, stack=stack,
            backend="native" if kernel else "vectorized", **option,
        )


@needs_native
def test_a_kernel_of_several_lanes_is_refused():
    from repro.core.native import load_native_plan

    dfa = GROUPS[0][0]
    wide = load_native_plan(dfa, k=3)
    assert wide is not None
    with pytest.raises(ValueError, match="one lane per pattern"):
        run_speculative_batch(dfa, [_symbols(0, 100, seed=4)], native=wide)


def test_a_failed_group_build_is_not_retried(tmp_path, monkeypatch):
    # No usable compiler and a cold artifact cache: the first call plans
    # the group kernel and attempts one build, which marks the compiler
    # broken; the next call finds the remembered failure under the new
    # compiler key and neither re-plans nor rebuilds.
    from repro.core.native import build as native_build
    from repro.core.native import clear_memory_cache

    planned, builds = [], []
    real_plan, real_compile = mp.plan_kernel, native_build._compile
    monkeypatch.setattr(
        mp, "plan_kernel", lambda *a, **kw: planned.append(1) or real_plan(*a, **kw)
    )
    monkeypatch.setattr(
        native_build, "_compile",
        lambda *a, **kw: builds.append(1) or real_compile(*a, **kw),
    )
    monkeypatch.setenv("CC", "/bin/false")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    native_build.reset_build_state()
    clear_memory_cache()
    try:
        stack = stack_machines(GROUPS[2])
        segs, starts, expect = _batch_case(2, [500, 0, 37], seed=5)
        for _ in range(2):
            assert stack.serial_kernel() is None
            finals, _ = run_multipattern_batch(stack, segs, starts=starts)
            np.testing.assert_array_equal(finals, expect)
        assert (len(planned), len(builds)) == (1, 1)
    finally:
        native_build.reset_build_state()
        clear_memory_cache()


# --------------------------------------------------------------------------- #
# the defaults never reach the speculative stages
# --------------------------------------------------------------------------- #


class Guarded(AssertionError):
    pass


def _refuse(name):
    def refuse(*args, **kwargs):
        raise Guarded(f"{name} ran at defaults")

    return refuse


GUARDS = [
    (mp, "speculate_lanes"),
    (mp, "resolve_pattern"),
    (mp, "merge_parallel"),
    (mp, "merge_sequential"),
    (mp, "resolve_group_collapse"),
    (JointCompaction, "remap"),
    # The product route's single-DFA stages.
    (engine, "speculate"),
    (engine, "merge_parallel"),
    (engine, "merge_sequential"),
]


@needs_native
def test_defaults_never_speculate(monkeypatch):
    for owner, name in GUARDS:
        monkeypatch.setattr(owner, name, _refuse(name))
    for g in (0, 2, 4, 7):
        x = _symbols(g, NATIVE_MIN_ITEMS + 5, seed=g)
        routes = ("auto", "batched") + (("product",) if PRODUCT_OK[g] else ())
        for route in routes:
            res = run_multipattern(
                GROUPS[g], x, backend="native", route=route, stack=STACKS[g]
            )
            _assert_exact(g, x, res, ("match_positions",))
        # A group built inside the call takes the same rung.
        res = run_multipattern(
            GROUPS[g], x, backend="native", collect=("match_positions",)
        )
        assert res.plan.num_chunks == 1
        _assert_exact(g, x, res, ("match_positions",))
        segs, starts, expect = _batch_case(g, [0, 1, 700, 3000], seed=g)
        finals, _ = run_multipattern_batch(STACKS[g], segs, starts=starts)
        np.testing.assert_array_equal(finals, expect)
    dfa = GROUPS[0][0]
    segs, starts, expect = _batch_case(0, [0, 1, 700, 3000], seed=9)
    res = run_speculative_batch(
        dfa, segs, starts=starts[:, 0], native=load_serial_kernel(dfa)
    )
    np.testing.assert_array_equal(res.final_states, expect[:, 0])
    # An explicit chunk count still speculates and merges.
    for g in (0, 4):
        x = _symbols(g, 5_000, seed=g)
        with pytest.raises(Guarded):
            run_multipattern(
                GROUPS[g], x, backend="native", route="batched",
                stack=STACKS[g], num_chunks=64,
            )


# --------------------------------------------------------------------------- #
# serving: a group tenant and single tenants across carved rounds
# --------------------------------------------------------------------------- #


def test_server_group_and_single_tenants_exact():
    group = GROUPS[4]
    singles = {"div7": div7_dfa(), "rand": DFA.random(9, 16, rng=90, name="rand")}
    rng = np.random.default_rng(91)
    sizes = [0, 1, 2, 700, 5_000, 9_000]

    async def drive():
        server = FSMServer(
            ServeConfig(round_budget_items=2048, chunk_items=256)
        )
        members = server.register_group([(m.name, m) for m in group])
        tenants = {name: server.register_tenant(name, d) for name, d in singles.items()}
        machines = [(t, m) for t, m in zip(members, group)]
        machines += [(tenants[name], d) for name, d in singles.items()]
        jobs = []
        for t, m in machines:
            for n in sizes:
                jobs.append((m, rng.integers(0, m.num_inputs, size=n).astype(np.int32), t))
        await server.start()
        resp = await asyncio.gather(*(server.submit(t, x) for _, x, t in jobs))
        kernels = [
            ms.native if ms.group is None
            else ms.group.stack.serial_kernel()
            for ms in server._machines.values()
        ]
        await server.close()
        return jobs, resp, kernels

    jobs, resp, kernels = asyncio.run(drive())
    assert len(kernels) == 3
    assert all(nk is not None for nk in kernels) or not HAVE_NATIVE
    assert max(r.rounds for r in resp) > 1
    for (m, x, _), r in zip(jobs, resp):
        assert r.status == "ok"
        final = run_reference(m, x)
        assert r.final_state == final
        assert r.accepted == bool(m.accepting[final])


def test_server_fallback_rounds_neither_sample_nor_plan(monkeypatch):
    # Without a kernel a single machine's rounds, and a direct batch call,
    # run the reference loop: no prior, kernel plan, speculation or walk.
    import repro.core.kernels as kernels
    import repro.core.lookback as lookback
    import repro.core.merge_seq as merge_seq
    import repro.core.plan as plan_mod
    import repro.serve.server as server_mod

    monkeypatch.setattr(server_mod, "load_serial_kernel", lambda dfa: None)
    for owner, name in [
        (engine, "speculate"), (engine, "state_prior"),
        (engine, "merge_sequential"), (lookback, "speculate"),
        (lookback, "state_prior"), (mp, "speculate"), (mp, "plan_kernel"),
        (mp, "merge_sequential"), (kernels, "plan_kernel"),
        (plan_mod, "plan_kernel"), (merge_seq, "merge_sequential"),
    ]:
        monkeypatch.setattr(owner, name, _refuse(name))
    dfa = div7_dfa()
    rng = np.random.default_rng(92)
    xs = [rng.integers(0, dfa.num_inputs, size=n) for n in (0, 1, 3_000, 5_000)]
    starts = [3, 0, 6, 2]
    res = run_speculative_batch(dfa, xs, starts=starts)
    assert res.final_states.tolist() == [
        run_reference(dfa, x, start=q) for x, q in zip(xs, starts)
    ]

    async def drive():
        server = FSMServer(ServeConfig(round_budget_items=2048, chunk_items=256))
        tenant = server.register_tenant("div7", dfa)
        ms = next(iter(server._machines.values()))
        await server.start()
        resp = await asyncio.gather(*(server.submit(tenant, x) for x in xs))
        await server.close()
        return ms, resp

    ms, resp = asyncio.run(drive())
    assert ms.native is None
    assert max(r.rounds for r in resp) > 1
    for x, r in zip(xs, resp):
        assert r.final_state == run_reference(dfa, x)


# --------------------------------------------------------------------------- #
# kernels over a class map that is not the identity
# --------------------------------------------------------------------------- #


@needs_native
def test_kernels_with_a_class_map_pass_the_smoke_check():
    # "a" and "b" act alike for both patterns, so the joint map merges
    # them: the smoke check must walk raw symbols through the map.
    from repro.core.kernels import plan_kernel
    from repro.core.native import load_native_plan
    from repro.fsm.alphabet import AlphabetCompaction

    cd, dc = _literal("cd"), _literal("dc")
    stack = stack_machines([cd, dc])
    assert stack.joint.class_of.tolist() == [0, 0, 1, 2]
    nk = stack.serial_kernel()
    assert nk is not None and nk.spec.records
    assert nk.kplan.compaction.class_of.tolist() == [0, 0, 1, 2]
    # A one-pattern, two-lane kernel over a class machine and the map.
    dfa = stack.class_dfas[0]
    kplan = plan_kernel(
        dfa, chunk_len=1024, num_chunks=1, k=2, kernel="stride2",
        compaction=AlphabetCompaction(
            class_of=stack.joint.class_of, table=dfa.table,
            num_symbols=stack.joint.num_symbols,
        ),
    )
    one = load_native_plan(dfa, k=2, kplan=kplan)
    assert one is not None
    x = _symbols(1, 999, seed=3)
    assert one.run_segment(x, cd.start) == run_reference(cd, x)


@needs_native
def test_a_loaded_kernel_keeps_no_marked_tables_until_it_records():
    # The smoke check builds the accept-marked tables to check the
    # recording pass, but a kernel that never records must not hold them
    # (for a stride4 group they are a copy of the stride table). The
    # first recording call builds them once, and later calls reuse them.
    machines = [_literal(lit) for lit in ("cd", "dca", "abb")]
    stack = stack_machines(machines)
    nk = stack.serial_kernel()
    assert nk is not None and nk.spec.records
    assert nk._marked is None
    x = np.random.default_rng(4).integers(0, 4, size=5000).astype(np.int32)
    run_multipattern_batch(stack, [x[:2000], x[2000:]])
    assert nk._marked is None  # a batch round records nothing
    first = run_multipattern(machines, x, backend="native", stack=stack)
    marked = nk._marked
    assert marked is not None
    again = run_multipattern(machines, x, backend="native", stack=stack)
    assert nk._marked is marked
    for res in (first, again):
        for pr, m in zip(res.patterns, machines):
            trace = run_reference_trace(m, x)
            assert pr.final_state == run_reference(m, x)
            assert pr.match_positions.tolist() == np.flatnonzero(
                m.accepting[trace]
            ).tolist()

"""The request-batch entry points and what they share.

``run_speculative_batch`` runs each request of one machine as one pass
from its start: on a one-lane native kernel, or on the ``run_reference``
loop without one. ``run_multipattern_batch`` is the pattern-group adapter
over :func:`repro.core.multipattern.run_lane_batch`. These tests pin a
Hypothesis differential of the single-machine legs against
``run_reference`` (final states, ``ExecStats`` and validation errors),
that the one-pattern path reads raw symbols (no joint-alphabet remap),
that both entry points agree with each other and with the serial
reference, that one ``starts`` validator guards both, that a pattern
group's serving registration builds nothing its rounds never read (its
kernel steps every round from known starts), and that the degraded
in-process fallback runs the CPU plan.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import APPLICATIONS
from repro.core import multipattern as mp
from repro.core.engine import run_inprocess_fallback, run_speculative_batch
from repro.core.lookback import pin_states
from repro.core.multipattern import run_multipattern_batch, stack_machines
from repro.core.native import load_native_plan, load_serial_kernel
from repro.fsm.alphabet import JointCompaction
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference
from repro.serve import FSMServer, ServeConfig

PAPER_APPS = ("huffman", "regex1", "regex2", "html", "div7")
SIZES = (3000, 0, 517, 9000, 1)


def _segments(corpus, sizes=SIZES, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        lo = int(rng.integers(0, corpus.size - n + 1)) if n else 0
        out.append(corpus[lo : lo + n])
    return out


class TestPinStates:
    def test_pins_last_lane_only_when_missing(self):
        spec = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]], dtype=np.int32)
        pin_states(spec, [0, 2], [1, 4])
        assert spec.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 4]]

    def test_no_pins_is_a_no_op(self):
        spec = np.arange(6, dtype=np.int32).reshape(2, 3)
        pin_states(spec, [], [])
        assert spec.tolist() == [[0, 1, 2], [3, 4, 5]]


class TestGroupOfOne:
    @pytest.mark.parametrize("app", PAPER_APPS)
    def test_single_dfa_never_remaps(self, app, monkeypatch):
        dfa, corpus = APPLICATIONS[app].build(20_000, seed=1)
        segs = _segments(corpus, seed=2)
        starts = [int(s) % dfa.num_states for s in (0, 3, 5, 1, 2)]

        def refuse(self, symbols):
            raise AssertionError("the one-pattern path remapped its input")

        monkeypatch.setattr(JointCompaction, "remap", refuse)
        res = run_speculative_batch(dfa, segs, starts=starts)
        for r, (seg, s0) in enumerate(zip(segs, starts)):
            assert res.final_states[r] == run_reference(dfa, seg, start=s0)

    def test_single_dfa_native_never_remaps(self, monkeypatch):
        dfa, corpus = APPLICATIONS["regex1"].build(20_000, seed=3)
        native = load_serial_kernel(dfa)
        if native is None:
            pytest.skip("no working C compiler")
        segs = _segments(corpus, seed=4)
        monkeypatch.setattr(
            JointCompaction, "remap",
            lambda self, symbols: pytest.fail("remapped"),
        )
        res = run_speculative_batch(dfa, segs, native=native)
        for r, seg in enumerate(segs):
            assert res.final_states[r] == run_reference(dfa, seg)

    @pytest.mark.parametrize("app", PAPER_APPS)
    @pytest.mark.parametrize("chunk_items", [1024, 3000])
    def test_adapters_agree(self, app, chunk_items, monkeypatch):
        # A group of one without its kernel speculates: chunk_items=3000
        # makes its coalesced plan near-equal (kernel-layer stepping),
        # 1024 keeps it ragged.
        monkeypatch.setattr(mp.MachineStack, "serial_kernel", lambda self, **kw: None)
        dfa, corpus = APPLICATIONS[app].build(20_000, seed=5)
        segs = _segments(corpus, sizes=(3000, 3000, 0, 3000), seed=6)
        single = run_speculative_batch(dfa, segs)
        finals, accepted = run_multipattern_batch(
            stack_machines([dfa]), segs, k=2, chunk_items=chunk_items
        )
        assert finals[:, 0].tolist() == single.final_states.tolist()
        assert accepted[:, 0].tolist() == single.accepted.tolist()
        for r, seg in enumerate(segs):
            assert single.final_states[r] == run_reference(dfa, seg)


# --------------------------------------------------------------------------- #
# differential: every leg of run_speculative_batch against run_reference
# --------------------------------------------------------------------------- #

# Random machines (a one-symbol alphabet, a one-state machine, wider
# ones) and the five paper apps.
MACHINES = [
    DFA.random(1, 3, rng=80, name="one-state"),
    DFA.random(6, 1, rng=81, name="one-symbol"),
    DFA.random(9, 4, rng=82, accepting_fraction=0.3, name="r9"),
    DFA.random(40, 16, rng=83, accepting_fraction=0.2, name="r40"),
] + [APPLICATIONS[app].build(1_000, seed=9)[0] for app in PAPER_APPS]
_LEGS: dict = {}


def _legs(m: int) -> dict:
    """Machine ``m``'s legs: no kernel, then whichever one-lane kernels load."""
    if m not in _LEGS:
        dfa = MACHINES[m]
        kernels = {
            "auto": load_serial_kernel(dfa),
            "lockstep": load_serial_kernel(dfa, kernel="lockstep"),
        }
        _LEGS[m] = {"reference": None} | {
            leg: nk for leg, nk in kernels.items() if nk is not None
        }
    return _LEGS[m]


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    m=st.integers(0, len(MACHINES) - 1),
    sizes=st.lists(
        st.one_of(st.sampled_from([0, 1]), st.integers(2, 1_500)), max_size=70
    ),
    carried=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_every_leg_matches_reference(m, sizes, carried, seed):
    dfa = MACHINES[m]
    rng = np.random.default_rng(seed)
    segs = [
        rng.integers(0, dfa.num_inputs, size=n).astype(np.int32) for n in sizes
    ]
    starts = rng.integers(0, dfa.num_states, size=len(sizes)) if carried else None
    firsts = [dfa.start] * len(sizes) if starts is None else starts.tolist()
    expect = [run_reference(dfa, x, start=int(q)) for x, q in zip(segs, firsts)]
    live = [n for n in sizes if n]
    stats = {}
    for leg, native in _legs(m).items():
        res = run_speculative_batch(dfa, segs, starts=starts, native=native)
        assert res.num_requests == len(sizes)
        assert res.final_states.tolist() == expect, leg
        np.testing.assert_array_equal(res.accepted, dfa.accepting[expect])
        assert (res.plan is None) == (not live)
        stats[leg] = res.stats
    ref = stats["reference"]
    assert (ref.num_items, ref.num_chunks, ref.k) == (sum(sizes), len(live), 1)
    assert ref.local_steps == max(live, default=0)
    assert (
        ref.local_transitions == ref.local_input_reads == ref.local_gathers
        == sum(sizes)
    )
    if "lockstep" in stats:
        assert ref == stats["lockstep"]


def _bad_call(case: str, dfa: DFA, corpus: np.ndarray):
    """The arguments of one malformed call."""
    segs = [corpus[:300], corpus[:0], corpus[300:301]]
    if case == "starts_shape":
        return segs, [0, 1], None
    if case == "starts_range":
        return segs, [0, dfa.num_states, 1], None
    if case == "symbol":
        bad = corpus[:50].copy()
        bad[7] = dfa.num_inputs
        return segs + [bad], None, None
    if case == "negative_symbol":
        bad = corpus[:50].astype(np.int64)
        bad[7] = -1
        return segs + [bad], None, None
    return segs, None, load_native_plan(dfa, k=3, kernel="lockstep")


@pytest.mark.parametrize(
    "case", ["starts_shape", "starts_range", "symbol", "negative_symbol", "width"]
)
@pytest.mark.parametrize("app", ["div7", "huffman"])
def test_bad_calls_raise_the_same_error_on_every_leg(case, app):
    m = len(MACHINES) - len(PAPER_APPS) + PAPER_APPS.index(app)
    dfa = MACHINES[m]
    corpus = np.random.default_rng(10).integers(0, dfa.num_inputs, size=2_000)
    segs, starts, wide = _bad_call(case, dfa, corpus.astype(np.int32))
    if case == "width" and wide is None:
        pytest.skip("no working C compiler")
    errors = set()
    for native in _legs(m).values():
        with pytest.raises(ValueError) as info:
            run_speculative_batch(
                dfa, segs, starts=starts, native=wide if case == "width" else native
            )
        errors.add(str(info.value))
    assert len(errors) == 1
    want = {"symbol": "symbols outside", "negative_symbol": "symbols outside",
            "width": "one lane per pattern"}
    assert want.get(case, "starts") in errors.pop()


# --------------------------------------------------------------------------- #
# one starts validator for every batch entry point
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def div7():
    return APPLICATIONS["div7"].build(4_000, seed=7)


def _call(entry, dfa, segs, starts):
    if entry == "run_speculative_batch":
        return run_speculative_batch(dfa, segs, starts=starts)
    return run_multipattern_batch(stack_machines([dfa]), segs, starts=starts, k=2)


@pytest.mark.parametrize("entry", ["run_speculative_batch", "run_multipattern_batch"])
@pytest.mark.parametrize("case", ["shape", "negative", "num_states"])
def test_bad_starts_raise_before_speculation(entry, case, div7, monkeypatch):
    dfa, corpus = div7
    segs = [corpus[:1000], corpus[1000:3000]]
    grouped = entry == "run_multipattern_batch"
    bad = {"shape": [0, 0, 0], "negative": [0, -1], "num_states": [dfa.num_states, 0]}
    starts = np.asarray(bad[case])
    if grouped and case != "shape":
        starts = starts[:, None]

    def refuse(*args, **kwargs):
        raise AssertionError("speculation ran before validation")

    monkeypatch.setattr(mp, "speculate", refuse)
    with pytest.raises(ValueError, match="starts"):
        _call(entry, dfa, segs, starts)
    monkeypatch.undo()
    ok = np.asarray([0, 3])
    res = _call(entry, dfa, segs, ok[:, None] if grouped else ok)
    finals = res[0][:, 0] if grouped else res.final_states
    assert finals.tolist() == [
        run_reference(dfa, s, start=int(s0)) for s, s0 in zip(segs, ok)
    ]


# --------------------------------------------------------------------------- #
# serving registration and the degraded fallback
# --------------------------------------------------------------------------- #


def test_group_registration_builds_no_union_prior_or_plan(monkeypatch):
    # A group registers its one-lane-per-pattern kernel, and its rounds
    # step on it from each request's known start. Without a kernel the
    # rounds speculate on per-pattern priors drawn from the stack;
    # registration samples none, and the server builds no union-wide
    # prior or kernel plan of its own.
    calls = {"pattern_prior": 0, "speculate_lanes": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        mp.MachineStack, "pattern_prior",
        counting("pattern_prior", mp.MachineStack.pattern_prior),
    )
    monkeypatch.setattr(
        mp, "speculate_lanes", counting("speculate_lanes", mp.speculate_lanes)
    )
    machines = [DFA.random(5 + p, 8, rng=60 + p, name=f"g{p}") for p in range(3)]

    async def drive():
        server = FSMServer(ServeConfig(round_budget_items=2048, chunk_items=512))
        tenants = server.register_group(
            [(m.name, m) for m in machines]
        )
        registered = dict(calls)
        await server.start()
        rng = np.random.default_rng(61)
        syms = [rng.integers(0, 8, size=1500) for _ in tenants]
        resp = await asyncio.gather(
            *(server.submit(t, s) for t, s in zip(tenants, syms))
        )
        stack = next(iter(server._machines.values())).group.stack
        await server.close()
        return registered, stack, syms, resp

    registered, stack, syms, resp = asyncio.run(drive())
    assert set(registered.values()) == {0}
    if stack.serial_kernel() is not None:
        assert set(calls.values()) == {0}
    for m, s, r in zip(machines, syms, resp):
        assert r.final_state == run_reference(m, s)


@pytest.mark.parametrize("app", PAPER_APPS)
def test_inprocess_fallback_runs_cpu_plan(app):
    dfa, inputs = APPLICATIONS[app].build(20_000, seed=8)
    start = (dfa.start + 1) % dfa.num_states
    res = run_inprocess_fallback(dfa, inputs, start=start)
    assert res.config.plan == "cpu"
    assert res.final_state == run_reference(dfa, inputs, start=start)

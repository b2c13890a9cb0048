"""One batch driver: a single DFA runs as a pattern group of one.

``run_speculative_batch`` and ``run_multipattern_batch`` are adapters over
:func:`repro.core.multipattern.run_lane_batch`. These tests pin the
properties the adapters rely on: the one-pattern path reads raw symbols
(no joint-alphabet remap), both adapters agree with each other and with
the serial reference, one ``starts`` validator guards both entry points, a pattern group's
serving registration builds nothing its rounds never read (its kernel
steps every round from known starts), and the
degraded in-process fallback runs the CPU plan.
"""

import asyncio

import numpy as np
import pytest

from repro.apps import APPLICATIONS
from repro.core import multipattern as mp
from repro.core.engine import run_inprocess_fallback, run_speculative_batch
from repro.core.lookback import pin_states
from repro.core.multipattern import run_multipattern_batch, stack_machines
from repro.core.native import load_serial_kernel
from repro.fsm.alphabet import JointCompaction
from repro.fsm.run import run_reference
from repro.serve import server as server_mod
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
        res = run_speculative_batch(
            dfa, segs, starts=starts, k=3, chunk_items=1024
        )
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
        res = run_speculative_batch(dfa, segs, k=3, native=native)
        for r, seg in enumerate(segs):
            assert res.final_states[r] == run_reference(dfa, seg)

    @pytest.mark.parametrize("app", PAPER_APPS)
    @pytest.mark.parametrize("chunk_items", [1024, 3000])
    def test_adapters_agree(self, app, chunk_items):
        # chunk_items=3000 makes the coalesced plan near-equal for some
        # apps' windows (kernel-layer stepping), 1024 keeps it ragged.
        dfa, corpus = APPLICATIONS[app].build(20_000, seed=5)
        segs = _segments(corpus, sizes=(3000, 3000, 0, 3000), seed=6)
        single = run_speculative_batch(dfa, segs, k=2, chunk_items=chunk_items)
        finals, accepted = run_multipattern_batch(
            stack_machines([dfa]), segs, k=2, chunk_items=chunk_items
        )
        assert finals[:, 0].tolist() == single.final_states.tolist()
        assert accepted[:, 0].tolist() == single.accepted.tolist()
        for r, seg in enumerate(segs):
            assert single.final_states[r] == run_reference(dfa, seg)


# --------------------------------------------------------------------------- #
# one starts validator for every batch entry point
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def div7():
    return APPLICATIONS["div7"].build(4_000, seed=7)


def _call(entry, dfa, segs, starts):
    if entry == "run_speculative_batch":
        return run_speculative_batch(dfa, segs, starts=starts, k=2)
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
    # rounds speculate on per-pattern priors drawn from the stack; no
    # union-wide prior or kernel plan is built either way.
    from repro.fsm import DFA

    calls = {
        "state_prior": 0, "plan_kernel": 0, "pattern_prior": 0,
        "speculate_lanes": 0,
    }

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("state_prior", "plan_kernel"):
        monkeypatch.setattr(
            server_mod, name, counting(name, getattr(server_mod, name))
        )
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
    assert (calls["state_prior"], calls["plan_kernel"]) == (0, 0)
    if stack.serial_kernel() is not None:
        assert set(calls.values()) == {0}
    for m, s, r in zip(machines, syms, resp):
        assert r.final_state == run_reference(m, s)


@pytest.mark.parametrize("app", PAPER_APPS)
def test_inprocess_fallback_runs_cpu_plan(app):
    dfa, inputs = APPLICATIONS[app].build(20_000, seed=8)
    start = (dfa.start + 1) % dfa.num_states
    res = run_inprocess_fallback(dfa, inputs, start=start, k=3)
    assert res.config.plan == "cpu"
    assert res.final_state == run_reference(dfa, inputs, start=start)

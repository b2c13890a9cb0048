"""The pool's shared round, driven through every public entry point.

``ScaleoutPool.run`` (both schedules), ``run_map``, ``run_multi`` and
``run_batch`` publish through one step, dispatch and wait through one
round, and fold with one left fold. These tests pin what that shared
path guarantees for all four:

* bad symbols are rejected up front, before anything is speculated or
  dispatched, on both backends;
* ``run_multi`` counts one speculation check per (segment boundary,
  pattern), so its hit rate is a real rate;
* every worker fault the harness can inject is recovered bit-exactly.
"""

import numpy as np
import pytest

from repro.core import faultinject as fi
from repro.core import mp_executor
from repro.core.mp_executor import ScaleoutPool
from repro.core.native import load_native_plan, native_available
from repro.fsm import DFA
from repro.fsm.run import run_reference, run_reference_trace
from repro.obs.trace import RunTrace
from tests.conftest import make_random_dfa, random_input


def _native_loads() -> bool:
    if not native_available():
        return False
    return load_native_plan(make_random_dfa(4, 3, seed=0), k=2) is not None


needs_native = pytest.mark.skipif(
    not _native_loads(), reason="no working C compiler"
)

BACKENDS = ["numpy", pytest.param("native", marks=needs_native)]


def _trace_and_matches(dfa: DFA, inputs: np.ndarray, start=None):
    states = run_reference_trace(dfa, inputs, start)
    final = int(states[-1]) if states.size else int(dfa.start)
    return final, np.flatnonzero(dfa.accepting[states]).tolist()


BAD_CALLS = {
    "run": lambda pool, x: pool.run(x),
    "run_map": lambda pool, x: pool.run_map(x, np.array([0, 1], dtype=np.int32)),
    "run_batch": lambda pool, x: pool.run_batch([x[:100], x]),
}


class TestSymbolRange:
    @pytest.mark.parametrize("entry", sorted(BAD_CALLS))
    @pytest.mark.parametrize("bad", [7, -1])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rejected_before_dispatch(self, backend, bad, entry):
        dfa = make_random_dfa(6, 3, seed=1)
        good = random_input(3, 20_000, seed=2)
        poisoned = good.copy()
        poisoned[12_345] = bad
        trace = RunTrace("symbol range")
        with ScaleoutPool(dfa, num_workers=2, k=2, sub_chunks_per_worker=8,
                          backend=backend) as pool:
            with trace.activate():
                with pytest.raises(ValueError, match="symbols outside"):
                    BAD_CALLS[entry](pool, poisoned)
            assert not trace.find("pool.speculate")
            assert not trace.find("pool.dispatch")
            assert not trace.find("fault.degrade")
            res = pool.run(good)
        assert res.final_state == run_reference(dfa, good)
        assert res.degraded is False
        assert res.recovery is None

    def test_single_worker_pool_rejects_too(self):
        dfa = make_random_dfa(5, 3, seed=3)
        with ScaleoutPool(dfa, num_workers=1) as pool:
            with pytest.raises(ValueError, match="symbols outside"):
                pool.run(np.array([0, 1, 3], dtype=np.int32))


class TestMultiHitAccounting:
    def test_hits_count_pattern_boundary_misses(self, monkeypatch):
        machines = [
            DFA.random(s, 6, rng=70 + i, name=f"p{i}")
            for i, s in enumerate((9, 12, 15, 11))
        ]
        inputs = random_input(6, 60_000, seed=71)
        # Record the parent's per-pattern boundary rows (two segments).
        rows = []
        real = mp_executor.speculate

        def spy(dfa, data, plan, *args, **kwargs):
            out = real(dfa, data, plan, *args, **kwargs)
            if plan.num_chunks == 2:
                rows.append(out.copy())
            return out

        monkeypatch.setattr(mp_executor, "speculate", spy)
        with ScaleoutPool.for_group(machines, num_workers=2, k=1,
                                    sub_chunks_per_worker=64) as pool:
            res = pool.run_multi(inputs)
        assert res.route == "pool"
        assert len(rows) == len(machines)
        misses = sum(
            int(pr.true_starts[1]) not in row[1].tolist()
            for pr, row in zip(res.patterns, rows)
        )
        stats = res.stats
        assert stats.success_total == len(machines)
        assert 0 <= stats.success_hits <= stats.success_total
        assert stats.success_total - stats.success_hits == misses
        for pr, m in zip(res.patterns, machines):
            assert pr.final_state == run_reference(m, inputs)


# --------------------------------------------------------------------------- #
# fault drill: every entry point x every worker-protocol fault
# --------------------------------------------------------------------------- #

FAULTS = {
    "kill_worker": lambda: fi.kill_worker(1, at_task=0),
    "corrupt_result_map": lambda: fi.corrupt_result_map(1, at_task=0),
    "shm_unlink_race": lambda: fi.shm_unlink_race(at_call=1),
}

POOL_KW = dict(num_workers=2, sub_chunks_per_worker=8)


def _drill_run(schedule):
    def drive(plan):
        dfa = make_random_dfa(8, 3, seed=21)
        inp = random_input(3, 12_000, seed=22)
        with ScaleoutPool(dfa, k=3, fault_plan=plan, **POOL_KW) as pool:
            res = pool.run(inp, schedule=schedule, collect_matches=True)
        assert res.degraded is False
        got = (res.final_state, res.match_positions.tolist())
        return got, _trace_and_matches(dfa, inp)
    return drive


def _drill_run_map(plan):
    dfa = make_random_dfa(9, 3, seed=23)
    inp = random_input(3, 12_000, seed=24)
    row = np.array([0, 4, 7], dtype=np.int32)
    with ScaleoutPool(dfa, k=3, fault_plan=plan, **POOL_KW) as pool:
        got = pool.run_map(inp, row).tolist()
    return got, [run_reference(dfa, inp, int(s)) for s in row]


def _drill_run_multi(plan):
    machines = [
        DFA.random(s, 6, rng=80 + i, name=f"p{i}")
        for i, s in enumerate((9, 12, 15))
    ]
    inp = random_input(6, 12_000, seed=25)
    with ScaleoutPool.for_group(machines, k=2, fault_plan=plan,
                                **POOL_KW) as pool:
        res = pool.run_multi(inp, collect_matches=True)
    assert res.route == "pool"
    got = [(pr.final_state, pr.match_positions.tolist()) for pr in res.patterns]
    return got, [_trace_and_matches(m, inp) for m in machines]


def _drill_run_batch(plan):
    dfa = make_random_dfa(8, 3, seed=26)
    inp = random_input(3, 12_000, seed=27)
    segs = [inp[:3000], inp[3000:3001], inp[3001:3001], inp[3001:9000],
            inp[9000:]]
    starts = [0, 1, 2, 3, 4]
    with ScaleoutPool(dfa, k=3, fault_plan=plan, **POOL_KW) as pool:
        res = pool.run_batch(segs, starts=starts)
    assert res.degraded is False
    want = [run_reference(dfa, s, st) for s, st in zip(segs, starts)]
    return res.final_states.tolist(), want


DRILLS = {
    "run_barrier": _drill_run("barrier"),
    "run_ooo": _drill_run("ooo"),
    "run_map": _drill_run_map,
    "run_multi": _drill_run_multi,
    "run_batch": _drill_run_batch,
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("entry", sorted(DRILLS))
def test_fault_drill_is_bit_exact(entry, fault):
    plan = fi.FaultPlan([FAULTS[fault]()])
    trace = RunTrace(f"drill {entry} {fault}")
    with trace.activate():
        got, want = DRILLS[entry](plan)
    assert got == want
    assert trace.counters["fault.injected"].value >= 1
    assert not trace.find("fault.degrade")

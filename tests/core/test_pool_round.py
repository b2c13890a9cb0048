"""The pool's shared round, driven through both public entry points.

``ScaleoutPool.run`` and ``run_map`` publish through one step and
dispatch and wait through one round of folded segment maps. These tests
pin what that shared path guarantees for both:

* bad symbols are rejected up front, before anything is speculated or
  dispatched, on both backends;
* every worker fault the harness can inject is recovered bit-exactly.
"""

import numpy as np
import pytest

from repro.core import faultinject as fi
from repro.core.mp_executor import ScaleoutPool
from repro.core.native import load_native_plan, native_available
from repro.fsm.run import run_reference
from repro.obs.trace import RunTrace
from tests.conftest import make_random_dfa, random_input


def _native_loads() -> bool:
    if not native_available():
        return False
    return load_native_plan(make_random_dfa(4, 3, seed=0), k=2) is not None


needs_native = pytest.mark.skipif(
    not _native_loads(), reason="no working C compiler"
)

BACKENDS = ["vectorized", pytest.param("native", marks=needs_native)]


BAD_CALLS = {
    "run": lambda pool, x: pool.run(x),
    "run_map": lambda pool, x: pool.run_map(x, np.array([0, 1], dtype=np.int32)),
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

    def test_numpy_backend_name_rejected(self):
        # The NumPy path is called "vectorized" everywhere, as in the engine.
        from repro.dist.agent import HostAgent

        dfa = make_random_dfa(5, 3, seed=3)
        with pytest.raises(ValueError, match="backend must be one of"):
            ScaleoutPool(dfa, num_workers=1, backend="numpy")
        with pytest.raises(ValueError, match="backend must be one of"):
            HostAgent(backend="numpy")

    def test_single_worker_pool_rejects_too(self):
        dfa = make_random_dfa(5, 3, seed=3)
        with ScaleoutPool(dfa, num_workers=1) as pool:
            with pytest.raises(ValueError, match="symbols outside"):
                pool.run(np.array([0, 1, 3], dtype=np.int32))


# --------------------------------------------------------------------------- #
# fault drill: every entry point x every worker-protocol fault
# --------------------------------------------------------------------------- #

FAULTS = {
    "kill_worker": lambda: fi.kill_worker(1, at_task=0),
    "corrupt_result_map": lambda: fi.corrupt_result_map(1, at_task=0),
    "shm_unlink_race": lambda: fi.shm_unlink_race(at_call=1),
}

POOL_KW = dict(num_workers=2, sub_chunks_per_worker=8)


def _drill_run(plan):
    dfa = make_random_dfa(8, 3, seed=21)
    inp = random_input(3, 12_000, seed=22)
    with ScaleoutPool(dfa, k=3, fault_plan=plan, **POOL_KW) as pool:
        res = pool.run(inp)
    assert res.degraded is False
    return res.final_state, run_reference(dfa, inp)


def _drill_run_map(plan):
    dfa = make_random_dfa(9, 3, seed=23)
    inp = random_input(3, 12_000, seed=24)
    row = np.array([0, 4, 7], dtype=np.int32)
    with ScaleoutPool(dfa, k=3, fault_plan=plan, **POOL_KW) as pool:
        got = pool.run_map(inp, row).tolist()
    return got, [run_reference(dfa, inp, int(s)) for s in row]


DRILLS = {
    "run_barrier": _drill_run,
    "run_map": _drill_run_map,
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

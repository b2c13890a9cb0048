"""One up-front symbol-range check on the engine and multi-pattern entry points.

``run_speculative``, ``run_speculative_batch``, ``run_multipattern`` and
``run_multipattern_batch`` reject a symbol outside ``[0, num_inputs)`` —
a negative included — with one ``ValueError`` before anything is
remapped, speculated or stepped, on both backends; the next valid call
is bit-exact. Without the check a ``-1`` wrapped silently and a too-large
symbol made the compiled kernel read past its table, so the native drill
runs in a subprocess: a crash there fails the test instead of pytest.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps.registry import get_application
from repro.core.engine import run_speculative, run_speculative_batch
from repro.core.multipattern import (
    run_multipattern,
    run_multipattern_batch,
    stack_machines,
)
from repro.core.native import load_serial_kernel
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference
from repro.gpu import Grid

ROOT = Path(__file__).resolve().parents[2]


def _entries(backend: str):
    dfa, inputs = get_application("div7").build_instance(4_096, seed=1)
    other = DFA.random(5, dfa.num_inputs, rng=3, name="other")
    stack = stack_machines([dfa, other])
    native = load_serial_kernel(dfa) if backend == "native" else None

    def engine(x):
        return run_speculative(
            dfa, x, k=2, backend=backend, grid=Grid(num_blocks=1, threads_per_block=64),
        ).final_state

    def batch(x):
        return run_speculative_batch(dfa, [x[:100], x], native=native).final_states[1]

    def multi(x):
        res = run_multipattern([dfa, other], x, backend=backend, stack=stack,
                               route="batched")
        return [p.final_state for p in res.patterns]

    def multi_batch(x):
        finals, _ = run_multipattern_batch(stack, [x[:100], x], k=2)
        return finals[1].tolist()

    expect = {
        "run_speculative": run_reference(dfa, inputs),
        "run_speculative_batch": run_reference(dfa, inputs),
        "run_multipattern": [run_reference(m, inputs) for m in (dfa, other)],
        "run_multipattern_batch": [run_reference(m, inputs) for m in (dfa, other)],
    }
    calls = {
        "run_speculative": engine,
        "run_speculative_batch": batch,
        "run_multipattern": multi,
        "run_multipattern_batch": multi_batch,
    }
    return dfa, inputs, calls, expect


def drill(backend: str) -> None:
    """Every entry point × {-1, num_inputs} × {int32, int64}: one
    ``ValueError``, then a bit-exact valid call."""
    dfa, inputs, calls, expect = _entries(backend)
    for name, call in calls.items():
        for bad in (-1, dfa.num_inputs):
            for dtype in (np.int32, np.int64):
                good = np.asarray(inputs, dtype=dtype)
                poisoned = good.copy()
                poisoned[2_049] = bad
                with pytest.raises(ValueError, match="symbols outside"):
                    call(poisoned)
                assert call(good) == expect[name], (name, bad, dtype)


def test_vectorized():
    drill("vectorized")


def test_native_in_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "from tests.core.test_symbol_range import drill; drill('native')"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])


def test_non_integer_symbols_rejected():
    dfa = DFA.random(4, 3, rng=0)
    with pytest.raises(ValueError, match="integer symbol ids"):
        run_speculative(dfa, np.zeros(10, dtype=np.float64))

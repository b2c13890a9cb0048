"""Trusted sequential reference runners.

These are the "simple serial implementation" of the paper's Figure 1c. They
are intentionally straightforward — every parallel result in the library is
ultimately checked against them. :func:`run_all_starts` provides the
enumerative-execution reference (one run per possible start state) in a
vectorized form: the Python-level loop is over input items, but each step
advances *all* start states with one gather.
"""

from __future__ import annotations

import numpy as np

from repro.fsm.dfa import DFA

__all__ = ["run_reference", "run_reference_trace", "run_segment", "run_all_starts"]


def run_reference(dfa: DFA, symbols: np.ndarray, start: int | None = None) -> int:
    """Final state of the serial run — the ground truth for all tests.

    The loop iterates over ``symbols.tolist()``: converting once up front
    yields plain Python ints, avoiding the per-step NumPy scalar boxing
    that dominated the naive ``for a in array`` form. When the transition
    table is small relative to the input it is likewise converted to
    nested lists so every step is pure-Python indexing — several times
    faster, and this function is the correctness oracle inside every test
    and benchmark, so its speed bounds the whole suite.
    """
    state = dfa.start if start is None else int(start)
    syms = np.asarray(symbols)
    if syms.size == 0:
        return int(state)
    sym_list = syms.tolist()
    table = dfa.table
    if table.size <= syms.size << 3:
        rows = table.tolist()
        for a in sym_list:
            state = rows[a][state]
        return state
    for a in sym_list:
        state = table[a, state]
    return int(state)


def run_reference_trace(
    dfa: DFA, symbols: np.ndarray, start: int | None = None
) -> np.ndarray:
    """States *after* each transition (length ``len(symbols)``).

    Same fast paths as :func:`run_reference`: the symbols (and, when it is
    small relative to the input, the table) are converted to Python lists
    once, and the trace is built as a list and copied out in one step.
    """
    syms = np.asarray(symbols)
    out = np.empty(syms.size, dtype=np.int32)
    state = dfa.start if start is None else int(start)
    table = dfa.table
    trace = []
    append = trace.append
    if table.size <= syms.size << 3:
        rows = table.tolist()
        for a in syms.tolist():
            state = rows[a][state]
            append(state)
    else:
        item = table.item
        for a in syms.tolist():
            state = item(a, state)
            append(state)
    out[:] = trace
    return out


def run_segment(dfa: DFA, symbols: np.ndarray, start: int) -> int:
    """Run a segment from an explicit ``start`` — the re-execution primitive.

    Semantically identical to :func:`run_reference`; kept separate so the
    engine's re-execution call sites are greppable and so instrumentation
    can wrap exactly the re-executed work.
    """
    return run_reference(dfa, symbols, start)


def run_all_starts(dfa: DFA, symbols: np.ndarray) -> np.ndarray:
    """Map every state ``q`` to the final state of the run started at ``q``.

    This is the enumerative-execution reference: ``out[q]`` is the state
    reached from ``q`` after consuming all of ``symbols``. Equivalently it is
    the composition of the per-symbol transition functions, computed by
    folding gathers; ``out = T[a_n] ∘ ... ∘ T[a_1]``.
    """
    states = np.arange(dfa.num_states, dtype=np.int32)
    table = dfa.table
    for a in np.asarray(symbols):
        states = table[a, states]
    return states

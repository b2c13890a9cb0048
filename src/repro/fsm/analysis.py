"""FSM analysis: state frequencies, reachability, and convergence.

Three quantities from the paper live here:

* **Static state frequency** (Section 4.2): how often each state appears as a
  *target* in the transition table. The paper's hot-state cache ranks states
  by this static count ("the frequency of each of states a and c is 4 ...
  thus we assume that state a and state c are hot states").
* **Dynamic state frequency**: measured occupancy during an actual run —
  used for Figure 5's CDF and for validating the static heuristic.
* **State convergence** (Mytkowicz et al., discussed in Related Work): how
  many distinct final states survive when a machine is run from *all* states
  over a window of input. Low convergence (Div7: none) makes speculation
  hard; high convergence makes look-back accurate.
"""

from __future__ import annotations

import numpy as np

from repro.fsm.dfa import DFA

__all__ = [
    "static_state_frequency",
    "dynamic_state_frequency",
    "group_state_frequency",
    "reachable_states",
    "state_convergence",
    "stationary_distribution",
]


# group_state_frequency walks machines of at most this many states
# together. A joint walk gathers once per symbol and union state, a Python
# walk takes one interpreter step per symbol and machine; over a 2^14-symbol
# sample the two meet near 28 states per machine (docs/PERFORMANCE.md).
_JOINT_WALK_MAX_STATES = 24
# Machines per joint walk. Its block maps hold 8 bytes per union state and
# block: at most 3 MB over a 2^14-symbol sample.
_JOINT_WALK_MACHINES = 64
# Symbols per block of a joint walk.
_WALK_BLOCK = 64


def static_state_frequency(dfa: DFA) -> np.ndarray:
    """Count of each state's appearances as a transition target.

    Shape ``(num_states,)``; sums to ``num_states * num_inputs``.
    """
    return np.bincount(dfa.table.ravel(), minlength=dfa.num_states).astype(np.int64)


def dynamic_state_frequency(
    dfa: DFA, symbols: np.ndarray, start: int | None = None
) -> np.ndarray:
    """Occupancy count of each state over an actual run.

    Counts the state *after* each transition (the row accessed next), which
    is the access pattern the shared-memory cache sees.
    """
    from repro.fsm.run import run_reference_trace

    trace = run_reference_trace(dfa, symbols, start)
    return np.bincount(trace, minlength=dfa.num_states).astype(np.int64)


def dynamic_state_frequency_sampled(
    dfa: DFA,
    symbols: np.ndarray,
    *,
    sample: int = 1 << 16,
    start: int | None = None,
) -> np.ndarray:
    """Like :func:`dynamic_state_frequency` but over a prefix sample.

    The frequency profile stabilizes quickly for ergodic machines; the cache
    planner uses a prefix to avoid a full sequential pass at build time.
    """
    symbols = np.asarray(symbols)
    return dynamic_state_frequency(dfa, symbols[: min(sample, symbols.size)], start)


def group_state_frequency(dfas, symbols: np.ndarray) -> list[np.ndarray]:
    """:func:`dynamic_state_frequency` of each of several machines over one
    input (from each machine's own start), in one list.

    Machines of at most ``_JOINT_WALK_MAX_STATES`` states are stacked
    block-diagonally and walked together, ``_JOINT_WALK_MACHINES`` at a
    time (:func:`_joint_walk`); the others, and a lone small machine, walk
    alone. The machines must share an alphabet.
    """
    syms = np.asarray(symbols)
    joint = [i for i, d in enumerate(dfas) if d.num_states <= _JOINT_WALK_MAX_STATES]
    counts = {}
    if len(joint) > 1:
        for lo in range(0, len(joint), _JOINT_WALK_MACHINES):
            batch = joint[lo : lo + _JOINT_WALK_MACHINES]
            counts.update(zip(batch, _joint_walk([dfas[i] for i in batch], syms)))
    return [
        counts[i] if i in counts else dynamic_state_frequency(d, syms)
        for i, d in enumerate(dfas)
    ]


def _joint_walk(dfas, syms: np.ndarray) -> list[np.ndarray]:
    """Occupancy counts of machines stacked into one union table.

    Every union state runs through each ``_WALK_BLOCK``-symbol block of the
    input at once; the block maps are composed along the input for each
    machine's entry states, and every block is replayed from those. That is
    ``2 * _WALK_BLOCK`` NumPy steps plus one per block instead of one Python
    step per symbol and machine, but it gathers for every union state.
    """
    offsets = np.cumsum([0] + [d.num_states for d in dfas])
    S = int(offsets[-1])
    flat = np.concatenate(
        [d.table.astype(np.intp) + o for d, o in zip(dfas, offsets)], axis=1
    ).ravel()
    state = offsets[:-1] + [d.start for d in dfas]
    counts = np.zeros(S, dtype=np.int64)
    nb = syms.size // _WALK_BLOCK
    if nb:
        # rows[i, j]: flat offset of the table row block j steps through at
        # its i-th symbol.
        rows = syms[: nb * _WALK_BLOCK].reshape(nb, _WALK_BLOCK).T.astype(np.intp) * S
        maps = np.tile(np.arange(S, dtype=np.intp), (nb, 1))
        for r in rows:
            maps = np.take(flat, maps + r[:, None])
        entry = np.empty((nb, state.size), dtype=np.intp)
        for j in range(nb):
            entry[j] = state
            state = maps[j, state]
        for r in rows:
            entry = np.take(flat, entry + r[:, None])
            counts += np.bincount(entry.ravel(), minlength=S)
    for a in syms[nb * _WALK_BLOCK :].tolist():
        state = flat[a * S + state]
        counts += np.bincount(state, minlength=S)
    return [counts[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]


def reachable_states(dfa: DFA, start: int | None = None) -> np.ndarray:
    """Boolean mask of states reachable from ``start`` (default: q0)."""
    mask = np.zeros(dfa.num_states, dtype=bool)
    s0 = dfa.start if start is None else int(start)
    mask[s0] = True
    stack = [s0]
    while stack:
        q = stack.pop()
        for r in dfa.table[:, q]:
            r = int(r)
            if not mask[r]:
                mask[r] = True
                stack.append(r)
    return mask


def state_convergence(
    dfa: DFA, symbols: np.ndarray, *, window: int | None = None
) -> int:
    """Number of distinct final states when running from *all* states.

    Runs the machine from every state over ``symbols`` (or its first
    ``window`` items) and counts the surviving distinct endpoints. 1 means
    total convergence (speculation always succeeds after the window);
    ``num_states`` (e.g. Div7) means the machine is a permutation over the
    window and speculation can only succeed by luck.
    """
    from repro.fsm.run import run_all_starts

    symbols = np.asarray(symbols)
    if window is not None:
        symbols = symbols[:window]
    return int(np.unique(run_all_starts(dfa, symbols)).size)


def stationary_distribution(
    dfa: DFA, symbol_probs: np.ndarray | None = None, *, iterations: int = 200
) -> np.ndarray:
    """Approximate long-run state occupancy under i.i.d. symbol draws.

    Treats the DFA as a Markov chain with symbol distribution
    ``symbol_probs`` (uniform by default) and power-iterates the transition
    matrix. Used by look-back ranking when no input sample is available.
    """
    n, m = dfa.num_states, dfa.num_inputs
    if symbol_probs is None:
        probs = np.full(m, 1.0 / m)
    else:
        probs = np.asarray(symbol_probs, dtype=np.float64)
        if probs.shape != (m,):
            raise ValueError(f"symbol_probs must have shape ({m},), got {probs.shape}")
        total = probs.sum()
        if total <= 0:
            raise ValueError("symbol_probs must sum to a positive value")
        probs = probs / total
    # P[q, r] = sum over symbols a of probs[a] * [table[a, q] == r]
    P = np.zeros((n, n), dtype=np.float64)
    for a in range(m):
        np.add.at(P, (np.arange(n), dfa.table[a]), probs[a])
    pi = np.full(n, 1.0 / n)
    for _ in range(iterations):
        nxt = pi @ P
        if np.allclose(nxt, pi, atol=1e-12):
            pi = nxt
            break
        pi = nxt
    return pi

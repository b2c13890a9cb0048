"""Look-back speculation (Sections 2.1 and 4.1 of the paper).

For each chunk, inspect the last ``lookback`` symbols *preceding* the chunk
and propagate **every** state through them: ``M[c, q]`` is the state the
machine would be in at the chunk boundary had it been in ``q`` at the start
of the window. The speculated states are then the ``k`` states with the
highest *posterior* mass

    P(boundary state = s | suffix)  ∝  Σ_q  prior(q) · [M[c, q] = s]

where the prior is the machine's long-run occupancy (measured over an input
sample, or the uniform distribution as a fallback). This is the paper's
look-back strategy combined with the probabilistic ranking of principled
speculation [Zhao et al.]: when the window uniquely determines the state
(HTML after ``"<div"``), the posterior collapses onto it; when the machine
never converges (Div7), the posterior stays flat and the hit rate degrades
to ``k/7``, exactly as Figure 6 reports.

All chunks are speculated at once: the propagation is one
``(num_chunks, num_states)`` gather per look-back step.
"""

from __future__ import annotations

import numpy as np

from repro.fsm.analysis import (
    dynamic_state_frequency_sampled,
    stationary_distribution,
)
from repro.fsm.dfa import DFA
from repro.core.types import ExecStats
from repro.workloads.chunking import ChunkPlan

__all__ = [
    "state_prior", "state_ranking", "speculate", "enumerative_spec", "pin_states"
]


def state_prior(
    dfa: DFA,
    sample: np.ndarray | None = None,
    *,
    symbol_probs: np.ndarray | None = None,
) -> np.ndarray:
    """Long-run occupancy probability of each state.

    With a ``sample`` of input symbols, measures occupancy over the sample
    (plus a small smoothing term so unseen states keep a nonzero prior);
    otherwise uses the stationary distribution of the DFA under
    ``symbol_probs`` (uniform by default).
    """
    if sample is not None:
        freq = dynamic_state_frequency_sampled(dfa, sample).astype(np.float64)
        freq += 0.5  # Laplace smoothing: unseen states stay speculable
        return freq / freq.sum()
    return stationary_distribution(dfa, symbol_probs)


def state_ranking(
    dfa: DFA,
    sample: np.ndarray | None = None,
    *,
    symbol_probs: np.ndarray | None = None,
    prior: np.ndarray | None = None,
) -> np.ndarray:
    """Priority of each state (0 = most likely). Derived from the prior.

    An explicit ``prior`` takes precedence over the sample/stationary
    estimate.
    """
    if prior is None:
        prior = state_prior(dfa, sample, symbol_probs=symbol_probs)
    prior = np.asarray(prior, dtype=np.float64)
    if prior.shape != (dfa.num_states,):
        raise ValueError(
            f"prior must have shape ({dfa.num_states},), got {prior.shape}"
        )
    order = np.argsort(-prior, kind="stable")
    rank = np.empty(dfa.num_states, dtype=np.int64)
    rank[order] = np.arange(dfa.num_states)
    return rank


def enumerative_spec(dfa: DFA, num_chunks: int) -> np.ndarray:
    """spec-N speculation: every chunk enumerates all states."""
    return np.tile(np.arange(dfa.num_states, dtype=np.int32), (num_chunks, 1))


def pin_states(spec: np.ndarray, chunks, states) -> None:
    """Pin known incoming states into their chunks' speculation rows.

    A chunk whose incoming state is known (a coalesced request's head, a
    pool's first segment) is no speculative boundary. When look-back did
    not already pick ``states[i]`` for chunk ``chunks[i]``, the state
    replaces that row's last (lowest-ranked) lane in place, so the probe
    there hits instead of forcing a re-execution.
    """
    chunks = np.asarray(chunks, dtype=np.intp)
    states = np.asarray(states, dtype=spec.dtype)
    missing = ~(spec[chunks] == states[:, None]).any(axis=1)
    spec[chunks[missing], -1] = states[missing]


def speculate(
    dfa: DFA,
    inputs: np.ndarray,
    plan: ChunkPlan,
    k: int,
    *,
    lookback: int = 8,
    prior: np.ndarray | None = None,
    stats: ExecStats | None = None,
    return_coverage: bool = False,
):
    """Speculated starting states, shape ``(num_chunks, k)``.

    Chunk 0's first entry is the true initial state (it is never a guess).
    Within each row states are distinct, ordered by decreasing posterior.
    The prior's own ordering (stable, by decreasing prior) breaks ties and
    orders the zero-posterior padding.

    With ``return_coverage=True`` returns ``(spec, covered)`` where
    ``covered[c]`` flags chunks whose speculation row contains the *whole*
    image of the look-back window
    (:func:`repro.core.convergence.coverage_mask`): the true boundary
    state is then guaranteed to be among the speculated states, which is
    what lets the merges treat converged chunks as guaranteed hits. Chunk
    0 is always covered — its only achievable incoming state is
    ``dfa.start``, which is always speculated.
    """
    n_states = dfa.num_states
    if not 1 <= k <= n_states:
        raise ValueError(f"k must be in [1, {n_states}], got {k}")
    if lookback < 0:
        raise ValueError(f"lookback must be >= 0, got {lookback}")
    if prior is None:
        prior = state_prior(dfa)
    prior = np.asarray(prior, dtype=np.float64)
    if prior.shape != (n_states,):
        raise ValueError(f"prior must have shape ({n_states},), got {prior.shape}")
    by_prior = np.argsort(-prior, kind="stable")
    ranking = np.empty(n_states, dtype=np.int64)
    ranking[by_prior] = np.arange(n_states)

    n = plan.num_chunks
    inputs = np.asarray(inputs)
    table = dfa.table

    # Propagate every state through each chunk's look-back window.
    M = np.tile(np.arange(n_states, dtype=np.int32), (n, 1))
    starts = plan.starts
    consumed = 0
    if lookback > 0 and n > 1:
        window = np.minimum(lookback, starts)  # clip at the input start
        for j in range(int(window.max())):
            active = window > j
            pos = starts[active] - window[active] + j
            syms = inputs[pos]
            M[active] = table[syms[:, None], M[active]]
            consumed += int(active.sum())
    if stats is not None:
        stats.lookback_symbols += consumed

    # Posterior over boundary states: prior mass transported by the window.
    posterior = np.zeros((n, n_states), dtype=np.float64)
    rows = np.repeat(np.arange(n), n_states)
    np.add.at(posterior, (rows, M.ravel()), np.tile(prior, n))

    # Score: possible states by decreasing posterior (rank as an epsilon
    # tie-break), impossible states after them by global rank — they pad
    # rows whose posterior support is narrower than k.
    score = np.where(
        posterior > 0.0,
        -posterior + ranking[None, :] * 1e-12,
        1.0 + ranking[None, :],
    )
    top = np.argpartition(score, kth=k - 1, axis=1)[:, :k]
    top_scores = np.take_along_axis(score, top, axis=1)
    order = np.argsort(top_scores, axis=1, kind="stable")
    spec = np.take_along_axis(top, order, axis=1).astype(np.int32)

    # Chunk 0 starts from the true initial state, padded best-first.
    row0 = [dfa.start] + [int(s) for s in by_prior if int(s) != dfa.start]
    spec[0] = np.asarray(row0[:k], dtype=np.int32)
    if not return_coverage:
        return spec
    from repro.core.convergence import coverage_mask

    covered = coverage_mask(M, spec, n_states)
    # Chunk 0's achievable incoming state is exactly dfa.start == spec[0, 0].
    covered[0] = True
    return spec, covered

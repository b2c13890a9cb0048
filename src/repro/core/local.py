"""Local chunk processing: the lock-step spec-k kernel.

Algorithm 3 of the paper, vectorized. Every simulated GPU thread owns one
chunk and carries ``k`` speculated states; one lock-step iteration advances
*all* threads and all speculated states with a single gather

    S = table[symbols[:, None], S]          # S: (num_threads, k)

which is the NumPy rendering of the paper's unrolled inner loop. With the
transformed layout the per-step symbol vector is one contiguous row of the
interleaved input (the coalesced access of Section 4.1); with the natural
layout it is a strided gather (the uncoalesced pattern) — the functional
results are identical, the stats and real wall-clock differ. A skewed
(straggler) plan steps through :func:`process_chunks_ragged`, which keeps
only the chunks still running in each step's gather.

The second-pass helpers (:func:`recover_emissions`,
:func:`recover_accepts`) re-run chunks from their *true* starting states
(known after the merge) to collect application outputs: decoded symbols for
Huffman, token events for HTML, match positions for regexes.
"""

from __future__ import annotations

import numpy as np

from repro.core.convergence import CollapseConfig, LaneCollapser
from repro.core.types import ExecStats
from repro.fsm.dfa import DFA
from repro.workloads.chunking import ChunkPlan, TransformedInput

__all__ = [
    "process_chunks",
    "process_chunks_ragged",
    "recover_emissions",
    "recover_accepts",
]


def process_chunks(
    dfa: DFA,
    inputs: np.ndarray,
    plan: ChunkPlan,
    spec: np.ndarray,
    *,
    transformed: TransformedInput | None = None,
    stats: ExecStats | None = None,
    cache_mask: np.ndarray | None = None,
    count_accepting: bool = False,
    collapse: CollapseConfig | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run every chunk from its ``k`` speculated states.

    Returns ``(end, accept_counts)`` where ``end[c, j]`` is the ending state
    of chunk ``c`` started from ``spec[c, j]`` and ``accept_counts`` (only
    when requested) counts accepting-state visits per (chunk, speculation).

    ``cache_mask`` is a boolean per-state array marking transition-table
    rows resident in the simulated shared-memory cache; when provided, hits
    and misses are tallied into ``stats`` (the functional result does not
    change — caching is a performance feature).

    ``collapse`` enables the convergence layer
    (:mod:`repro.core.convergence`): every ``cadence`` steps duplicate
    lanes are deduplicated per chunk and the loop continues on the
    narrower matrix, reconstructing the full ``(num_chunks, k)`` ending
    matrix at the end — bit-identical results, up to ``k×`` fewer
    physically gathered elements. Per-symbol features (``cache_mask``,
    ``count_accepting``) need full-width lanes and disable collapse.
    ``stats.local_transitions`` keeps the lock-step modeled count either
    way; ``stats.local_gathers`` reports the physical elements.
    """
    spec = np.asarray(spec, dtype=np.int32)
    if spec.ndim != 2 or spec.shape[0] != plan.num_chunks:
        raise ValueError(
            f"spec must have shape (num_chunks, k), got {spec.shape} for "
            f"{plan.num_chunks} chunks"
        )
    if plan.max_len - plan.min_len > 1:
        raise ValueError(
            "process_chunks requires a near-equal plan (lengths differ by "
            "<= 1); skewed plans run through process_chunks_ragged"
        )
    table = dfa.table
    S = spec.copy()
    acc = (
        np.zeros(spec.shape, dtype=np.int64) if count_accepting else None
    )
    accepting = dfa.accepting
    starts = plan.starts
    q = plan.min_len
    inputs = np.asarray(inputs)

    collapser = None
    if (
        collapse is not None
        and collapse.enabled
        and spec.shape[1] > 1
        and acc is None
        and cache_mask is None
    ):
        collapser = LaneCollapser(spec.shape[1], collapse)

    hits = 0
    total_accesses = 0
    gathered = 0
    consumed = 0

    for j in range(q):
        if transformed is not None:
            syms = transformed.main[j]
        else:
            syms = inputs[starts + j]
        if cache_mask is not None:
            hits += int(cache_mask[S].sum())
            total_accesses += S.size
        if collapser is not None and collapser.rowmap is not None:
            # Spill rows carry straggler lanes of specific chunks; route
            # each storage row to its chunk's symbol.
            syms = syms[collapser.rowmap]
        S = table[syms[:, None], S]
        gathered += S.size
        if acc is not None:
            acc += accepting[S]
        if collapser is not None:
            consumed += 1
            if consumed >= collapser.next_scan:
                S = collapser.scan(S, consumed)

    # The ragged step below addresses chunks by row position, so recover
    # the full (num_chunks, k) layout first.
    if collapser is not None:
        S = collapser.expand(S)

    # Ragged step: the first num_long chunks carry one extra symbol.
    r = plan.num_long
    if r:
        if transformed is not None:
            syms_tail = transformed.tail
        else:
            long_idx = np.flatnonzero(plan.lengths > q)
            syms_tail = inputs[starts[long_idx] + q]
        if cache_mask is not None:
            hits += int(cache_mask[S[:r]].sum())
            total_accesses += S[:r].size
        S[:r] = table[syms_tail[:, None], S[:r]]
        gathered += S[:r].size
        if acc is not None:
            acc[:r] += accepting[S[:r]]

    if stats is not None:
        stats.local_steps += plan.max_len
        stats.local_transitions += int(plan.lengths.sum()) * spec.shape[1]
        stats.local_input_reads += int(plan.lengths.sum())
        stats.local_gathers += gathered
        if collapser is not None:
            stats.collapse_scans += collapser.scans
            stats.lanes_collapsed += collapser.lanes_collapsed
        if cache_mask is not None:
            stats.cache_hits += hits
            stats.cache_misses += total_accesses - hits
    return S, acc


def process_chunks_ragged(
    dfa: DFA,
    inputs: np.ndarray,
    plan: ChunkPlan,
    spec: np.ndarray,
    *,
    stats: ExecStats | None = None,
) -> np.ndarray:
    """Lock-step processing of an arbitrarily skewed plan on live chunks only.

    Chunks are sorted longest first, so at step ``j`` the chunks still
    running (``length > j``) are a prefix of that order: each step gathers
    only that prefix, and a finished chunk leaves the gather for good.
    ``stats.local_gathers`` is therefore ``sum(lengths) * k``, not the
    ``num_chunks * max_len * k`` a full-width pass would pay on a skewed
    plan. ``stats.local_steps`` stays ``max_len`` (the longest chunk sets
    the step count) and the modeled counters keep the semantics of
    :func:`process_chunks`.
    """
    spec = np.asarray(spec, dtype=np.int32)
    if spec.ndim != 2 or spec.shape[0] != plan.num_chunks:
        raise ValueError(
            f"spec must have shape (num_chunks, k), got {spec.shape} for "
            f"{plan.num_chunks} chunks"
        )
    table = dfa.table
    inputs = np.asarray(inputs)
    order = np.argsort(-plan.lengths, kind="stable")
    S = spec[order]
    starts = plan.starts[order]
    # live[j]: how many chunks (a prefix of ``order``) run at step j.
    live = np.searchsorted(
        -plan.lengths[order], -np.arange(plan.max_len), side="left"
    )
    for j, n_live in enumerate(live.tolist()):
        syms = inputs[starts[:n_live] + j]
        S[:n_live] = table[syms[:, None], S[:n_live]]
    end = np.empty_like(S)
    end[order] = S
    if stats is not None:
        total = int(plan.lengths.sum())
        stats.local_steps += plan.max_len
        stats.local_transitions += total * spec.shape[1]
        stats.local_input_reads += total
        stats.local_gathers += total * spec.shape[1]
    return end


def _true_state_pass(
    dfa: DFA,
    inputs: np.ndarray,
    plan: ChunkPlan,
    true_starts: np.ndarray,
    visit,
) -> None:
    """Lock-step pass with k=1 from the true chunk states, calling
    ``visit(global_positions, symbols, states_after)`` at every step."""
    true_starts = np.asarray(true_starts, dtype=np.int32)
    if true_starts.shape != (plan.num_chunks,):
        raise ValueError(
            f"true_starts must have shape ({plan.num_chunks},), got {true_starts.shape}"
        )
    if plan.max_len - plan.min_len > 1:
        raise ValueError(
            "output recovery requires a near-equal plan (lengths differ by <= 1)"
        )
    table = dfa.table
    S = true_starts.copy()
    starts = plan.starts
    q = plan.min_len
    for j in range(q):
        pos = starts + j
        syms = inputs[pos]
        S = table[syms, S]
        visit(pos, syms, S)
    r = plan.num_long
    if r:
        long_idx = np.flatnonzero(plan.lengths > q)
        pos = starts[long_idx] + q
        syms = inputs[pos]
        S2 = table[syms, S[long_idx]]
        # visit() before mutating S: callers hold references to the array
        # passed on the previous step and read pre-transition states from it.
        visit(pos, syms, S2)
        S[long_idx] = S2


def recover_emissions(
    dfa: DFA,
    inputs: np.ndarray,
    plan: ChunkPlan,
    true_starts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Transducer outputs in input order: ``(positions, emitted values)``.

    Requires the DFA to carry an ``emit`` table. The pass runs from the true
    starting state of every chunk (obtained from the merge), so the
    emissions equal those of a fully sequential run — property tests assert
    exactly that.
    """
    if dfa.emit is None:
        raise ValueError("DFA has no emission table")
    emit = dfa.emit
    pos_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []

    # visit() receives post-transition states; emissions belong to the
    # transition itself, so we capture pre-transition states by re-deriving
    # the emitted value from (symbol, previous state). Track previous state
    # alongside via closure state.
    prev = {"S": np.asarray(true_starts, dtype=np.int32).copy()}

    def visit(pos: np.ndarray, syms: np.ndarray, after: np.ndarray) -> None:
        before = prev["S"]
        if before.shape != after.shape:  # ragged tail: subset of chunks
            before = before[np.flatnonzero(plan.lengths > plan.min_len)]
        e = emit[syms, before]
        mask = e >= 0
        if mask.any():
            pos_parts.append(pos[mask].astype(np.int64))
            val_parts.append(e[mask].astype(np.int64))
        if after.shape == prev["S"].shape:
            prev["S"] = after
        else:
            updated = prev["S"].copy()
            updated[np.flatnonzero(plan.lengths > plan.min_len)] = after
            prev["S"] = updated

    _true_state_pass(dfa, inputs, plan, true_starts, visit)
    if not pos_parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    positions = np.concatenate(pos_parts)
    values = np.concatenate(val_parts)
    order = np.argsort(positions, kind="stable")
    return positions[order], values[order]


def recover_accepts(
    dfa: DFA,
    inputs: np.ndarray,
    plan: ChunkPlan,
    true_starts: np.ndarray,
) -> np.ndarray:
    """Positions at which the machine is in an accepting state.

    For a search DFA (``.*R``) these are exactly the positions where some
    match ends — the paper's regex-matching output.
    """
    accepting = dfa.accepting
    parts: list[np.ndarray] = []

    def visit(pos: np.ndarray, syms: np.ndarray, after: np.ndarray) -> None:
        mask = accepting[after]
        if mask.any():
            parts.append(pos[mask].astype(np.int64))

    _true_state_pass(dfa, inputs, plan, true_starts, visit)
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.sort(np.concatenate(parts), kind="stable")

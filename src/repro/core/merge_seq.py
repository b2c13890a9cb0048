"""Sequential merge — the baseline whose cost grows linearly in thread count.

A single (simulated) thread walks the chunk results in order, carrying the
one true state (Figure 4a). Every step probes the next chunk's ``k``
speculated states; a miss triggers a re-execution that is always *necessary*
(the walk knows the true incoming state). This is the merge whose O(n) cost
caps the scalability of every spec-k configuration in Figure 3.

The walk also yields the true starting state of every chunk, which the
engine reuses for speculation-success measurement and output recovery.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.checks import count_hash, count_nested, count_skipped, select_check
from repro.core.replay import Replay, default_replay
from repro.core.types import ChunkResults, ExecStats
from repro.fsm.dfa import DFA
from repro.obs.trace import current_trace, trace_span
from repro.workloads.chunking import ChunkPlan

__all__ = ["merge_sequential", "true_boundary_walk"]

# Dense-LUT fast path bound: n_chunks * num_states entries (int32).
_LUT_ENTRY_BUDGET = 64_000_000


def true_boundary_walk(
    dfa: DFA,
    inputs: np.ndarray,
    plan: ChunkPlan,
    results: ChunkResults,
    *,
    replay: Replay | None = None,
) -> tuple[int, np.ndarray]:
    """Uncounted truth recovery: ``(final_state, true_starts)``.

    Semantically identical to :func:`merge_sequential` with ``stats=None``
    but built for speed: the per-chunk speculation maps are scattered into
    a dense ``(num_chunks, num_states)`` lookup table once, so the walk is
    a scalar chain of O(1) indexings instead of per-chunk searches. Used
    by the engine for success-rate measurement and output recovery after a
    parallel merge (instrumentation, not part of the algorithm's cost).
    A chunk whose map misses the true state re-executes through
    ``replay`` (:mod:`repro.core.replay`) when given.
    """
    n, n_states = results.num_chunks, dfa.num_states
    if n * n_states > _LUT_ENTRY_BUDGET:
        return merge_sequential(
            dfa, inputs, plan, results, stats=None, replay=replay
        )
    lut = np.full((n, n_states), -1, dtype=np.int32)
    rows = np.repeat(np.arange(n), results.k)
    valid = results.valid.ravel()
    lut[rows[valid], results.spec.ravel()[valid]] = results.end.ravel()[valid]
    replay = default_replay(dfa, inputs, plan, replay)

    true_starts = np.empty(n, dtype=np.int32)
    cur = int(dfa.start)
    for c in range(n):
        true_starts[c] = cur
        nxt = int(lut[c, cur])
        if nxt < 0:
            nxt = replay(c, cur)
        cur = nxt
    return cur, true_starts


def merge_sequential(
    dfa: DFA,
    inputs: np.ndarray,
    plan: ChunkPlan,
    results: ChunkResults,
    *,
    check: str = "auto",
    stats: ExecStats | None = None,
    replay: Replay | None = None,
) -> tuple[int, np.ndarray]:
    """Walk chunk results sequentially; return ``(final_state, true_starts)``.

    ``true_starts[c]`` is the exact state the machine is in when chunk ``c``
    begins — ground truth for success-rate measurement. When ``stats`` is
    None the walk is uncounted (the engine uses that mode to obtain truth
    for parallel-merge runs without polluting their cost profile). Misses
    re-execute through ``replay`` when given (:mod:`repro.core.replay`).
    """
    n = results.num_chunks
    k = results.k
    impl = select_check(k, check)
    true_starts = np.empty(n, dtype=np.int32)
    cur = np.int32(dfa.start)

    spec = results.spec
    end = results.end
    valid = results.valid

    counted = stats is not None
    if counted:
        stats.seq_merge_steps += n

    # Observability accumulators — kept as locals in the walk's hot loop and
    # published once at the end (one counter update per run, not per chunk).
    obs = current_trace()
    semijoin_match = 0
    reexec_time = 0.0
    reexec_items_obs = 0

    reexec_runs = 0
    with trace_span("merge.sequential_walk", chunks=n):
        (
            cur, reexec_runs, semijoin_match, semijoin_skipped,
            reexec_time, reexec_items_obs,
        ) = _walk(
            dfa, inputs, plan, spec, end, valid, results.converged,
            true_starts, cur,
            n=n, k=k, impl=impl, stats=stats, counted=counted, obs=obs,
            replay=default_replay(dfa, inputs, plan, replay),
        )
    if counted and reexec_runs:
        # In the sequential walk, every re-execution is on the critical path.
        stats.reexec_max_chain = max(stats.reexec_max_chain, reexec_runs)
    if obs is not None:
        obs.count("merge.semijoin.match", semijoin_match)
        obs.count("merge.semijoin.miss", n - semijoin_match - semijoin_skipped)
        if semijoin_skipped:
            obs.count("merge.semijoin.skipped", semijoin_skipped)
        if reexec_runs:
            obs.observe("reexec.seq_s", reexec_time)
            obs.count("reexec.seq.items", reexec_items_obs)
    return int(cur), true_starts


def _walk(
    dfa: DFA,
    inputs: np.ndarray,
    plan: ChunkPlan,
    spec: np.ndarray,
    end: np.ndarray,
    valid: np.ndarray,
    converged: np.ndarray | None,
    true_starts: np.ndarray,
    cur: np.int32,
    *,
    n: int,
    k: int,
    impl: str,
    stats: ExecStats | None,
    counted: bool,
    obs,
    replay: Replay,
) -> tuple[np.int32, int, int, int, float, int]:
    """The sequential walk body; returns the carried state and accumulators."""
    semijoin_match = 0
    semijoin_skipped = 0
    reexec_runs = 0
    reexec_time = 0.0
    reexec_items_obs = 0
    for c in range(n):
        true_starts[c] = cur
        if converged is not None and converged[c]:
            # Converged chunk: the map is a total constant over achievable
            # incoming states, and ``cur`` (the true state) is achievable —
            # a guaranteed hit with a known answer, no semi-join needed.
            cur = end[c, 0]
            semijoin_skipped += 1
            if counted:
                count_skipped(1, stats)
                if c > 0:
                    stats.success_total += 1
                    stats.success_hits += 1
            continue
        row_valid = valid[c]
        # Semi-join of the single true state against the chunk's spec set.
        hits = np.flatnonzero((spec[c] == cur) & row_valid)
        found = hits.size > 0
        idx = int(hits[0]) if found else 0
        if counted:
            mi = np.array([[idx]])
            fo = np.array([[found]])
            vl = np.array([[True]])
            if impl == "nested":
                count_nested(mi, fo, vl, k, stats)
            else:
                count_hash(
                    np.array([[cur]]), vl, spec[c][None, :], row_valid[None, :],
                    mi, fo, stats,
                )
        if c > 0 and counted:
            stats.success_total += 1
            if found:
                stats.success_hits += 1
        if found:
            cur = end[c, idx]
            semijoin_match += 1
        else:
            t0 = time.perf_counter() if obs is not None else 0.0
            seg = inputs[plan.chunk_slice(c)]
            cur = np.int32(replay(c, int(cur)))
            reexec_runs += 1
            if counted:
                stats.reexec_chunks_seq += 1
                stats.reexec_items_seq += int(seg.size)
            if obs is not None:
                reexec_time += time.perf_counter() - t0
                reexec_items_obs += int(seg.size)
    return (
        cur, reexec_runs, semijoin_match, semijoin_skipped,
        reexec_time, reexec_items_obs,
    )

"""Parallel (tree) merge with speculation — the paper's contribution.

The merge reduces the per-chunk speculation maps pairwise up a binary tree;
a level merges all adjacent pairs at once (vectorized over pairs, the
analog of all warps/blocks merging concurrently). Composing two maps is the
semi-join of Section 3.2; a left ending state with no valid match on the
right is handled by the *re-execution strategy*:

* ``"eager"`` — re-execute the right segment from the unmatched state
  immediately. Exact, but the unmatched state may never lie on the true
  path, so the work may be wasted (the paper's Figure 4b problem).
* ``"delayed"`` — mark the composed entry invalid and keep merging
  (Section 3.3). Invalidity can propagate to the root; if the root entry
  for the true initial state is invalid, a *fix-up descent* walks down the
  stored tree, probing each segment's map first and re-executing only the
  chunks that are genuinely needed — so every re-execution it performs is
  necessary.

The functional result is always identical to the sequential reference;
property tests in ``tests/core/test_merge_equivalence.py`` assert this over
random machines, inputs, widths and strategies.

Cost attribution: tree levels are charged to the GPU hierarchy the paper
uses — the first five levels within a warp (shuffle), the next
``log2(threads_per_block / 32)`` within a block (shared memory), and the
across-block reduction as the sequential global stage over ``num_blocks``
results (Section 4.1's three sub-stages).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.checks import (
    count_hash,
    count_nested,
    count_skipped,
    match_pairs,
    select_check,
)
from repro.core.replay import Replay, default_replay, replay_path
from repro.core.types import ChunkResults, ExecStats, SegmentMaps
from repro.fsm.dfa import DFA
from repro.obs.trace import current_trace, trace_span
from repro.workloads.chunking import ChunkPlan

__all__ = ["merge_parallel", "compose_maps", "MergeTree"]


@dataclass
class MergeTree:
    """All levels of the merge tree, leaves first (kept for fix-up).

    ``reexecuted`` lists the leaf chunk ids the fix-up descent had to
    re-execute, in resolution order — empty when the root probe hit (or
    the eager strategy resolved everything during the reduction).
    """

    levels: list[SegmentMaps]
    reexecuted: list[int] = field(default_factory=list)

    @property
    def root(self) -> SegmentMaps:
        """The final single-segment level."""
        return self.levels[-1]


def compose_maps(
    end_left: np.ndarray,
    valid_left: np.ndarray,
    spec_right: np.ndarray,
    end_right: np.ndarray,
    valid_right: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized semi-join composition of adjacent speculation maps.

    Entry ``j`` of pair ``p`` composes the left map's ending state against
    the right map's speculated states (Section 3.2): on a hit the composed
    ending state is the right map's, on a miss the left ending state is
    kept and the entry is marked invalid (the delayed strategy's marking —
    callers decide whether to re-execute eagerly, delay to a fix-up
    descent, or resolve locally as the scale-out workers do).

    Parameters
    ----------
    end_left, valid_left:
        Left maps' ending states and validity, both ``(num_pairs, k)``
        (int32 states / bool).
    spec_right, end_right, valid_right:
        Right maps' speculated states, ending states, and validity,
        all ``(num_pairs, k)``.

    Returns
    -------
    (end, valid, match_idx):
        Composed ending states ``(num_pairs, k)`` int32; validity of each
        composed entry; and the first matching right column per entry
        (undefined where ``valid`` is False), which the merge levels reuse
        for runtime-check cost accounting.
    """
    match_idx, found = match_pairs(end_left, valid_left, spec_right, valid_right)
    end = np.where(
        found, np.take_along_axis(end_right, match_idx, axis=1), end_left
    ).astype(np.int32)
    return end, found, match_idx


def merge_parallel(
    dfa: DFA,
    inputs: np.ndarray,
    plan: ChunkPlan,
    results: ChunkResults,
    *,
    check: str = "auto",
    reexec: str = "delayed",
    threads_per_block: int = 256,
    warp_size: int = 32,
    stats: ExecStats | None = None,
    replay: Replay | None = None,
) -> tuple[int, MergeTree]:
    """Tree-merge all chunk results; return ``(final_state, tree)``.

    ``reexec`` selects the strategy described in the module docstring. The
    returned tree is the full reduction history (used by the fix-up pass
    and by tests that inspect intermediate validity). Eager resolutions
    and fix-up misses re-execute through ``replay`` when given
    (:mod:`repro.core.replay`); only who steps the symbols changes.
    """
    if reexec not in ("eager", "delayed"):
        raise ValueError(f"reexec must be 'eager' or 'delayed', got {reexec!r}")
    k = results.k
    impl = select_check(k, check)
    counted = stats is not None

    maps = SegmentMaps.from_chunks(results)
    levels = [maps]
    level_index = 0
    eager_chain = 0

    obs = current_trace()
    path = replay_path(replay)
    replay = default_replay(dfa, inputs, plan, replay)
    while maps.num_segments > 1:
        with trace_span(
            "merge.level", level=level_index, segments=maps.num_segments
        ) as span:
            level_t0 = time.perf_counter() if obs is not None else 0.0
            maps, had_reexec = _merge_level(
                plan, results, maps,
                impl=impl, reexec=reexec, stats=stats, replay=replay,
            )
            if obs is not None:
                obs.observe("merge.level_s", time.perf_counter() - level_t0)
                span.set(reexec=had_reexec)
        levels.append(maps)
        level_index += 1
        if had_reexec:
            eager_chain += 1

    if counted:
        _attribute_levels(stats, plan.num_chunks, threads_per_block, warp_size)
        if eager_chain:
            stats.reexec_max_chain = max(stats.reexec_max_chain, eager_chain)

    tree = MergeTree(levels=levels)
    root = tree.root
    if root.converged is not None and root.converged[0]:
        # The whole input reduced to a total-constant map: the answer for
        # the (achievable) initial state is known without probing.
        count_skipped(1, stats)
        return int(root.end[0, 0]), tree
    hits = np.flatnonzero((root.spec[0] == dfa.start) & root.valid[0])
    if hits.size:
        return int(root.end[0, hits[0]]), tree

    # Root entry for the true initial state is invalid (possible only with
    # the delayed strategy, or when chunk 0's spec row was corrupted).
    with trace_span("merge.fixup", replay=path):
        final = _fixup(plan, tree, dfa.start, stats, replay)
    return final, tree


# --------------------------------------------------------------------------- #
# one tree level
# --------------------------------------------------------------------------- #


def _merge_level(
    plan: ChunkPlan,
    results: ChunkResults,
    maps: SegmentMaps,
    *,
    impl: str,
    reexec: str,
    stats: ExecStats | None,
    replay: Replay,
) -> tuple[SegmentMaps, bool]:
    m = maps.num_segments
    npairs = m // 2
    carry = m % 2 == 1
    k = maps.k

    sl = maps.spec[0 : 2 * npairs : 2]
    el = maps.end[0 : 2 * npairs : 2]
    vl = maps.valid[0 : 2 * npairs : 2]
    sr = maps.spec[1 : 2 * npairs : 2]
    er = maps.end[1 : 2 * npairs : 2]
    vr = maps.valid[1 : 2 * npairs : 2]

    have_conv = maps.converged is not None
    conv = maps.converged_mask()
    conv_l = conv[0 : 2 * npairs : 2]
    conv_r = conv[1 : 2 * npairs : 2]

    obs = current_trace()
    check_t0 = time.perf_counter() if obs is not None else 0.0
    # Pairs whose right side converged need no semi-join: the right map is
    # a total constant over achievable incoming states, so every valid left
    # entry composes to the same known ending state. The check (and the
    # possibility of a miss — delayed invalidation or eager re-execution)
    # is skipped for them entirely.
    skip = conv_r if have_conv else np.zeros(npairs, dtype=bool)
    if skip.any():
        do = ~skip
        new_end = np.repeat(er[:, :1], k, axis=1).astype(np.int32)
        found = vl.copy()
        if do.any():
            ne, fo, match_idx = compose_maps(
                el[do], vl[do], sr[do], er[do], vr[do]
            )
            new_end[do] = ne
            found[do] = fo
            if stats is not None:
                if impl == "nested":
                    count_nested(match_idx, fo, vl[do], k, stats)
                else:
                    count_hash(el[do], vl[do], sr[do], vr[do], match_idx, fo, stats)
        count_skipped(int(vl[skip].sum()), stats)
        if obs is not None:
            obs.count("merge.semijoin.skipped", int(vl[skip].sum()))
    else:
        new_end, found, match_idx = compose_maps(el, vl, sr, er, vr)
        if stats is not None:
            if impl == "nested":
                count_nested(match_idx, found, vl, k, stats)
            else:
                count_hash(el, vl, sr, vr, match_idx, found, stats)
    if stats is not None:
        stats.merge_pair_ops += npairs
    if obs is not None:
        obs.observe("merge.check_s", time.perf_counter() - check_t0)
        matched = int((vl & found).sum())
        skipped = int(vl[skip].sum()) if skip.any() else 0
        obs.count("merge.semijoin.match", matched - skipped)
        obs.count("merge.semijoin.miss", int(vl.sum()) - matched)

    new_valid = found.copy()

    had_reexec = False
    if reexec == "eager":
        # Resolve every valid-but-unmatched entry by re-executing the right
        # segment from the unmatched ending state. These resolutions are
        # independent of the true path — some will be wasted work. Within a
        # level the resolutions run concurrently (one per lane); the level's
        # wall time is its largest single resolution, tracked for costing.
        misses = np.argwhere(vl & ~found)
        right_lo = maps.chunk_lo[1 : 2 * npairs : 2]
        right_hi = maps.chunk_hi[1 : 2 * npairs : 2]
        level_max_items = 0
        for p, j in misses:
            state = int(el[p, j])
            before = stats.reexec_items_eager if stats is not None else 0
            resolved = _resolve_segment(
                plan, results, state, int(right_lo[p]), int(right_hi[p]),
                stats, replay, bucket="eager",
            )
            if stats is not None:
                level_max_items = max(
                    level_max_items, stats.reexec_items_eager - before
                )
            new_end[p, j] = resolved
            new_valid[p, j] = True
            had_reexec = True
        if stats is not None:
            stats.reexec_wall_items += level_max_items

    # A composed segment is converged when both halves are: an achievable
    # incoming state then hits the left's constant map, whose (achievable)
    # answer hits the right's constant map — the composition stays a total
    # constant. Converged-left with unconverged-right gives no guarantee.
    out = SegmentMaps(
        spec=sl.copy(),
        end=new_end,
        valid=new_valid,
        chunk_lo=maps.chunk_lo[0 : 2 * npairs : 2].copy(),
        chunk_hi=maps.chunk_hi[1 : 2 * npairs : 2].copy(),
        converged=(conv_l & conv_r) if have_conv else None,
    )
    if carry:
        out = SegmentMaps(
            spec=np.vstack([out.spec, maps.spec[-1:]]),
            end=np.vstack([out.end, maps.end[-1:]]),
            valid=np.vstack([out.valid, maps.valid[-1:]]),
            chunk_lo=np.concatenate([out.chunk_lo, maps.chunk_lo[-1:]]),
            chunk_hi=np.concatenate([out.chunk_hi, maps.chunk_hi[-1:]]),
            converged=(
                np.concatenate([out.converged, maps.converged[-1:]])
                if have_conv
                else None
            ),
        )
    return out, had_reexec


def _resolve_segment(
    plan: ChunkPlan,
    results: ChunkResults,
    state: int,
    lo: int,
    hi: int,
    stats: ExecStats | None,
    replay: Replay,
    *,
    bucket: str,
) -> int:
    """Exact ending state of chunks ``[lo, hi)`` started from ``state``.

    Walks chunk results, reusing each chunk's speculation map on a hit and
    re-executing the chunk through ``replay`` on a miss — the re-execution
    work a GPU thread would perform, charged to ``bucket`` ('eager' or
    'fixup').
    """
    obs = current_trace()
    t0 = time.perf_counter() if obs is not None else 0.0
    cur = int(state)
    items = 0
    for c in range(lo, hi):
        hit = results.lookup(c, cur)
        if hit is not None:
            cur = hit
            continue
        cur = replay(c, cur)
        size = int(plan.lengths[c])
        items += size
        if stats is not None:
            if bucket == "eager":
                stats.reexec_chunks_eager += 1
                stats.reexec_items_eager += size
            else:
                stats.fixup_chunks += 1
                stats.fixup_items += size
    if obs is not None and items:
        obs.observe(f"reexec.{bucket}_s", time.perf_counter() - t0)
        obs.count(f"reexec.{bucket}.items", items)
    return cur


# --------------------------------------------------------------------------- #
# fix-up descent (delayed strategy)
# --------------------------------------------------------------------------- #


def _fixup(
    plan: ChunkPlan,
    tree: MergeTree,
    state: int,
    stats: ExecStats | None,
    replay: Replay,
) -> int:
    """Resolve ``state`` through the whole input using the stored tree.

    Probes each segment's map before descending, so intact subtrees cost
    O(k) and only genuinely missing chunks are re-executed. Re-executed
    chunk ids are tracked to measure the longest *consecutive* run — the
    dependent chain that bounds wall time when re-executions of independent
    chunks are dispatched to their owner threads concurrently.
    """
    top = len(tree.levels) - 1
    reexecuted = tree.reexecuted
    out = _fixup_node(plan, tree, state, top, 0, stats, reexecuted, replay)
    if stats is not None and reexecuted:
        chain = best = 1
        for prev, cur in zip(reexecuted, reexecuted[1:]):
            chain = chain + 1 if cur == prev + 1 else 1
            best = max(best, chain)
        stats.fixup_chain = max(stats.fixup_chain, best)
    return out


def _fixup_node(
    plan: ChunkPlan,
    tree: MergeTree,
    state: int,
    level: int,
    idx: int,
    stats: ExecStats | None,
    reexecuted: list[int],
    replay: Replay,
) -> int:
    maps = tree.levels[level]
    if maps.converged is not None and maps.converged[idx]:
        # The descent always carries an achievable state, for which a
        # converged segment's map is a known constant — no probe needed.
        count_skipped(1, stats)
        return int(maps.end[idx, 0])
    if stats is not None:
        stats.fixup_probes += 1
    hits = np.flatnonzero((maps.spec[idx] == state) & maps.valid[idx])
    if hits.size:
        return int(maps.end[idx, hits[0]])
    if level == 0:
        obs = current_trace()
        t0 = time.perf_counter() if obs is not None else 0.0
        out = replay(idx, int(state))
        size = int(plan.lengths[idx])
        reexecuted.append(idx)
        if stats is not None:
            stats.fixup_chunks += 1
            stats.fixup_items += size
        if obs is not None:
            obs.observe("reexec.fixup_s", time.perf_counter() - t0)
            obs.count("reexec.fixup.items", size)
        return out
    prev_m = tree.levels[level - 1].num_segments
    left = 2 * idx
    right = 2 * idx + 1
    mid = _fixup_node(plan, tree, state, level - 1, left, stats, reexecuted, replay)
    if right >= prev_m:  # carried segment: no right child
        return mid
    return _fixup_node(
        plan, tree, mid, level - 1, right, stats, reexecuted, replay
    )


# --------------------------------------------------------------------------- #
# cost attribution of tree levels to the GPU merge hierarchy
# --------------------------------------------------------------------------- #


def _attribute_levels(
    stats: ExecStats, num_chunks: int, threads_per_block: int, warp_size: int
) -> None:
    """Split tree depth into warp/block/global stages for the cost model."""
    total_levels = max(1, int(np.ceil(np.log2(max(2, num_chunks)))))
    warp_levels = int(np.ceil(np.log2(warp_size)))
    block_levels = int(np.ceil(np.log2(max(1, threads_per_block // warp_size))))
    stats.merge_levels_warp += min(total_levels, warp_levels)
    remaining = max(0, total_levels - warp_levels)
    stats.merge_levels_block += min(remaining, block_levels)
    # Ceil division: a partial block still produces a block result that the
    # sequential global stage must walk (300 chunks at 256 threads/block is
    # 2 blocks, not 1).
    num_blocks = max(1, -(-num_chunks // max(1, threads_per_block)))
    stats.merge_global_steps += num_blocks if num_blocks > 1 else 0

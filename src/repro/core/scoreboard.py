"""Chunk scoreboard: out-of-order merge consumption with eager miss re-execution.

The barrier engine runs the paper's pipeline as lock-step stages —
speculate all -> execute all -> merge all -> re-execute misses — so one
straggler chunk stalls every downstream stage. This module treats chunks as
in-flight instructions instead (the classic R10K scoreboard shape): each
chunk moves independently through

    SPECULATED -> EXECUTED -> MERGED -> RETIRED

and the merge *consumes* chunk maps the moment they arrive. Two properties
of the algebra make out-of-order resolution legal:

* semi-join composition (:func:`repro.core.merge_par.compose_maps`) is
  associative, so any contiguous run of executed chunks can be folded into
  one segment map before its incoming state is known;
* a *converged* chunk (:mod:`repro.core.convergence`) has a total-constant
  map over achievable incoming states, so its outgoing state — and hence
  its successor's incoming state — is known the instant it executes, even
  while every chunk to its left is still in flight. Converged chunks retire
  immediately and open a *secondary resolution front*.

The payoff is eager, provably-necessary re-execution: the moment a chunk's
incoming state becomes known (through the primary front at chunk 0 or any
secondary front) and its speculation row misses, the scoreboard launches the
re-execution right then — typically while other chunks are still executing,
long before the full merge would have finished. The ``sched.reexec_early``
observability counter (and :attr:`ChunkScoreboard.reexec_log`) record that
ordering.

``mode="sequential"`` resolves with scalar frontier probes only (every
chunk's true incoming state is recovered — the scoreboard analog of
:func:`repro.core.merge_seq.merge_sequential`). ``mode="parallel"``
additionally composes runs of executed chunks ahead of the fronts, so a
front crossing a composed run resolves it with one probe (the scoreboard
analog of the paper's tree merge; per-chunk truth inside skipped runs is
then recovered separately, exactly as after a tree merge).

:func:`run_chunks_active` is the matching execution driver for skewed
(straggler) chunk plans: it keeps an *active list*, compacts finished
chunks out of the per-step gather, and posts each chunk to the scoreboard
at its true completion time — short chunks merge and misses re-execute
while the stragglers are still running.
"""

from __future__ import annotations

import numpy as np

from repro.core.checks import count_hash, count_nested, count_skipped, select_check
from repro.core.merge_par import compose_maps
from repro.core.replay import Replay, default_replay
from repro.core.types import ExecStats
from repro.fsm.dfa import DFA
from repro.obs.trace import current_trace, trace_span
from repro.workloads.chunking import ChunkPlan

__all__ = [
    "STAGE_SPECULATED",
    "STAGE_EXECUTED",
    "STAGE_MERGED",
    "STAGE_RETIRED",
    "ChunkScoreboard",
    "run_chunks_active",
]

#: Chunk lifecycle stages (monotone).
STAGE_SPECULATED = 0
STAGE_EXECUTED = 1
STAGE_MERGED = 2
STAGE_RETIRED = 3


class ChunkScoreboard:
    """Track every chunk from speculation to retirement, resolving eagerly.

    Parameters
    ----------
    dfa:
        The machine being executed (its ``start`` seeds the primary front).
    inputs, plan:
        The input and its chunk partition — needed by the default
        re-execution path.
    k:
        Speculation width of the posted rows.
    mode:
        ``"sequential"`` — scalar front probes only, full per-chunk truth;
        ``"parallel"`` — additionally compose contiguous executed runs
        ahead of the fronts (one probe resolves a whole run; per-chunk
        truth inside a skipped run is not recovered).
    check:
        Runtime-check implementation for front probes (``"auto"``,
        ``"nested"``, ``"hash"`` — same accounting as the merges).
    stats:
        :class:`repro.core.types.ExecStats` to count events into (None for
        uncounted resolution).
    replay:
        ``(chunk, state) -> end_state`` used on a provable miss — the one
        replay hook of :mod:`repro.core.replay`. Defaults to
        :func:`repro.fsm.run.run_segment` over the chunk's slice; native
        callers pass their compiled stepper.
    seeds:
        Optional ``{chunk: known_incoming_state}`` map pinning *exact*
        incoming states at arbitrary chunks. Each seed opens an
        independent resolution front at construction time — the batch
        pass (:func:`repro.core.multipattern.run_lane_batch`) uses one
        seed per coalesced request so many jobs
        resolve on one scoreboard without composing across requests:
        resolution never propagates *into* a seeded chunk (its incoming
        state is already known), so a request tail's outgoing state never
        leaks into the next request's head. Seeded chunks are not
        speculative boundaries and are excluded from success-rate
        accounting. A seed at chunk 0 overrides ``dfa.start``.
    """

    def __init__(
        self,
        dfa: DFA,
        inputs: np.ndarray,
        plan: ChunkPlan,
        k: int,
        *,
        mode: str = "sequential",
        check: str = "auto",
        stats: ExecStats | None = None,
        replay: Replay | None = None,
        seeds: dict[int, int] | None = None,
    ) -> None:
        if mode not in ("sequential", "parallel"):
            raise ValueError(f"mode must be 'sequential' or 'parallel', got {mode!r}")
        n = plan.num_chunks
        self.dfa = dfa
        self.inputs = inputs
        self.plan = plan
        self.n = n
        self.k = int(k)
        self.mode = mode
        self._impl = select_check(self.k, check)
        self.stats = stats
        self._replay = default_replay(dfa, inputs, plan, replay)

        self.spec = np.zeros((n, k), dtype=np.int32)
        self.end = np.zeros((n, k), dtype=np.int32)
        self.valid = np.zeros((n, k), dtype=bool)
        self.posted = np.zeros(n, dtype=bool)
        self.converged = np.zeros(n, dtype=bool)
        self.stage = np.full(n, STAGE_SPECULATED, dtype=np.uint8)
        self.in_state = np.full(n, -1, dtype=np.int32)
        self.out_state = np.full(n, -1, dtype=np.int32)
        if n:
            self.in_state[0] = dfa.start
        self._seeds: dict[int, int] = {}
        if seeds:
            for c, s in seeds.items():
                if not 0 <= c < n:
                    raise ValueError(f"seed chunk {c} out of range [0, {n})")
                if not 0 <= s < dfa.num_states:
                    raise ValueError(
                        f"seed state {s} out of range [0, {dfa.num_states})"
                    )
                self._seeds[int(c)] = int(s)
                self.in_state[c] = int(s)
        self._retired = 0

        # Parallel-mode composed runs: lo -> [hi, end_row, valid_row]; the
        # run's speculation row is self.spec[lo]. A run only ever contains
        # posted, non-converged chunks whose incoming state is unknown.
        self._seg_by_lo: dict[int, list] = {}
        self._seg_by_hi: dict[int, int] = {}

        # Event clock for the eager-reexec ordering proof: reexec_log holds
        # (event_index, chunk, posts_seen_at_that_moment) — a re-execution
        # with posts_seen < n provably fired before the merge could finish.
        self._clock = 0
        self.posts_seen = 0
        self.reexec_log: list[tuple[int, int, int]] = []
        self._obs = {
            "sched.posted": 0,
            "sched.retired_converged": 0,
            "sched.reexec_early": 0,
            "sched.reexec_early_items": 0,
            "sched.runs_composed": 0,
            "sched.segment_skips": 0,
        }
        self._truth_complete = True

    # ------------------------------------------------------------------ #
    # posting
    # ------------------------------------------------------------------ #

    @property
    def done(self) -> bool:
        """True once every chunk has retired."""
        return self._retired == self.n

    def post(
        self,
        c: int,
        spec_row: np.ndarray,
        end_row: np.ndarray,
        *,
        converged: bool = False,
        valid_row: np.ndarray | None = None,
    ) -> None:
        """Record chunk ``c``'s executed map and resolve as far as possible.

        Safe in any arrival order; posting a chunk twice is an error.
        ``converged=True`` retires the chunk
        immediately (its outgoing state is ``end_row[0]`` for *any*
        achievable incoming state) and opens a secondary front at ``c+1``.
        """
        if not 0 <= c < self.n:
            raise ValueError(f"chunk {c} out of range [0, {self.n})")
        if self.posted[c]:
            raise ValueError(f"chunk {c} posted twice")
        self._clock += 1
        self.posts_seen += 1
        self._obs["sched.posted"] += 1
        self.spec[c] = spec_row
        self.end[c] = end_row
        self.valid[c] = True if valid_row is None else valid_row
        self.posted[c] = True
        self.converged[c] = converged
        self.stage[c] = STAGE_EXECUTED
        if converged:
            # Constant map over achievable incoming states: the outgoing
            # state is known now, whoever feeds this chunk. Retire it and
            # light a secondary front at its successor.
            self.out_state[c] = self.end[c, 0]
            count_skipped(1, self.stats)
            if self.stats is not None and c > 0 and c not in self._seeds:
                self.stats.success_total += 1
                self.stats.success_hits += 1
            self._retire(c, STAGE_RETIRED)
            self._obs["sched.retired_converged"] += 1
            if self.in_state[c] >= 0:
                self._advance(c)  # front was parked here; sweep through
            elif c + 1 < self.n:
                if self.in_state[c + 1] < 0:
                    self.in_state[c + 1] = self.out_state[c]
                self._advance(c + 1)
            return
        if self.in_state[c] >= 0:
            self._advance(c)
        elif self.mode == "parallel":
            self._join_runs(c)

    # ------------------------------------------------------------------ #
    # resolution machinery
    # ------------------------------------------------------------------ #

    def _retire(self, c: int, stage: int) -> None:
        if self.stage[c] != STAGE_RETIRED:
            self.stage[c] = stage
            if stage == STAGE_RETIRED:
                self._retired += 1

    def _advance(self, c: int) -> None:
        """Propagate known incoming states rightward from chunk ``c``."""
        n = self.n
        while c < n:
            s = int(self.in_state[c])
            if s < 0:
                return
            if self.out_state[c] >= 0:
                # Already resolved (converged retire or a secondary front
                # got here first) — chain the known outgoing state through.
                self._retire(c, STAGE_RETIRED)
                nxt = int(self.out_state[c])
                c += 1
                if c < n and self.in_state[c] < 0:
                    self.in_state[c] = nxt
                continue
            if not self.posted[c]:
                return
            if self.mode == "parallel" and c in self._seg_by_lo:
                c = self._consume_run(c, s)
                continue
            self._resolve_one(c, s)
            nxt = int(self.out_state[c])
            c += 1
            if c < n and self.in_state[c] < 0:
                self.in_state[c] = nxt

    def _probe(self, spec_row: np.ndarray, valid_row: np.ndarray, s: int) -> int:
        """Semi-join of one true state against one map row (counted)."""
        hits = np.flatnonzero((spec_row == s) & valid_row)
        found = hits.size > 0
        idx = int(hits[0]) if found else 0
        if self.stats is not None:
            mi = np.array([[idx]])
            fo = np.array([[found]])
            vl = np.array([[True]])
            if self._impl == "nested":
                count_nested(mi, fo, vl, self.k, self.stats)
            else:
                count_hash(
                    np.array([[s]]), vl, spec_row[None, :], valid_row[None, :],
                    mi, fo, self.stats,
                )
        return idx if found else -1

    def _resolve_one(self, c: int, s: int) -> None:
        """Resolve a single posted chunk whose incoming state just arrived."""
        idx = self._probe(self.spec[c], self.valid[c], s)
        if self.stats is not None and c > 0 and c not in self._seeds:
            self.stats.success_total += 1
            if idx >= 0:
                self.stats.success_hits += 1
        if idx >= 0:
            self.out_state[c] = self.end[c, idx]
            self.stage[c] = STAGE_MERGED
        else:
            self.out_state[c] = self._reexecute(c, s)
        self._retire(c, STAGE_RETIRED)

    def _reexecute(self, c: int, s: int) -> int:
        """Provable speculation miss: re-execute chunk ``c`` from ``s`` now.

        Fires the moment the miss is provable — ``self.posts_seen`` chunks
        have executed at this point; when that is less than ``n``, the
        re-execution demonstrably started before the merge could complete.
        """
        self._clock += 1
        self.reexec_log.append((self._clock, c, self.posts_seen))
        self._obs["sched.reexec_early"] += 1
        size = int(self.plan.lengths[c])
        self._obs["sched.reexec_early_items"] += size
        if self.stats is not None:
            self.stats.reexec_chunks_early += 1
            self.stats.reexec_items_early += size
        return int(self._replay(c, s))

    # ------------------------------------------------------------------ #
    # parallel-mode run composition
    # ------------------------------------------------------------------ #

    def _join_runs(self, c: int) -> None:
        """Fold chunk ``c`` into the contiguous executed run around it."""
        lo, hi = c, c + 1
        end_row = self.end[c].copy()
        valid_row = self.valid[c].copy()
        left_lo = self._seg_by_hi.pop(c, None)
        if left_lo is not None:
            _, lend, lvalid = self._seg_by_lo.pop(left_lo)
            end_row, valid_row = self._compose(lend, lvalid, c, end_row, valid_row)
            lo = left_lo
        right = self._seg_by_lo.pop(hi, None)
        if right is not None:
            rhi, rend, rvalid = right
            self._seg_by_hi.pop(rhi, None)
            end_row, valid_row = self._compose(end_row, valid_row, hi, rend, rvalid)
            hi = rhi
        self._seg_by_lo[lo] = [hi, end_row, valid_row]
        self._seg_by_hi[hi] = lo

    def _compose(
        self,
        end_left: np.ndarray,
        valid_left: np.ndarray,
        right_lo: int,
        end_right: np.ndarray,
        valid_right: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One pairwise run composition (counted like a tree-merge pair)."""
        composed, found, mi = compose_maps(
            end_left[None, :], valid_left[None, :],
            self.spec[right_lo][None, :], end_right[None, :],
            valid_right[None, :],
        )
        if self.stats is not None:
            self.stats.merge_pair_ops += 1
            if self._impl == "nested":
                count_nested(mi, found, valid_left[None, :], self.k, self.stats)
            else:
                count_hash(
                    end_left[None, :], valid_left[None, :],
                    self.spec[right_lo][None, :], valid_right[None, :],
                    mi, found, self.stats,
                )
        self._obs["sched.runs_composed"] += 1
        return composed[0], found[0]

    def _consume_run(self, lo: int, s: int) -> int:
        """A front reached a composed run: resolve it with one probe.

        On a hit every chunk in the run retires at once (their internal
        boundaries provably all hit, but their individual incoming states
        stay unknown — truth recovery is the caller's business, as after a
        tree merge). On a miss the run is descended chunk by chunk, firing
        eager re-execution at the first real miss.
        """
        hi, end_row, valid_row = self._seg_by_lo.pop(lo)
        self._seg_by_hi.pop(hi, None)
        idx = self._probe(self.spec[lo], valid_row, s)
        if idx >= 0:
            if self.stats is not None:
                boundaries = (hi - lo) if lo > 0 else (hi - lo - 1)
                self.stats.success_total += boundaries
                self.stats.success_hits += boundaries
            for c in range(lo, hi):
                self._retire(c, STAGE_RETIRED)
            self.out_state[hi - 1] = end_row[idx]
            if hi - lo > 1:
                self._truth_complete = False
                self._obs["sched.segment_skips"] += 1
            if hi < self.n and self.in_state[hi] < 0:
                self.in_state[hi] = self.out_state[hi - 1]
            return hi
        # The composed entry missed or was invalidated: walk the run.
        cur = s
        for c in range(lo, hi):
            self.in_state[c] = cur
            self._resolve_one(c, cur)
            cur = int(self.out_state[c])
        if hi < self.n and self.in_state[hi] < 0:
            self.in_state[hi] = cur
        return hi

    # ------------------------------------------------------------------ #
    # completion
    # ------------------------------------------------------------------ #

    def resolve(self) -> tuple[int, np.ndarray | None]:
        """Finish resolution; return ``(final_state, true_starts_or_None)``.

        Every chunk must have been posted. ``true_starts`` is the exact
        per-chunk incoming state vector when the resolution recovered it
        for every chunk (always in sequential mode; in parallel mode only
        when no composed run was skipped over), else None — mirroring the
        sequential/parallel merge contract.
        """
        if not self.posted.all():
            missing = np.flatnonzero(~self.posted)
            raise RuntimeError(
                f"cannot resolve: {missing.size} chunks never posted "
                f"(first: {missing[:5].tolist()})"
            )
        if not self.done:  # pragma: no cover - defensive; posts resolve eagerly
            self._advance(0)
        obs = current_trace()
        if obs is not None:
            for name, val in self._obs.items():
                if val:
                    obs.count(name, val)
        final = int(self.out_state[self.n - 1]) if self.n else int(self.dfa.start)
        if self._truth_complete and bool((self.in_state >= 0).all()):
            return final, self.in_state.copy()
        return final, None


def run_chunks_active(
    dfa: DFA,
    inputs: np.ndarray,
    plan: ChunkPlan,
    spec: np.ndarray,
    board: ChunkScoreboard,
    *,
    stats: ExecStats | None = None,
) -> None:
    """Active-list local processing interleaved with scoreboard resolution.

    Advances all *unfinished* chunks one symbol per step — the per-step
    gather touches only the active rows, so total gathered elements are
    ``sum(lengths) * k`` instead of the ``n * max_len * k`` a divergent
    lock-step barrier pays on a skewed plan
    (:func:`repro.core.local.process_chunks_ragged`). Each chunk is posted
    to ``board`` the step it completes, so short chunks merge — and their
    provable misses re-execute — while straggler chunks are still running.
    """
    spec = np.asarray(spec, dtype=np.int32)
    if spec.ndim != 2 or spec.shape[0] != plan.num_chunks:
        raise ValueError(
            f"spec must have shape (num_chunks, k), got {spec.shape} for "
            f"{plan.num_chunks} chunks"
        )
    table = dfa.table
    starts = plan.starts
    lengths = plan.lengths
    idx = np.arange(plan.num_chunks)
    S = spec.copy()
    gathered = 0
    j = 0
    with trace_span("sched.active_exec", chunks=plan.num_chunks, k=spec.shape[1]):
        while idx.size:
            finished = lengths[idx] <= j
            if finished.any():
                for i in np.flatnonzero(finished):
                    c = int(idx[i])
                    board.post(c, spec[c], S[i])
                keep = ~finished
                idx = idx[keep]
                S = S[keep]
                if not idx.size:
                    break
            syms = inputs[starts[idx] + j]
            S = table[syms[:, None], S]
            gathered += S.size
            j += 1
    if stats is not None:
        stats.local_steps += plan.max_len
        stats.local_transitions += int(lengths.sum()) * spec.shape[1]
        stats.local_input_reads += int(lengths.sum())
        stats.local_gathers += gathered

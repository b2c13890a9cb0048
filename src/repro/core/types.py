"""Core data types: chunk-result algebra and execution statistics.

A chunk processed under spec-k yields a *partial map* from its ``k``
speculated starting states to ending states. Merging two adjacent chunks is
function composition restricted to matching states — the semi-join of
Section 3.2 — with a validity bit per entry carrying the paper's *delayed
re-execution* marking (Section 3.3).

:class:`ExecStats` is the bridge between the functional simulation and the
GPU cost model: every algorithmic event (transition, comparison, hash probe,
re-executed item, merge step) is counted here during a real run, and
:mod:`repro.gpu.cost` prices those counts in modeled V100 time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = ["ChunkResults", "SegmentMaps", "ExecStats"]


@dataclass
class ChunkResults:
    """Per-chunk speculation maps after local processing.

    ``spec[c, j] -> end[c, j]`` for chunk ``c``; entries are valid unless a
    delayed merge marked them invalid. Speculated states within a chunk are
    distinct by construction (the look-back planner deduplicates).

    ``converged[c]`` (optional) flags chunks whose map is a *total
    constant* over achievable incoming states: the speculation row covers
    the chunk's look-back image and every lane ended in the same state
    (:func:`repro.core.convergence.converged_chunks`). The merges
    short-circuit the semi-join against such chunks — any achievable
    incoming state is a guaranteed hit with a known answer.
    """

    spec: np.ndarray  # (num_chunks, k) int32
    end: np.ndarray  # (num_chunks, k) int32
    valid: np.ndarray  # (num_chunks, k) bool
    converged: np.ndarray | None = None  # (num_chunks,) bool

    def __post_init__(self) -> None:
        if not (self.spec.shape == self.end.shape == self.valid.shape):
            raise ValueError(
                f"shape mismatch: spec {self.spec.shape}, end {self.end.shape}, "
                f"valid {self.valid.shape}"
            )
        if self.spec.ndim != 2:
            raise ValueError(f"chunk results must be 2-D, got {self.spec.shape}")
        if self.converged is not None and self.converged.shape != (
            self.spec.shape[0],
        ):
            raise ValueError(
                f"converged must have shape ({self.spec.shape[0]},), got "
                f"{self.converged.shape}"
            )

    @property
    def num_chunks(self) -> int:
        """Number of chunks (one per simulated thread)."""
        return self.spec.shape[0]

    @property
    def k(self) -> int:
        """Number of speculated states per chunk."""
        return self.spec.shape[1]

    def lookup(self, c: int, state: int) -> int | None:
        """Ending state for ``state`` in chunk ``c``, or None if not covered."""
        row = self.spec[c]
        hits = np.flatnonzero((row == state) & self.valid[c])
        if hits.size == 0:
            return None
        return int(self.end[c, hits[0]])


@dataclass
class SegmentMaps:
    """Speculation maps of contiguous chunk *segments* during a tree merge.

    Entry ``i`` covers chunks ``chunk_lo[i] .. chunk_hi[i]`` (half-open) and
    maps ``spec[i, j] -> end[i, j]`` where valid. Merging entries ``2i`` and
    ``2i+1`` composes the maps; the result inherits the left side's
    speculated states, exactly as in Figure 4b of the paper.
    """

    spec: np.ndarray  # (m, k)
    end: np.ndarray  # (m, k)
    valid: np.ndarray  # (m, k) bool
    chunk_lo: np.ndarray  # (m,) int64
    chunk_hi: np.ndarray  # (m,) int64
    converged: np.ndarray | None = None  # (m,) bool

    @property
    def num_segments(self) -> int:
        """Number of segments at this merge level."""
        return self.spec.shape[0]

    @property
    def k(self) -> int:
        """Speculation width."""
        return self.spec.shape[1]

    def converged_mask(self) -> np.ndarray:
        """The convergence flags, defaulting to all-False when absent."""
        if self.converged is None:
            return np.zeros(self.num_segments, dtype=bool)
        return self.converged

    @classmethod
    def from_chunks(cls, results: ChunkResults) -> "SegmentMaps":
        """Level-0 segments: one per chunk."""
        n = results.num_chunks
        return cls(
            spec=results.spec.copy(),
            end=results.end.copy(),
            valid=results.valid.copy(),
            chunk_lo=np.arange(n, dtype=np.int64),
            chunk_hi=np.arange(1, n + 1, dtype=np.int64),
            converged=(
                None if results.converged is None else results.converged.copy()
            ),
        )


@dataclass
class ExecStats:
    """Event counters from one speculative execution.

    All counters are totals over the whole run unless suffixed otherwise.
    ``project(factor)`` scales the input-size-proportional counters to model
    a larger input with identical per-chunk-boundary behaviour (speculation
    success depends on the FSM and look-back, not on chunk length), which is
    how bench runs at 10^6 items are priced at the paper's 2^30 scale.
    """

    # --- configuration echoes (not scaled) -----------------------------
    num_items: int = 0
    num_chunks: int = 0
    k: int = 0
    num_states: int = 0
    num_inputs: int = 0

    # --- local processing (scale with input size) -----------------------
    local_steps: int = 0  # lock-step iterations (= max chunk length)
    local_transitions: int = 0  # table lookups in local processing
    local_input_reads: int = 0  # one per (chunk, step)

    # --- convergence layer (repro.core.convergence) -----------------------
    # ``local_transitions`` above keeps lock-step *modeled* semantics
    # (symbols consumed x speculation width) so GPU pricing is
    # collapse-independent; ``local_gathers`` counts the *physical*
    # elements actually gathered, which lane collapse shrinks.
    local_gathers: int = 0  # physical gathered elements in local processing
    collapse_scans: int = 0  # duplicate scans performed
    lanes_collapsed: int = 0  # lane slots eliminated by collapse scans
    chunks_converged: int = 0  # chunks with a constant, covered spec->end map
    checks_skipped: int = 0  # merge semi-join probes skipped via convergence

    # --- speculation ------------------------------------------------------
    lookback_symbols: int = 0  # symbols consumed by look-back
    success_hits: int = 0  # chunks (excl. 0) whose true state was speculated
    success_total: int = 0

    # --- runtime checks ----------------------------------------------------
    check_comparisons: int = 0  # nested-loop equality tests
    hash_inserts: int = 0  # hash build operations
    hash_probes: int = 0  # hash probe operations
    hash_probe_steps: int = 0  # bucket entries scanned

    # --- merge structure ----------------------------------------------------
    seq_merge_steps: int = 0  # sequential merge walk length
    merge_pair_ops: int = 0  # pairwise segment merges (tree)
    merge_levels_warp: int = 0
    merge_levels_block: int = 0
    merge_global_steps: int = 0  # sequential steps across block results

    # --- re-execution ---------------------------------------------------------
    reexec_chunks_seq: int = 0  # necessary re-executions in sequential merge
    reexec_items_seq: int = 0
    reexec_chunks_eager: int = 0  # tree-merge eager re-executions (incl. unnecessary)
    reexec_items_eager: int = 0
    reexec_wall_items: int = 0  # critical-path items: sum over levels of the
    # largest single eager resolution at that level
    reexec_max_chain: int = 0  # longest dependent chain of re-executions
    fixup_chunks: int = 0  # necessary re-executions in delayed fix-up
    fixup_items: int = 0
    fixup_probes: int = 0  # map lookups during fix-up descent
    fixup_chain: int = 0  # longest run of consecutive chunks re-executed

    # --- table cache (filled by repro.cache when enabled) ---------------------
    cache_hits: int = 0
    cache_misses: int = 0
    cache_rows_resident: int = 0

    # --- CPU scale-out pool (filled by repro.core.mp_executor) -----------------
    pool_calls: int = 0  # dispatches through a ScaleoutPool
    pool_task_bytes: int = 0  # bytes pickled per dispatch (names + boundary rows)
    pool_shm_bytes: int = 0  # shared segments resident (gauge, not summed)

    # --- derived ----------------------------------------------------------- #
    @property
    def success_rate(self) -> float:
        """Fraction of chunk boundaries whose true state was speculated."""
        if self.success_total == 0:
            return 1.0
        return self.success_hits / self.success_total

    @property
    def total_reexec_items(self) -> int:
        """All re-executed items regardless of strategy."""
        return (
            self.reexec_items_seq + self.reexec_items_eager + self.fixup_items
        )

    @property
    def reexec_items_early(self) -> int:
        """Always 0: no resolver re-executes ahead of the merge any more.

        Kept read-only because ``perfbench/inproc_apps.py`` still adds it
        into its re-executed item count.
        """
        return 0

    @property
    def cache_hit_rate(self) -> float:
        """Transition-table cache hit rate (1.0 when cache disabled/unused)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 1.0

    def merged_with(self, other: "ExecStats") -> "ExecStats":
        """Sum all counters (config echoes keep ``self``'s values)."""
        out = replace(self)
        for f in fields(ExecStats):
            if f.name in (
                "num_items",
                "num_chunks",
                "k",
                "num_states",
                "num_inputs",
                "pool_shm_bytes",
            ):
                continue
            setattr(out, f.name, getattr(self, f.name) + getattr(other, f.name))
        return out

    def project(self, target_items: int) -> "ExecStats":
        """Scale input-size-proportional counters to ``target_items``.

        Chunk count, speculation width, merge structure, and *rates* are
        preserved; per-item work (transitions, re-executed items, input
        reads, local steps) scales linearly. This models running the same
        thread configuration on a longer input, where each chunk simply
        grows by the same factor.
        """
        if self.num_items <= 0:
            raise ValueError("cannot project stats with num_items == 0")
        if target_items < 0:
            raise ValueError(f"target_items must be >= 0, got {target_items}")
        factor = target_items / self.num_items
        scaled = replace(
            self,
            num_items=target_items,
            local_steps=int(round(self.local_steps * factor)),
            local_transitions=int(round(self.local_transitions * factor)),
            local_input_reads=int(round(self.local_input_reads * factor)),
            local_gathers=int(round(self.local_gathers * factor)),
            reexec_items_seq=int(round(self.reexec_items_seq * factor)),
            reexec_items_eager=int(round(self.reexec_items_eager * factor)),
            reexec_wall_items=int(round(self.reexec_wall_items * factor)),
            fixup_items=int(round(self.fixup_items * factor)),
            cache_hits=int(round(self.cache_hits * factor)),
            cache_misses=int(round(self.cache_misses * factor)),
        )
        return scaled

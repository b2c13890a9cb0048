"""Chunk partitioning and the input layout transformation.

The engine assigns one chunk per (simulated) GPU thread. ``plan_chunks``
splits ``num_items`` into ``num_chunks`` nearly equal pieces — the first
``num_items % num_chunks`` chunks are one item longer, so lock-step
processing needs exactly two phases (a common prefix of ``min_len`` steps
plus one ragged step for the longer chunks).

``transform_layout`` is the paper's Section 4.1 optimization: re-lay the
input so that at every lock-step iteration the symbols consumed by all
threads are *contiguous* (one coalesced 128-byte transaction per warp on
real hardware; one contiguous row read instead of a strided gather in the
NumPy simulation — a real, measurable cache effect here too).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChunkPlan",
    "plan_chunks",
    "plan_from_lengths",
    "transform_layout",
    "TransformedInput",
]


@dataclass(frozen=True)
class ChunkPlan:
    """Partition of ``num_items`` into ``num_chunks`` contiguous chunks."""

    num_items: int
    num_chunks: int
    starts: np.ndarray  # (num_chunks,) int64 — chunk start offsets
    lengths: np.ndarray  # (num_chunks,) int64

    @property
    def min_len(self) -> int:
        """Length of the shortest chunk (the lock-step prefix)."""
        return int(self.lengths.min()) if self.num_chunks else 0

    @property
    def max_len(self) -> int:
        """Length of the longest chunk."""
        return int(self.lengths.max()) if self.num_chunks else 0

    @property
    def num_long(self) -> int:
        """How many chunks carry one extra (ragged) item."""
        return int(np.count_nonzero(self.lengths > self.min_len))

    @property
    def boundaries(self) -> np.ndarray:
        """Offsets of chunk starts plus the final end (length ``n+1``)."""
        return np.concatenate([self.starts, [self.num_items]])

    def chunk_slice(self, c: int) -> slice:
        """Python slice covering chunk ``c``."""
        return slice(int(self.starts[c]), int(self.starts[c] + self.lengths[c]))


def plan_chunks(num_items: int, num_chunks: int) -> ChunkPlan:
    """Split ``num_items`` into ``num_chunks`` nearly equal contiguous chunks.

    Sizes differ by at most one; longer chunks come first. ``num_chunks``
    may exceed ``num_items`` — surplus chunks are empty (length 0), which
    the engine treats as identity maps.
    """
    if num_items < 0:
        raise ValueError(f"num_items must be >= 0, got {num_items}")
    if num_chunks < 1:
        raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
    base = num_items // num_chunks
    extra = num_items % num_chunks
    lengths = np.full(num_chunks, base, dtype=np.int64)
    lengths[:extra] += 1
    starts = np.zeros(num_chunks, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return ChunkPlan(
        num_items=num_items, num_chunks=num_chunks, starts=starts, lengths=lengths
    )


def plan_from_lengths(lengths: np.ndarray) -> ChunkPlan:
    """Build a :class:`ChunkPlan` from explicit per-chunk lengths.

    Chunks are laid out contiguously in the given order. Unlike
    :func:`plan_chunks`, the lengths may be arbitrarily skewed: such plans
    model straggler chunks, where one long chunk sets the step count of a
    lock-step pass, and a request batch of mixed sizes
    (:func:`repro.core.multipattern.coalesce`) is one. Lock-step helpers
    that assume near-equal chunks (:func:`transform_layout`,
    :func:`repro.core.local.process_chunks`) reject skewed plans; the
    engine steps them with :func:`repro.core.local.process_chunks_ragged`
    (live chunks only) or the compiled per-chunk loop instead.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0:
        raise ValueError(f"lengths must be a non-empty 1-D array, got {lengths.shape}")
    if (lengths < 0).any():
        raise ValueError("chunk lengths must be >= 0")
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return ChunkPlan(
        num_items=int(lengths.sum()),
        num_chunks=int(lengths.size),
        starts=starts,
        lengths=lengths,
    )


@dataclass(frozen=True)
class TransformedInput:
    """Interleaved input layout: step-major instead of chunk-major.

    ``main[j, c]`` is the ``j``-th symbol of chunk ``c`` for the lock-step
    prefix (``min_len`` rows). ``tail`` holds the one extra symbol of each
    longer chunk (``num_long`` entries, chunk-id order).
    """

    main: np.ndarray  # (min_len, num_chunks) contiguous
    tail: np.ndarray  # (num_long,)

    @property
    def nbytes(self) -> int:
        """Footprint of the transformed copy."""
        return int(self.main.nbytes + self.tail.nbytes)


def transform_layout(inputs: np.ndarray, plan: ChunkPlan) -> TransformedInput:
    """Produce the coalescing-friendly interleaved copy of ``inputs``.

    This is an offline, amortizable transformation (the paper runs many
    FSMs over the same transformed input, e.g. a NIDS checking many rules
    per packet). The gather below is the transformation cost the paper's
    Figure 14 amortizes away.
    """
    inputs = np.asarray(inputs)
    if inputs.ndim != 1:
        raise ValueError(f"inputs must be 1-D, got shape {inputs.shape}")
    if inputs.size != plan.num_items:
        raise ValueError(
            f"inputs length {inputs.size} != plan.num_items {plan.num_items}"
        )
    if plan.max_len - plan.min_len > 1:
        raise ValueError(
            "transform_layout requires a near-equal plan (lengths differ by "
            f"<= 1), got min={plan.min_len} max={plan.max_len}; skewed plans "
            "run in the natural layout"
        )
    q = plan.min_len
    idx = plan.starts[None, :] + np.arange(q, dtype=np.int64)[:, None]
    main = np.ascontiguousarray(inputs[idx]) if q else np.zeros(
        (0, plan.num_chunks), dtype=inputs.dtype
    )
    long_mask = plan.lengths > q
    tail = inputs[(plan.starts + q)[long_mask]] if long_mask.any() else np.zeros(
        0, dtype=inputs.dtype
    )
    return TransformedInput(main=main, tail=tail)

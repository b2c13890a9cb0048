"""Streaming execution: one machine over an unbounded input, block by block.

NIDS-style deployments process packets/blocks as they arrive. A
:class:`StreamingExecutor` carries the exact machine state across blocks.
Every block starts from that carried state — a known start, like the
paper's chunk 0 — so at defaults a feed speculates nothing: it is one pass
of the machine's one-lane compiled kernel from the carried state
(:func:`repro.core.engine.one_lane_pass`, the pass of the engine's serial
rung), with match positions from the same kernel's accept pass. The
kernel (:func:`repro.core.native.load_serial_kernel`) loads once per
executor and does not depend on the start state, so a stream compiles at
most once; with no usable compiler the pass is the
:func:`repro.fsm.run.run_reference` loop.

Passing any of ``num_blocks``, ``threads_per_block`` or ``device`` runs
every block through the modeled-GPU plan of
:func:`repro.core.engine.run_speculative` instead (20 blocks of 256
threads on the modeled V100 unless given), with full speculation and
event counting, so a whole session can be priced with the cost model.

The executor accumulates :class:`repro.core.types.ExecStats` across
blocks and can collect match positions (offset to the global stream).
:meth:`StreamingExecutor.feed` is **atomic**: the carried state, the
consumption counters, and the collected matches are only committed after
the block fully executes, so a feed that raises (bad input) leaves the
executor exactly at its pre-feed :class:`FeedCursor` — re-feed the same
block, nothing was consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.convergence import CollapseConfig
from repro.core.engine import one_lane_pass, run_speculative
from repro.core.plan import resolve_plan
from repro.core.types import ExecStats
from repro.fsm.dfa import DFA
from repro.gpu.device import DeviceSpec, TESLA_V100
from repro.obs.trace import trace_span
from repro.util.validation import check_symbols

if TYPE_CHECKING:
    from repro.core.native import NativeKernel

__all__ = ["FeedCursor", "StreamingExecutor"]

# The modeled grid a stream runs on when only part of it is given.
STREAM_NUM_BLOCKS = 20
STREAM_THREADS_PER_BLOCK = 256


@dataclass(frozen=True)
class FeedCursor:
    """An exact resume point in the stream.

    Captures the carried machine state, the consumption counters, and the
    length of the collected-match log — the values that define *where* the
    executor is in the input stream. Take one with
    :meth:`StreamingExecutor.checkpoint` before risky work and rewind with
    :meth:`StreamingExecutor.restore`; because
    :meth:`StreamingExecutor.feed` is atomic, a failed feed leaves the
    executor already at its pre-feed cursor without explicit bookkeeping.

    ``matches_len`` lets :meth:`StreamingExecutor.restore` truncate match
    positions recorded by feeds that are being rewound past — without it,
    re-fed blocks would report their matches twice.
    """

    state: int
    items_consumed: int
    blocks_consumed: int
    matches_len: int = 0


@dataclass
class StreamingExecutor:
    """Process an input stream block by block from the carried state.

    At defaults each :meth:`feed` is one serial pass from :attr:`state`
    (see the module docstring); ``kernel`` picks the compiled kernel's
    stepping (:mod:`repro.core.kernels`), and ``k``, ``merge``,
    ``lookback`` and ``collapse`` are unused. Passing ``num_blocks``,
    ``threads_per_block`` or ``device`` selects the modeled-GPU plan,
    where every parameter means what it means for
    :func:`repro.core.engine.run_speculative` and per-block hit rates
    accumulate. Options are validated once, at construction.

    Three stats surfaces, all :class:`repro.core.types.ExecStats`:

    * :attr:`stats` — the current session (cleared by :meth:`reset`);
    * :attr:`last_feed_stats` — the most recent :meth:`feed` in isolation;
    * :attr:`lifetime_stats` — every block ever fed, surviving resets.
    """

    dfa: DFA
    k: int | None = 4
    num_blocks: int | None = None
    threads_per_block: int | None = None
    merge: str = "parallel"
    lookback: int = 8
    device: DeviceSpec | None = None
    collect_matches: bool = False
    kernel: str = "auto"
    collapse: str | CollapseConfig | None = "auto"

    state: int = field(init=False)
    items_consumed: int = field(init=False, default=0)
    blocks_consumed: int = field(init=False, default=0)
    stats: ExecStats = field(init=False)
    _gpu: bool = field(init=False, repr=False)
    _collect: tuple = field(init=False, repr=False)
    _kernel: NativeKernel | None = field(init=False, default=None, repr=False)
    _matches: list = field(init=False, default_factory=list)
    _lifetime_base: ExecStats = field(init=False, repr=False)
    _lifetime_items: int = field(init=False, default=0)
    _lifetime_blocks: int = field(init=False, default=0)
    _last_feed_stats: ExecStats | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self._gpu = any(
            v is not None
            for v in (self.num_blocks, self.threads_per_block, self.device)
        )
        if self._gpu:
            if self.num_blocks is None:
                self.num_blocks = STREAM_NUM_BLOCKS
            if self.threads_per_block is None:
                self.threads_per_block = STREAM_THREADS_PER_BLOCK
            if self.device is None:
                self.device = TESLA_V100
        self._collect = ("match_positions",) if self.collect_matches else ()
        # The engine's validator, on an empty block: bad options raise here,
        # on either plan, rather than at the first feed (or never).
        resolve_plan(
            self.dfa, np.zeros(0, dtype=np.int32), k=self.k,
            num_blocks=self.num_blocks,
            threads_per_block=self.threads_per_block, merge=self.merge,
            device=self.device, collect=self._collect, kernel=self.kernel,
            collapse=self.collapse,
        )
        if not self._gpu:
            from repro.core.native import load_serial_kernel

            self._kernel = load_serial_kernel(self.dfa, kernel=self.kernel)
        self.state = self.dfa.start
        self.stats = self._fresh_stats()
        self._lifetime_base = self._fresh_stats()

    def _fresh_stats(self) -> ExecStats:
        """A zeroed per-session stats object carrying the config echoes."""
        if not self._gpu:
            num_chunks = k = 1
        else:
            num_chunks = self.num_blocks * self.threads_per_block
            k = self.k if isinstance(self.k, int) else self.dfa.num_states
        return ExecStats(
            num_chunks=num_chunks,
            k=k,
            num_states=self.dfa.num_states,
            num_inputs=self.dfa.num_inputs,
        )

    def checkpoint(self) -> FeedCursor:
        """Snapshot the stream position (carried state + counters)."""
        return FeedCursor(
            state=self.state,
            items_consumed=self.items_consumed,
            blocks_consumed=self.blocks_consumed,
            matches_len=len(self._matches),
        )

    def restore(self, cursor: FeedCursor) -> None:
        """Rewind to a :meth:`checkpoint`; the next feed resumes from it.

        The stream *position* is rewound, and match positions collected by
        feeds past the cursor are dropped — re-fed blocks would otherwise
        report their matches twice. Session stats are not rewound — they
        count work performed, including feeds later rewound past — so
        pricing stays honest about what actually executed.
        """
        self.state = int(cursor.state)
        self.items_consumed = int(cursor.items_consumed)
        self.blocks_consumed = int(cursor.blocks_consumed)
        del self._matches[int(cursor.matches_len):]

    def feed(self, block: np.ndarray) -> int:
        """Consume one block; returns the machine state after it.

        The block's own event counts are kept as :attr:`last_feed_stats`
        and folded into both :attr:`stats` (session) and
        :attr:`lifetime_stats` (run-level, reset-proof).

        Atomic: every executor field is committed only after the block
        fully executes, so a feed that raises leaves the carried state,
        counters, stats, and matches untouched — re-feed the same block.
        """
        block = np.asarray(block)
        size = int(block.size)
        if size == 0:
            return self.state
        if block.ndim != 1:
            raise ValueError(f"block must be 1-D, got shape {block.shape}")
        block = np.ascontiguousarray(block)
        check_symbols(block, self.dfa.num_inputs)
        with trace_span(
            "stream.feed", block=self.blocks_consumed, items=size,
            plan="gpu" if self._gpu else "cpu",
        ):
            if self._gpu:
                sim = run_speculative(
                    self.dfa.with_start(self.state),
                    block,
                    k=self.k,
                    num_blocks=self.num_blocks,
                    threads_per_block=self.threads_per_block,
                    merge=self.merge,
                    lookback=self.lookback,
                    device=self.device,
                    collect=self._collect,
                    price=False,
                    kernel=self.kernel,
                    collapse=self.collapse,
                )
                final_state, feed_stats = sim.final_state, sim.stats
                matches = sim.match_positions
            else:
                final_state, feed_stats, _, matches, _ = one_lane_pass(
                    self.dfa, block, self.state, self._kernel, self._collect
                )
        # Commit point: nothing above mutated the executor.
        if matches is not None:
            self._matches.append(matches + self.items_consumed)
        self._last_feed_stats = feed_stats
        self.stats = self.stats.merged_with(feed_stats)
        self.stats.num_items += size
        self.items_consumed += size
        self.blocks_consumed += 1
        self.state = final_state
        return self.state

    @property
    def last_feed_stats(self) -> ExecStats | None:
        """Event counts of the most recent :meth:`feed` call in isolation.

        None before the first non-empty feed. Unlike :attr:`stats` this is
        not cumulative — it is the per-block carry the cost model needs to
        price a single block.
        """
        return self._last_feed_stats

    @property
    def lifetime_stats(self) -> ExecStats:
        """Accumulated stats over every block ever fed, surviving resets.

        :meth:`reset` clears the per-session :attr:`stats` but folds them
        in here first, so a long-lived executor (e.g. a NIDS session that
        resets per connection) can still be priced as one run.
        """
        combined = self._lifetime_base.merged_with(self.stats)
        combined.num_items += self.stats.num_items
        return combined

    @property
    def lifetime_items_consumed(self) -> int:
        """Items fed since construction (survives :meth:`reset`)."""
        return self._lifetime_items + self.items_consumed

    @property
    def lifetime_blocks_consumed(self) -> int:
        """Blocks fed since construction (survives :meth:`reset`)."""
        return self._lifetime_blocks + self.blocks_consumed

    @property
    def match_positions(self) -> np.ndarray:
        """All match-end positions seen so far (global stream offsets)."""
        if not self._matches:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(self._matches)

    @property
    def accepted(self) -> bool:
        """Whether the machine currently sits in an accepting state."""
        return bool(self.dfa.accepting[self.state])

    def reset(self) -> None:
        """Return to the initial state and clear the session's results.

        Session counters (:attr:`stats`, :attr:`items_consumed`,
        :attr:`blocks_consumed`, collected matches) are cleared, but the
        session's event counts are folded into :attr:`lifetime_stats`
        first — nothing is dropped.
        """
        self._lifetime_base = self.lifetime_stats
        self._lifetime_items += self.items_consumed
        self._lifetime_blocks += self.blocks_consumed
        self.state = self.dfa.start
        self.items_consumed = 0
        self.blocks_consumed = 0
        self._matches.clear()
        self.stats = self._fresh_stats()

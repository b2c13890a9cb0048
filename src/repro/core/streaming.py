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
:func:`repro.fsm.run.run_reference` loop. To price a session on the
modeled GPU, run each block through
``run_speculative(dfa.with_start(state), block, grid=Grid(...))``
instead (``examples/streaming_utf8_monitor.py`` does).

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

from repro.core.engine import one_lane_pass
from repro.core.kernels import KERNELS
from repro.core.types import ExecStats
from repro.fsm.dfa import DFA
from repro.obs.trace import trace_span
from repro.util.validation import check_in_set, check_symbols

if TYPE_CHECKING:
    from repro.core.native import NativeKernel

__all__ = ["FeedCursor", "StreamingExecutor"]


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

    Each :meth:`feed` is one serial pass from :attr:`state` (see the
    module docstring); ``kernel`` picks the compiled kernel's stepping
    (:mod:`repro.core.kernels`, validated at construction) and
    ``collect_matches`` records match positions.

    Three stats surfaces, all :class:`repro.core.types.ExecStats`:

    * :attr:`stats` — the current session (cleared by :meth:`reset`);
    * :attr:`last_feed_stats` — the most recent :meth:`feed` in isolation;
    * :attr:`lifetime_stats` — every block ever fed, surviving resets.
    """

    dfa: DFA
    collect_matches: bool = False
    kernel: str = "auto"

    state: int = field(init=False)
    items_consumed: int = field(init=False, default=0)
    blocks_consumed: int = field(init=False, default=0)
    stats: ExecStats = field(init=False)
    _collect: tuple = field(init=False, repr=False)
    _kernel: NativeKernel | None = field(init=False, default=None, repr=False)
    _matches: list = field(init=False, default_factory=list)
    _lifetime_base: ExecStats = field(init=False, repr=False)
    _lifetime_items: int = field(init=False, default=0)
    _lifetime_blocks: int = field(init=False, default=0)
    _last_feed_stats: ExecStats | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        check_in_set("kernel", self.kernel, ("auto",) + tuple(sorted(KERNELS)))
        self._collect = ("match_positions",) if self.collect_matches else ()
        from repro.core.native import load_serial_kernel

        self._kernel = load_serial_kernel(self.dfa, kernel=self.kernel)
        self.state = self.dfa.start
        self.stats = self._fresh_stats()
        self._lifetime_base = self._fresh_stats()

    def _fresh_stats(self) -> ExecStats:
        """A zeroed per-session stats object carrying the config echoes."""
        return ExecStats(
            num_chunks=1,
            k=1,
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
        with trace_span("stream.feed", block=self.blocks_consumed, items=size):
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

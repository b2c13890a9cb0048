"""Streaming execution: speculative processing of unbounded inputs.

NIDS-style deployments process packets/blocks as they arrive. A
:class:`StreamingExecutor` carries the exact machine state across blocks
and runs each block through the speculative engine — the block's chunk 0
starts from the carried state (never a guess), so results are exact and
block boundaries cost nothing.

Two backends:

* ``backend="simulate"`` (default) — the functional GPU simulation via
  :func:`repro.core.engine.run_speculative`, with full event counting and
  optional match-position collection;
* ``backend="pool"`` — real CPU scale-out through a persistent
  :class:`repro.core.mp_executor.ScaleoutPool`. The pool (worker processes
  and shared-memory segments) is created once and reused across ``feed``
  calls, so per-block dispatch cost is a few hundred pickled bytes; call
  :meth:`close` (or use the executor as a context manager) when done.

The executor accumulates :class:`repro.core.types.ExecStats` across blocks
so a whole session can be priced with the cost model, and can optionally
collect match positions (offset-adjusted to the global stream).

:meth:`StreamingExecutor.feed` is **atomic**: the carried state, the
consumption counters, and the collected matches are only committed after
the block fully executes, so a feed that raises (a closed pool, bad input)
leaves the executor exactly at its pre-feed :class:`FeedCursor` — re-feed
the same block, nothing was consumed. Pool-backend feeds that came back
from the degraded in-process fallback still commit (the state is correct);
they are counted in :attr:`StreamingExecutor.degraded_feeds` and flagged
on :attr:`StreamingExecutor.last_feed_degraded`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.convergence import CollapseConfig
from repro.core.engine import run_speculative
from repro.core.faultinject import FaultPlan
from repro.core.mp_executor import ScaleoutPool
from repro.core.resilience import DEFAULT_RESILIENCE, ResilienceConfig
from repro.core.types import ExecStats
from repro.fsm.dfa import DFA
from repro.gpu.device import DeviceSpec, TESLA_V100
from repro.obs.trace import trace_span

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
    """Process an input stream block by block, speculatively.

    Parameters mirror :func:`repro.core.engine.run_speculative`; the
    executor pins ``measure_success`` on so per-block hit rates accumulate.
    With ``backend="pool"``, ``pool_workers`` processes execute each block
    and ``num_blocks``/``threads_per_block``/``merge``/``device`` are
    ignored (they describe the simulated GPU, not the CPU pool);
    ``collect_matches`` works on both backends — the pool recovers match
    positions with one accept pass in the parent
    (:meth:`repro.core.mp_executor.ScaleoutPool.run` with
    ``collect_matches=True``).

    ``schedule`` picks how each block's chunk maps are combined on the
    simulated backend: ``"barrier"`` (the classic full-merge) or
    ``"ooo"`` (the chunk scoreboard, :mod:`repro.core.scoreboard`);
    results are bit-identical either way. The pool backend always runs
    its barrier merge, so it rejects ``"ooo"`` up front.

    ``kernel`` selects the local stepping kernel
    (:mod:`repro.core.kernels`); the default ``"auto"`` lets the cost
    model pick multi-symbol stepping per block — streaming is a real
    deployment surface, so wall clock (not modeled GPU fidelity) is the
    default objective. The pool backend resolves the kernel once at pool
    construction and reuses its stride tables for every block.
    ``collapse`` configures the convergence layer
    (:mod:`repro.core.convergence`) the same way — ``"auto"`` probes the
    machine once (per block for the simulated backend, on the first block
    for the pool) and collapses duplicate speculative lanes mid-chunk
    when the machine converges; results are bit-identical either way.

    Three stats surfaces, all :class:`repro.core.types.ExecStats`:

    * :attr:`stats` — the current session (cleared by :meth:`reset`);
    * :attr:`last_feed_stats` — the most recent :meth:`feed` in isolation;
    * :attr:`lifetime_stats` — every block ever fed, surviving resets.
    """

    dfa: DFA
    k: int | None = 4
    num_blocks: int = 20
    threads_per_block: int = 256
    merge: str = "parallel"
    lookback: int = 8
    device: DeviceSpec = TESLA_V100
    collect_matches: bool = False
    backend: str = "simulate"
    pool_workers: int = 4
    sub_chunks_per_worker: int = 64
    kernel: str = "auto"
    collapse: str | CollapseConfig | None = "auto"
    schedule: str = "barrier"
    resilience: ResilienceConfig | None = DEFAULT_RESILIENCE
    fault_plan: FaultPlan | None = None

    state: int = field(init=False)
    items_consumed: int = field(init=False, default=0)
    blocks_consumed: int = field(init=False, default=0)
    degraded_feeds: int = field(init=False, default=0)
    last_feed_degraded: bool = field(init=False, default=False)
    stats: ExecStats = field(init=False)
    _matches: list = field(init=False, default_factory=list)
    _pool: ScaleoutPool | None = field(init=False, default=None, repr=False)
    _lifetime_base: ExecStats = field(init=False, repr=False)
    _lifetime_items: int = field(init=False, default=0)
    _lifetime_blocks: int = field(init=False, default=0)
    _last_feed_stats: ExecStats | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.backend not in ("simulate", "pool"):
            raise ValueError(
                f"backend must be 'simulate' or 'pool', got {self.backend!r}"
            )
        if self.schedule not in ("barrier", "ooo"):
            raise ValueError(
                f"schedule must be 'barrier' or 'ooo', got {self.schedule!r}"
            )
        if self.backend == "pool" and self.schedule != "barrier":
            raise ValueError(
                "backend='pool' runs the barrier merge only; "
                f"got schedule={self.schedule!r}"
            )
        if self.backend == "pool":
            self._pool = ScaleoutPool(
                self.dfa,
                num_workers=self.pool_workers,
                k=self.k,
                sub_chunks_per_worker=self.sub_chunks_per_worker,
                lookback=self.lookback,
                kernel=self.kernel,
                collapse=self.collapse,
                resilience=self.resilience,
                fault_plan=self.fault_plan,
            )
        self.state = self.dfa.start
        self.stats = self._fresh_stats()
        self._lifetime_base = self._fresh_stats()

    def _fresh_stats(self) -> ExecStats:
        """A zeroed per-session stats object carrying the config echoes."""
        num_chunks = (
            self.pool_workers
            if self.backend == "pool"
            else self.num_blocks * self.threads_per_block
        )
        return ExecStats(
            num_chunks=num_chunks,
            k=self.k if isinstance(self.k, int) else self.dfa.num_states,
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
        A pool feed that recovered through the degraded fallback still
        commits (its state is exact) and bumps :attr:`degraded_feeds`.
        """
        block = np.asarray(block)
        if block.size == 0:
            # An empty block is a successful (trivial) feed: it must not
            # leave a previous feed's degraded flag sticking to it.
            self.last_feed_degraded = False
            return self.state
        degraded = False
        new_matches = None
        with trace_span(
            "stream.feed", block=self.blocks_consumed, items=int(block.size),
            backend=self.backend,
        ):
            if self._pool is not None:
                result = self._pool.run(
                    block, start=self.state, collect_matches=self.collect_matches,
                )
                if self.collect_matches:
                    new_matches = result.match_positions + self.items_consumed
                feed_stats = result.stats
                new_stats = self.stats.merged_with(feed_stats)
                new_stats.pool_shm_bytes = feed_stats.pool_shm_bytes
                final_state = result.final_state
                degraded = result.degraded
            else:
                sim = run_speculative(
                    self.dfa.with_start(self.state),
                    block,
                    k=self.k,
                    num_blocks=self.num_blocks,
                    threads_per_block=self.threads_per_block,
                    merge=self.merge,
                    lookback=self.lookback,
                    device=self.device,
                    collect=("match_positions",) if self.collect_matches else (),
                    price=False,
                    kernel=self.kernel,
                    collapse=self.collapse,
                    schedule=self.schedule,
                )
                if self.collect_matches:
                    new_matches = sim.match_positions + self.items_consumed
                feed_stats = sim.stats
                new_stats = self.stats.merged_with(feed_stats)
                final_state = sim.final_state
        # Commit point: nothing above mutated the executor.
        if new_matches is not None:
            self._matches.append(new_matches)
        # Copy before adjusting num_items: feed_stats aliases the result
        # object the engine/pool returned, and mutating that in place would
        # change what a caller holding it observes.
        feed_stats = replace(feed_stats)
        feed_stats.num_items = int(block.size)
        self._last_feed_stats = feed_stats
        self.stats = new_stats
        self.stats.num_items += int(block.size)
        self.items_consumed += int(block.size)
        self.blocks_consumed += 1
        self.state = final_state
        self.last_feed_degraded = degraded
        if degraded:
            self.degraded_feeds += 1
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
        combined.num_items = self._lifetime_items + self.stats.num_items
        if self.stats.pool_shm_bytes:
            combined.pool_shm_bytes = self.stats.pool_shm_bytes
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
        first — nothing is dropped. A pool backend keeps its workers and
        shared segments alive — reset clears session state, not the pool.
        """
        base = self._lifetime_base.merged_with(self.stats)
        base.num_items = self._lifetime_items + self.stats.num_items
        self._lifetime_base = base
        self._lifetime_items += self.items_consumed
        self._lifetime_blocks += self.blocks_consumed
        self.state = self.dfa.start
        self.items_consumed = 0
        self.blocks_consumed = 0
        self._matches.clear()
        self.stats = self._fresh_stats()

    def close(self) -> None:
        """Release the pool backend's processes and shared memory (if any)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "StreamingExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Round carving: turn selected requests into one bounded chunk batch.

Continuous batching executes *slices*, not whole requests: every round
the server takes the scheduler's selection (requests sharing one DFA),
carves each down to a bounded number of symbols, and runs the carved
segments as a single batch
(:func:`repro.core.engine.run_speculative_batch`). A request longer
than its slice carries its end state into the next round — by then new
arrivals have joined the queue, so the *next* round's batch is
re-formed from scratch: that re-forming between speculate/merge/re-exec
rounds is what makes the batching continuous rather than
drain-then-refill.

The item budget bounds round latency: one enormous request cannot hold
every rider hostage for its full length, and admission-critical
responses (shed, deadline) stay responsive because rounds stay short.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.scheduler import QueuedRequest

__all__ = ["RoundPlan", "carve_round"]


@dataclass
class RoundPlan:
    """One executable round: request slices over a single shared DFA.

    ``entries`` pairs each selected request with the number of symbols of
    it this round executes (``take <= request.remaining``). ``fingerprint``
    is the shared machine's identity; ``total_items`` the round's summed
    slice sizes.
    """

    entries: list[tuple[QueuedRequest, int]]
    fingerprint: str
    total_items: int

    @property
    def num_requests(self) -> int:
        """Requests riding this round."""
        return len(self.entries)


def carve_round(
    selected: list[QueuedRequest],
    *,
    budget_items: int,
    chunk_items: int,
) -> RoundPlan:
    """Slice the selected requests to fit the round's item budget.

    Every request gets an equal share of ``budget_items`` (never below
    ``chunk_items`` — a slice smaller than one chunk would just add
    per-round overhead without adding parallelism), clamped to what the
    request still has left. Requests whose remainder exceeds their share
    are carved and will be re-queued by the server after the round.
    """
    if not selected:
        raise ValueError("cannot carve an empty round")
    if budget_items < 1:
        raise ValueError(f"budget_items must be >= 1, got {budget_items}")
    share = max(chunk_items, -(-budget_items // len(selected)))
    entries = []
    total = 0
    for req in selected:
        take = min(req.remaining, share)
        entries.append((req, take))
        total += take
    return RoundPlan(
        entries=entries,
        fingerprint=selected[0].fingerprint,
        total_items=total,
    )

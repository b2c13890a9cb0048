"""Per-tenant weighted-fair queueing with deadline-aware priority.

The serving layer admits requests from many tenants into one machine's
worth of execution capacity. This module owns *who runs next*:

* **Admission control** — :meth:`WeightedFairScheduler.try_enqueue`
  enforces a global and a per-tenant queue-depth bound; past either, the
  request is refused (the server turns the refusal into a ``shed``
  response instead of letting the queue grow without bound).
* **Weighted fairness** — classic virtual-time WFQ: each request gets a
  *finish tag* ``F = max(V, tenant.last_tag) + size / weight`` at
  enqueue, and the scheduler serves the smallest tag first. A tenant
  with weight 2 drains twice the items per unit of virtual time as a
  weight-1 tenant under contention, and an idle tenant accumulates no
  credit (the ``max(V, ...)`` reset).
* **Deadline-aware priority** — a request whose remaining slack is
  smaller than its *predicted* service time (the server supplies the
  predictor, fed by PR 4's throughput EWMA) becomes *urgent* and
  preempts the fair order, earliest deadline first. Fairness is the
  steady-state policy; EDF is the escape hatch for requests about to
  blow their deadline.

The scheduler is synchronous and deterministic — all asyncio lives in
:mod:`repro.serve.server` — so priority ordering is unit-testable without
an event loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["QueuedRequest", "TenantQueue", "WeightedFairScheduler"]


@dataclass
class QueuedRequest:
    """One admitted request, as the scheduler sees it.

    ``symbols``/``carry_state``/``offset``/``future`` belong to the server
    (the scheduler never touches them); the scheduler reads ``tenant``,
    ``fingerprint``, ``remaining``, ``deadline_ts``, and writes
    ``finish_tag`` at admission. ``offset`` advances as continuous
    batching executes the request slice by slice, so ``remaining`` shrinks
    across rounds while the finish tag (assigned from the *full* size at
    enqueue) keeps the request's fair-share position stable.
    """

    tenant: str
    fingerprint: str
    request_id: str
    symbols: object
    size: int
    carry_state: int
    offset: int = 0
    deadline_ts: float | None = None
    enqueue_ts: float = 0.0
    first_service_ts: float | None = None
    rounds: int = 0
    batch_peak: int = 0
    finish_tag: float = 0.0
    future: object = None

    @property
    def remaining(self) -> int:
        """Items not yet executed."""
        return self.size - self.offset


@dataclass
class TenantQueue:
    """One tenant's FIFO of admitted requests plus its WFQ bookkeeping."""

    name: str
    weight: float = 1.0
    last_tag: float = 0.0
    queue: deque = field(default_factory=deque)

    def __len__(self) -> int:
        return len(self.queue)


class WeightedFairScheduler:
    """Admission control + WFQ + EDF urgency over per-tenant queues.

    Parameters
    ----------
    max_queue_depth:
        Global bound on admitted-but-unfinished requests; past it every
        :meth:`try_enqueue` refuses (load shedding).
    max_tenant_queue_depth:
        Per-tenant bound — one tenant flooding the server cannot occupy
        the whole global queue.
    predict_service_s:
        ``items -> seconds`` estimate of how long a request of that size
        takes to execute (the server wires in its throughput EWMA). Used
        only to classify urgency; a pessimistic estimate merely promotes
        requests to EDF earlier.
    """

    def __init__(
        self,
        *,
        max_queue_depth: int = 1024,
        max_tenant_queue_depth: int = 256,
        predict_service_s: Callable[[int], float] | None = None,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if max_tenant_queue_depth < 1:
            raise ValueError(
                f"max_tenant_queue_depth must be >= 1, got {max_tenant_queue_depth}"
            )
        self.max_queue_depth = int(max_queue_depth)
        self.max_tenant_queue_depth = int(max_tenant_queue_depth)
        self._predict = predict_service_s or (lambda items: 0.0)
        self._tenants: dict[str, TenantQueue] = {}
        self._virtual_time = 0.0
        self._depth = 0

    # ------------------------------------------------------------------ #
    # tenant + queue state
    # ------------------------------------------------------------------ #

    def add_tenant(self, name: str, *, weight: float = 1.0) -> TenantQueue:
        """Register (or return) a tenant queue; ``weight`` sets its share."""
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        tq = self._tenants.get(name)
        if tq is None:
            tq = self._tenants[name] = TenantQueue(name=name, weight=float(weight))
        else:
            tq.weight = float(weight)
        return tq

    @property
    def depth(self) -> int:
        """Admitted requests currently queued (all tenants)."""
        return self._depth

    def tenant_depth(self, name: str) -> int:
        """Queued requests for one tenant."""
        tq = self._tenants.get(name)
        return len(tq) if tq is not None else 0

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def try_enqueue(self, req: QueuedRequest) -> bool:
        """Admit ``req`` or refuse it (returns False = shed).

        On admission the request receives its WFQ finish tag
        ``max(V, tenant.last_tag) + size / weight`` and joins its tenant's
        FIFO tail.
        """
        tq = self._tenants.get(req.tenant)
        if tq is None:
            raise KeyError(f"unknown tenant {req.tenant!r}; call add_tenant first")
        if self._depth >= self.max_queue_depth:
            return False
        if len(tq) >= self.max_tenant_queue_depth:
            return False
        start_tag = max(self._virtual_time, tq.last_tag)
        req.finish_tag = start_tag + max(1, req.size) / tq.weight
        tq.last_tag = req.finish_tag
        tq.queue.append(req)
        self._depth += 1
        return True

    def requeue(self, req: QueuedRequest) -> None:
        """Return a partially-executed request to the *front* of its queue.

        Continuous batching slices long requests across rounds; the
        unfinished remainder keeps its original finish tag (its fair
        position) and its FIFO-front slot so later same-tenant arrivals
        cannot starve it.
        """
        tq = self._tenants[req.tenant]
        tq.queue.appendleft(req)
        self._depth += 1

    # ------------------------------------------------------------------ #
    # selection
    # ------------------------------------------------------------------ #

    def _is_urgent(self, req: QueuedRequest, now: float) -> bool:
        if req.deadline_ts is None:
            return False
        return (req.deadline_ts - now) < self._predict(req.remaining)

    def select_round(
        self, *, max_requests: int, now: float
    ) -> list[QueuedRequest]:
        """Pop the next round's requests: one head plus coalescable peers.

        The head is the most urgent deadline-endangered request (earliest
        deadline first) when any exists, else the smallest finish tag.
        The rest of the round is filled — in the same priority order —
        with queued requests sharing the head's DFA fingerprint, up to
        ``max_requests``; requests for other machines stay queued for a
        later round. Selected requests leave their queues; the caller
        re-queues whatever a round leaves unfinished. Virtual time
        advances to the head's finish tag, so tags keep ordering new
        arrivals against work already served.
        """
        heads = [tq.queue[0] for tq in self._tenants.values() if tq.queue]
        if not heads:
            return []
        urgent = [r for r in heads if self._is_urgent(r, now)]
        if urgent:
            head = min(urgent, key=lambda r: (r.deadline_ts, r.finish_tag))
        else:
            head = min(heads, key=lambda r: r.finish_tag)
        self._virtual_time = max(self._virtual_time, head.finish_tag)

        selected = [head]
        self._tenants[head.tenant].queue.popleft()
        self._depth -= 1
        # Fill with same-machine requests across all tenant queues, best
        # (urgent-by-deadline, then fair-tag) first. Only queue heads are
        # eligible — FIFO within a tenant is preserved.
        while len(selected) < max_requests:
            peers = [
                tq.queue[0]
                for tq in self._tenants.values()
                if tq.queue and tq.queue[0].fingerprint == head.fingerprint
            ]
            if not peers:
                break
            urgent = [r for r in peers if self._is_urgent(r, now)]
            if urgent:
                nxt = min(urgent, key=lambda r: (r.deadline_ts, r.finish_tag))
            else:
                nxt = min(peers, key=lambda r: r.finish_tag)
            self._tenants[nxt.tenant].queue.popleft()
            self._depth -= 1
            selected.append(nxt)
        return selected

"""The asyncio FSM serving front-end: tenants, admission, round loop.

:class:`FSMServer` accepts thousands of concurrent match jobs from many
tenants and turns them into coalesced batch executions:

* **Tenant registration** (:meth:`FSMServer.register_tenant`) resolves a
  tenant's DFA to a shared :class:`_MachineState` keyed by
  :func:`repro.core.predictor.dfa_fingerprint` — the compiled serial-rung
  kernel (:mod:`repro.core.native`: one lane per machine, or one lane per
  pattern for a group) is built once per *machine*, not per tenant, so
  two tenants serving the same regex share everything — including the
  compile. When none loads, a single machine's rounds run the
  :func:`repro.fsm.run.run_reference` loop and a group's rounds
  speculate on chunked NumPy.
* **Admission + scheduling** rides
  :class:`repro.serve.scheduler.WeightedFairScheduler`: bounded queue
  depths shed excess load as explicit ``status="shed"`` responses, WFQ
  keeps tenants at their weighted shares, and requests about to miss
  their deadline jump the fair order (EDF), with the predicted service
  time coming from PR 4's :class:`repro.core.resilience.DeadlineModel`
  over the server's measured throughput.
* **Continuous chunk-level batching**: the single ``_batch_loop`` task
  repeatedly asks the scheduler for the next round (requests sharing one
  DFA), carves each request to the round's item budget
  (:func:`repro.serve.batcher.carve_round`), and executes the slices as
  one seeded batch — :func:`repro.core.engine.run_speculative_batch`
  (or, for a pattern group,
  :func:`repro.core.multipattern.run_multipattern_batch`). Every request
  arrives with a known start (its carried state), so each one is a
  single chunk stepped from that start: the serial rung, with no
  speculation or merge (a group without a kernel is the exception).
  Unfinished requests re-queue with
  their carried state and the *next* round is re-formed from scratch, so
  new arrivals join between rounds instead of waiting for a drain.

A round whose machine has a loaded kernel (``native``, or a group's
:meth:`repro.core.multipattern.MachineStack.serial_kernel`) runs inline
on the event loop: it is one compiled call per request, bounded by the
round's item budget, and cheaper than a thread hop. A round without one
(the Python reference loop, or chunked NumPy for a group) takes
milliseconds and runs in a worker thread (``asyncio.to_thread``), so the
loop keeps admitting, shedding, and timing requests meanwhile.
All ``serve.*`` spans/counters land on the server's own
:class:`repro.obs.RunTrace` (catalog in ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import run_speculative_batch
from repro.core.native import NativeKernel, load_serial_kernel
from repro.core.predictor import dfa_fingerprint
from repro.core.resilience import DeadlineModel
from repro.fsm.dfa import DFA
from repro.obs.trace import RunTrace
from repro.serve.batcher import RoundPlan, carve_round
from repro.serve.scheduler import QueuedRequest, WeightedFairScheduler
from repro.util.validation import check_symbols

__all__ = ["FSMServer", "ServeConfig", "ServeResponse", "Tenant"]


@dataclass(frozen=True)
class ServeConfig:
    """Operator knobs of one :class:`FSMServer`.

    Attributes
    ----------
    max_queue_depth, max_tenant_queue_depth:
        Admission-control bounds; a request past either is shed with an
        explicit response instead of queued (see ``docs/SERVING.md``).
    max_batch_requests:
        Most requests one round may coalesce.
    round_budget_items:
        Target symbols per round; long requests are carved to an equal
        share of it and continue in later rounds (continuous batching).
        It also bounds how long a round with a kernel, which runs inline,
        holds the event loop (2^18 items: ~0.3 ms at ~1 ns per item).
    chunk_items:
        The smallest per-round slice of a request. A pattern group's
        round that speculates (no kernel loads for the group) also uses
        it as its chunk length, at
        :func:`repro.core.multipattern.run_multipattern_batch`'s default
        ``k`` and ``lookback``. A single machine's round is always one
        pass per request from its carried state
        (:func:`repro.core.engine.run_speculative_batch`). Rounds with a
        loaded kernel run inline on the event loop, the others in a
        worker thread of this process.
    deadline_model:
        :class:`repro.core.resilience.DeadlineModel`, used to predict a
        request's service time for EDF urgency (over the server's
        measured items/sec).
    """

    max_queue_depth: int = 1024
    max_tenant_queue_depth: int = 256
    max_batch_requests: int = 64
    round_budget_items: int = 1 << 18
    chunk_items: int = 1 << 13
    deadline_model: DeadlineModel = field(
        default_factory=lambda: DeadlineModel(
            floor_s=0.05, bytes_per_sec_floor=2e6, safety_factor=4.0
        )
    )


@dataclass
class ServeResponse:
    """What a caller gets back for one submitted request.

    ``status`` is ``"ok"`` (executed; ``final_state``/``accepted`` are
    exactly what running the request alone would produce) or ``"shed"``
    (admission control refused it; ``shed_reason`` says which bound and
    no execution happened). ``deadline_missed`` reports — it does not
    cancel: a late request still completes exactly.
    """

    status: str
    tenant: str
    request_id: str
    final_state: int = -1
    accepted: bool = False
    items: int = 0
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    rounds: int = 0
    batch_requests: int = 0
    deadline_missed: bool = False
    shed_reason: str = ""


@dataclass
class _GroupInfo:
    """Multi-pattern group shared by several tenants (one round, one pass).

    ``stack`` is the group's block-diagonal union
    (:class:`repro.core.multipattern.MachineStack`, built once at
    registration); ``pattern_of`` maps each member tenant's name to its
    pattern column in the stack.
    """

    stack: object
    pattern_of: dict


@dataclass
class _MachineState:
    """Everything shareable across tenants serving the same DFA.

    ``native`` is a single machine's one-lane kernel (None: its rounds run
    the reference loop); a group's kernel lives on its stack
    (:meth:`repro.core.multipattern.MachineStack.serial_kernel`).
    """

    dfa: DFA
    fingerprint: str
    native: NativeKernel | None = None
    group: _GroupInfo | None = None


@dataclass(frozen=True)
class Tenant:
    """A registered tenant: a name bound to a (shared) machine."""

    name: str
    fingerprint: str
    weight: float


class FSMServer:
    """Asyncio service layer over the speculative batch engine.

    Typical use::

        server = FSMServer(ServeConfig())
        t = server.register_tenant("acme", dfa)
        await server.start()
        resp = await server.submit(t, symbols)
        await server.stop()

    :meth:`submit` may be called before :meth:`start` — requests queue
    (and shed past the admission bounds) and drain once the round loop
    starts. One server instance belongs to one event loop.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        trace: RunTrace | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.trace = trace if trace is not None else RunTrace("serve")
        self._sched = WeightedFairScheduler(
            max_queue_depth=self.config.max_queue_depth,
            max_tenant_queue_depth=self.config.max_tenant_queue_depth,
            predict_service_s=self._predict_service_s,
        )
        self._machines: dict[str, _MachineState] = {}
        self._tenants: dict[str, Tenant] = {}
        self._work = asyncio.Event()
        self._loop_task: asyncio.Task | None = None
        self._stopping = False
        self._closed = False
        self._seq = 0
        self._items_per_sec: float | None = None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register_tenant(
        self,
        name: str,
        dfa: DFA,
        *,
        weight: float = 1.0,
    ) -> Tenant:
        """Register a tenant and build (or share) its machine state.

        The expensive per-machine preparation — compiling (or loading
        from the artifact cache) the one-lane kernel — happens at most
        once per DFA fingerprint, off the request path, however many
        tenants register it. ``weight`` sets the tenant's WFQ share.
        """
        if self._closed:
            raise RuntimeError("FSMServer is closed")
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} already registered")
        fp = dfa_fingerprint(dfa)
        ms = self._machines.get(fp)
        if ms is None:
            with self.trace.span("serve.machine_build", machine=fp[:12]):
                ms = _MachineState(
                    dfa=dfa, fingerprint=fp, native=load_serial_kernel(dfa)
                )
            self._machines[fp] = ms
            self.trace.count("serve.machines", 1)
        tenant = Tenant(name=name, fingerprint=fp, weight=float(weight))
        self._tenants[name] = tenant
        self._sched.add_tenant(name, weight=weight)
        self.trace.count("serve.tenants", 1)
        return tenant

    def register_group(
        self,
        members,
        *,
        weights=None,
    ) -> tuple:
        """Register several tenants whose DFAs share one input alphabet.

        ``members`` is a sequence of ``(name, dfa)`` pairs over the same
        symbol space. The DFAs are stacked into one block-diagonal union
        (:func:`repro.core.multipattern.stack_machines` — joint alphabet
        compaction, built once here, off the request path, with the
        group's one-lane-per-pattern kernel) and every
        member tenant's requests coalesce into the **same** rounds: one
        multi-pattern batched pass answers all members' requests
        simultaneously (:func:`repro.core.multipattern.run_multipattern_batch`),
        with each request's carried state threading through successive
        rounds in its own pattern's state space. Returns one
        :class:`Tenant` per member.
        """
        from repro.core.multipattern import stack_machines

        if self._closed:
            raise RuntimeError("FSMServer is closed")
        members = list(members)
        if not members:
            raise ValueError("register_group of zero members")
        names = [name for name, _ in members]
        for name in names:
            if name in self._tenants:
                raise ValueError(f"tenant {name!r} already registered")
        if len(set(names)) != len(names):
            raise ValueError("duplicate tenant names in group")
        if weights is None:
            weights = [1.0] * len(members)
        if len(weights) != len(members):
            raise ValueError(
                f"{len(weights)} weights for {len(members)} members"
            )
        stack = stack_machines([dfa for _, dfa in members])
        fp = dfa_fingerprint(stack.union_dfa)
        ms = self._machines.get(fp)
        if ms is None or ms.group is None:
            with self.trace.span(
                "serve.group_build", machine=fp[:12],
                patterns=stack.num_patterns,
            ):
                # Compiled here, off the request path; the rounds read it
                # from the stack. None leaves them on chunked NumPy.
                stack.serial_kernel()
                ms = _MachineState(
                    dfa=stack.union_dfa,
                    fingerprint=fp,
                    group=_GroupInfo(stack=stack, pattern_of={}),
                )
            self._machines[fp] = ms
            self.trace.count("serve.machines", 1)
            self.trace.count("serve.groups", 1)
        tenants = []
        for p, ((name, _), weight) in enumerate(zip(members, weights)):
            ms.group.pattern_of[name] = p
            tenant = Tenant(name=name, fingerprint=fp, weight=float(weight))
            self._tenants[name] = tenant
            self._sched.add_tenant(name, weight=float(weight))
            self.trace.count("serve.tenants", 1)
            tenants.append(tenant)
        return tuple(tenants)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Launch the round loop on the running event loop."""
        if self._closed:
            raise RuntimeError("FSMServer is closed")
        if self._loop_task is not None:
            return
        self._stopping = False
        self._loop_task = asyncio.get_running_loop().create_task(
            self._batch_loop(), name="repro-serve-batch-loop"
        )

    async def stop(self) -> None:
        """Drain queued requests, stop the round loop, keep machine state.

        Safe to :meth:`start` again afterwards; call :meth:`close` for
        full teardown.
        """
        if self._loop_task is None:
            return
        self._stopping = True
        self._work.set()
        await self._loop_task
        self._loop_task = None

    async def close(self) -> None:
        """Stop the loop; the server then refuses registration and submits."""
        await self.stop()
        self._closed = True

    @property
    def queue_depth(self) -> int:
        """Requests admitted and not yet completed by a round."""
        return self._sched.depth

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def _predict_service_s(self, items: int) -> float:
        """EDF urgency estimate: PR 4's deadline model over measured rate."""
        ips = self._items_per_sec
        itemsize = 4  # input symbols are int32 on the wire
        bps = None if ips is None else ips * itemsize
        return self.config.deadline_model.deadline_s(items * itemsize, bps)

    async def submit(
        self,
        tenant: Tenant | str,
        symbols: np.ndarray,
        *,
        deadline_s: float | None = None,
        request_id: str | None = None,
    ) -> ServeResponse:
        """Submit one match job; resolves when it completes (or sheds).

        ``deadline_s`` is relative to now; it prioritizes (EDF once the
        request is predicted unable to make it) and is reported back as
        ``deadline_missed`` — it never cancels the work. The returned
        ``final_state``/``accepted`` are bit-exact against running the
        request alone.
        """
        if self._closed:
            raise RuntimeError("FSMServer is closed")
        name = tenant.name if isinstance(tenant, Tenant) else tenant
        t = self._tenants.get(name)
        if t is None:
            raise KeyError(f"unknown tenant {name!r}; register_tenant first")
        symbols = np.ascontiguousarray(np.asarray(symbols))
        if symbols.ndim != 1:
            raise ValueError(f"symbols must be 1-D, got shape {symbols.shape}")
        ms = self._machines[t.fingerprint]
        if ms.group is not None:
            # Group requests arrive in the members' shared *raw* symbol
            # space; the round remaps through the joint compaction.
            num_inputs = int(ms.group.stack.joint.num_symbols)
            p = ms.group.pattern_of[name]
            init_state = int(ms.group.stack.machines[p].start)
        else:
            num_inputs = int(ms.dfa.table.shape[0])
            init_state = int(ms.dfa.start)
        try:
            check_symbols(symbols, num_inputs)
        except ValueError as exc:
            raise ValueError(
                f"symbols out of range for tenant {name!r}: {exc}"
            ) from None
        self._seq += 1
        rid = request_id if request_id is not None else f"{name}-{self._seq}"
        now = time.monotonic()
        req = QueuedRequest(
            tenant=name,
            fingerprint=t.fingerprint,
            request_id=rid,
            symbols=symbols,
            size=int(symbols.size),
            carry_state=init_state,
            deadline_ts=None if deadline_s is None else now + deadline_s,
            enqueue_ts=now,
            future=asyncio.get_running_loop().create_future(),
        )
        if not self._sched.try_enqueue(req):
            reason = (
                f"queue depth {self._sched.depth} at global bound "
                f"{self.config.max_queue_depth}"
                if self._sched.depth >= self.config.max_queue_depth
                else f"tenant {name!r} at queue bound "
                f"{self.config.max_tenant_queue_depth}"
            )
            self.trace.count("serve.shed", 1)
            return ServeResponse(
                status="shed", tenant=name, request_id=rid,
                items=int(symbols.size), shed_reason=reason,
            )
        self.trace.count("serve.submitted", 1)
        self._work.set()
        return await req.future

    # ------------------------------------------------------------------ #
    # the round loop
    # ------------------------------------------------------------------ #

    async def _batch_loop(self) -> None:
        cfg = self.config
        while True:
            await self._work.wait()
            self._work.clear()
            while self._sched.depth:
                selected = self._sched.select_round(
                    max_requests=cfg.max_batch_requests,
                    now=time.monotonic(),
                )
                if not selected:
                    break
                rnd = carve_round(
                    selected,
                    budget_items=cfg.round_budget_items,
                    chunk_items=cfg.chunk_items,
                )
                inline = self._has_kernel(self._machines[rnd.fingerprint])
                t0 = time.monotonic()
                with self.trace.span(
                    "serve.round",
                    machine=rnd.fingerprint[:12],
                    requests=rnd.num_requests,
                    items=rnd.total_items,
                    inline=inline,
                ):
                    try:
                        # A kernel round is one compiled call per request
                        # (a fraction of a millisecond at the item
                        # budget), cheaper than a thread hop; the Python
                        # loop and chunked NumPy take milliseconds and
                        # run in a worker thread.
                        if inline:
                            finals = self._execute_round(rnd)
                        else:
                            finals = await asyncio.to_thread(
                                self._execute_round, rnd
                            )
                    except Exception as exc:
                        # A poisoned round must not kill the loop (every
                        # pending future would hang forever) and must not
                        # re-queue (it would poison the next round too):
                        # fail exactly its own riders and keep serving.
                        self._fail_round(rnd, exc)
                        finals = None
                if finals is not None:
                    self._finish_round(rnd, finals, t0, time.monotonic())
                if inline:
                    # Let arrivals and finished callers run between rounds.
                    await asyncio.sleep(0)
            if self._stopping:
                return

    @staticmethod
    def _has_kernel(ms: _MachineState) -> bool:
        """Whether ``ms``'s rounds step on a loaded compiled kernel."""
        if ms.group is not None:
            return ms.group.stack.serial_kernel() is not None
        return ms.native is not None

    def _execute_round(self, rnd: RoundPlan) -> np.ndarray:
        """Run one carved round (inline or in a worker thread; no scheduler
        access here)."""
        ms = self._machines[rnd.fingerprint]
        segments = [
            req.symbols[req.offset : req.offset + take]
            for req, take in rnd.entries
        ]
        starts = [req.carry_state for req, _ in rnd.entries]
        if ms.group is not None:
            # One batched multi-pattern round: every member's carry state
            # rides in its own column; the other columns restart from each
            # pattern's start state (they carry no tenant state of their own).
            from repro.core.multipattern import run_multipattern_batch

            stack = ms.group.stack
            rows = np.arange(len(segments))
            cols = [ms.group.pattern_of[req.tenant] for req, _ in rnd.entries]
            starts_mat = np.tile([m.start for m in stack.machines], (rows.size, 1))
            starts_mat[rows, cols] = starts
            self.trace.count("serve.group_rounds", 1)
            finals_mat, _accepted = run_multipattern_batch(
                stack, segments, chunk_items=self.config.chunk_items,
                starts=starts_mat,
            )
            return finals_mat[rows, cols]
        res = run_speculative_batch(
            ms.dfa, segments, starts=starts, native=ms.native
        )
        return res.final_states

    def _fail_round(self, rnd: RoundPlan, exc: Exception) -> None:
        """Propagate a round-execution failure to exactly its requests."""
        self.trace.count("serve.round_errors", 1)
        for req, _ in rnd.entries:
            fut = req.future
            if fut is not None and not fut.done():
                fut.set_exception(exc)

    def _finish_round(
        self,
        rnd: RoundPlan,
        finals: np.ndarray,
        t0: float,
        t1: float,
    ) -> None:
        """Fold one round's results back into requests (event-loop side)."""
        obs = self.trace
        obs.count("serve.rounds", 1)
        obs.observe("serve.batch_size", rnd.num_requests)
        obs.observe("serve.round_items", rnd.total_items)
        obs.observe("serve.round_s", t1 - t0)
        if rnd.num_requests > 1:
            obs.count("serve.coalesced", rnd.num_requests - 1)
        if rnd.total_items and t1 > t0:
            ips = rnd.total_items / (t1 - t0)
            self._items_per_sec = (
                ips
                if self._items_per_sec is None
                else 0.7 * self._items_per_sec + 0.3 * ips
            )
        for (req, take), fin in zip(rnd.entries, finals):
            req.offset += take
            req.carry_state = int(fin)
            req.rounds += 1
            req.batch_peak = max(req.batch_peak, rnd.num_requests)
            if req.first_service_ts is None:
                req.first_service_ts = t0
            if req.offset < req.size:
                self._sched.requeue(req)
                continue
            ms = self._machines[req.fingerprint]
            missed = req.deadline_ts is not None and t1 > req.deadline_ts
            if ms.group is not None:
                p = ms.group.pattern_of[req.tenant]
                accepted = bool(
                    ms.group.stack.machines[p].accepting[req.carry_state]
                )
            else:
                accepted = bool(ms.dfa.accepting[req.carry_state])
            resp = ServeResponse(
                status="ok",
                tenant=req.tenant,
                request_id=req.request_id,
                final_state=req.carry_state,
                accepted=accepted,
                items=req.size,
                queue_wait_s=req.first_service_ts - req.enqueue_ts,
                service_s=t1 - req.first_service_ts,
                rounds=req.rounds,
                batch_requests=req.batch_peak,
                deadline_missed=missed,
            )
            obs.count("serve.requests", 1)
            obs.count("serve.items", req.size)
            obs.observe("serve.queue_wait_s", resp.queue_wait_s)
            obs.observe("serve.service_s", resp.service_s)
            if missed:
                obs.count("serve.deadline_miss", 1)
            fut = req.future
            if fut is not None and not fut.done():
                fut.set_result(resp)

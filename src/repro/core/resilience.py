"""Worker supervision for CPU scale-out: deadlines, retry, respawn, degrade.

The speculative engine already tolerates *mispredicted speculation* — the
paper's delayed re-execution fixes up wrong guesses. This module adds the
discipline cloud deployments actually need: tolerance of *process-level*
failure. :class:`SupervisedWorkerPool` replaces the stdlib
``ProcessPoolExecutor`` inside :class:`repro.core.mp_executor.ScaleoutPool`
with worker processes the parent fully owns, so it can:

* derive a **per-task deadline** from a measured bytes/sec estimate with a
  configurable floor (:class:`DeadlineModel`) and hedge stragglers by
  re-dispatching their task to a healthy worker;
* detect **dead workers** (liveness probe + ``Process.exitcode`` sweep in
  the result-wait loop), **respawn** them, and re-dispatch every task the
  dead worker still owed to surviving workers — respawned workers re-attach
  the pool's shared-memory segments lazily, exactly like fresh ones;
* **retry** failed or corrupted tasks with exponential backoff and
  deterministic jitter (:class:`RetryPolicy`), validating each result map
  against the machine's state range on arrival;
* **degrade** when retries exhaust or the pool falls below quorum: a
  :class:`DegradedExecution` signal tells the caller to fall back to the
  in-process :func:`repro.core.engine.run_speculative` path, so a run
  always returns a correct result instead of raising.

Every recovery action is counted on the ambient :class:`repro.obs.RunTrace`
under the ``fault.*`` namespace (catalog in ``docs/OBSERVABILITY.md``) and
recorded as a :class:`RecoveryEvent` on the run's
:class:`SupervisionReport`, which rides back on
:class:`repro.core.mp_executor.MultiprocessResult`.

Fault sites are driven deterministically by
:mod:`repro.core.faultinject`; with an empty plan the supervised path is
the production path, and its fault-free overhead is pinned under 3% by
``benchmarks/bench_resilience.py``.
"""

from __future__ import annotations

import math
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from queue import Empty
from typing import Any, Callable, Sequence

from repro.core import faultinject
from repro.obs.trace import add_count, trace_span

__all__ = [
    "DEFAULT_RESILIENCE",
    "DeadlineModel",
    "DegradedExecution",
    "PoolClosedError",
    "RecoveryEvent",
    "ResilienceConfig",
    "RetryPolicy",
    "SupervisedWorkerPool",
    "SupervisionReport",
]


class PoolClosedError(RuntimeError):
    """Raised when a closed pool (or supervised worker set) is used again."""


class DegradedExecution(Exception):
    """Supervised execution gave up; the caller must degrade to local.

    Raised internally by :meth:`SupervisedWorkerPool.run_tasks` when a task
    exhausts its retries or the pool drops below quorum; carries the
    human-readable reason (the :class:`SupervisionReport` stays with the
    caller, already populated).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# --------------------------------------------------------------------------- #
# policy objects
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``delay_s(attempt, rng)`` for attempt 1, 2, ... is
    ``backoff_base_s * backoff_factor**(attempt-1)`` stretched by up to
    ``backoff_jitter`` (a fraction drawn from ``rng``, which the pool seeds
    deterministically).
    """

    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff delay in seconds before retry number ``attempt`` (>= 1)."""
        base = self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1)
        return base * (1.0 + self.backoff_jitter * rng.random())


@dataclass(frozen=True)
class DeadlineModel:
    """Per-task deadline derived from throughput, with a floor.

    The deadline for a task over ``task_bytes`` of input is
    ``max(floor_s, safety_factor * task_bytes / bytes_per_sec)`` where
    ``bytes_per_sec`` is the pool's measured per-worker throughput (EWMA
    over past tasks) clamped below by ``bytes_per_sec_floor`` — a brand-new
    pool with no history gets conservative (long) deadlines rather than
    spurious expirations.
    """

    floor_s: float = 5.0
    bytes_per_sec_floor: float = 2e6
    safety_factor: float = 8.0

    def deadline_s(self, task_bytes: int, bytes_per_sec: float | None = None) -> float:
        """Deadline in seconds for a task over ``task_bytes`` of input."""
        bps = max(self.bytes_per_sec_floor, float(bytes_per_sec or 0.0))
        return max(self.floor_s, self.safety_factor * task_bytes / bps)


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the supervision loop needs to make recovery decisions.

    ``max_respawns`` bounds worker respawns per ``run_tasks`` call (None
    derives ``2 * num_workers``); ``quorum_fraction`` is the minimum live
    fraction of the original worker count below which the pool degrades;
    ``max_deadline_strikes`` is how many deadline expirations one worker
    may accumulate before it is presumed wedged and terminated. ``seed``
    makes backoff jitter reproducible.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    deadline: DeadlineModel = field(default_factory=DeadlineModel)
    quorum_fraction: float = 0.5
    max_respawns: int | None = None
    max_deadline_strikes: int = 2
    poll_interval_s: float = 0.02
    seed: int = 0


#: The default supervision configuration pools run under unless told otherwise.
DEFAULT_RESILIENCE = ResilienceConfig()


# --------------------------------------------------------------------------- #
# recovery bookkeeping
# --------------------------------------------------------------------------- #


@dataclass
class RecoveryEvent:
    """One recovery action: what happened, to whom, when (run-relative)."""

    kind: str
    worker: int = -1
    task: int = -1
    attempt: int = 0
    detail: str = ""
    t_s: float = 0.0


@dataclass
class SupervisionReport:
    """Aggregated recovery activity of one supervised ``run_tasks`` call.

    All counters are zero and ``degraded`` is False on a fault-free run;
    ``events`` is the ordered action log. The report rides back on
    :class:`repro.core.mp_executor.MultiprocessResult.recovery`.
    """

    worker_deaths: int = 0
    respawns: int = 0
    retries: int = 0
    deadline_expirations: int = 0
    corrupt_results: int = 0
    worker_errors: int = 0
    shm_republishes: int = 0
    faults_fired: int = 0
    degraded: bool = False
    degrade_reason: str = ""
    events: list[RecoveryEvent] = field(default_factory=list)

    def record(self, kind: str, **kw: Any) -> RecoveryEvent:
        """Append one event to the action log and return it."""
        ev = RecoveryEvent(kind=kind, **kw)
        self.events.append(ev)
        return ev

    @property
    def total_recovery_actions(self) -> int:
        """Count of actions taken (deaths, respawns, retries, republishes)."""
        return (
            self.worker_deaths + self.respawns + self.retries
            + self.shm_republishes
        )


# --------------------------------------------------------------------------- #
# worker process body
# --------------------------------------------------------------------------- #


def _supervised_worker_loop(
    worker_id: int,
    fn: Callable,
    task_q,
    result_q,
    wire_faults: tuple,
) -> None:
    """Body of one supervised worker process.

    Pulls ``(run_id, task_id, payload)`` messages off this worker's private
    task queue, applies any fault-injection specs due at the site, runs
    ``fn(payload)``, and posts ``(kind, run_id, task_id, worker_id, result,
    fired_fault_ids)`` to the shared result queue. Exceptions are reported
    as ``kind='error'`` with the exception type name and repr — the worker
    itself survives and keeps serving. ``None`` is the shutdown sentinel.
    """
    # A forked worker inherits the parent's Python-level signal handlers
    # (e.g. the pool's own shm-teardown handler), which close over parent
    # state — including locks another parent thread may have held at fork
    # time. Running them here can deadlock and make the worker survive
    # ``terminate()``. Workers answer signals with the default action.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    specs = faultinject.specs_from_wire(wire_faults)
    seq = 0
    while True:
        msg = task_q.get()
        if msg is None:
            return
        run_id, task_id, payload = msg
        fired: list[str] = []
        try:
            faultinject.apply_pre_faults(specs, worker_id, seq, fired)
            out = fn(payload)
            out = faultinject.apply_post_faults(specs, worker_id, seq, out, fired)
            result_q.put(("ok", run_id, task_id, worker_id, out, tuple(fired)))
        except BaseException as exc:  # noqa: BLE001 - worker must not die
            result_q.put((
                "error", run_id, task_id, worker_id,
                (type(exc).__name__, repr(exc)), tuple(fired),
            ))
        seq += 1


@dataclass
class _WorkerHandle:
    """Parent-side view of one worker slot (stable id across respawns)."""

    worker_id: int
    proc: Any = None
    task_q: Any = None
    assigned: set = field(default_factory=set)
    dead: bool = True
    strikes: int = 0

    def send(self, run_id: int, task_id: int, payload: Any) -> None:
        """Queue one task message for this worker."""
        self.task_q.put((run_id, task_id, payload))
        self.assigned.add(task_id)


@dataclass
class _Pending:
    """An in-flight task attempt: which worker owns it, when it expires."""

    worker_id: int
    deadline_ts: float


# --------------------------------------------------------------------------- #
# the supervised pool
# --------------------------------------------------------------------------- #


class SupervisedWorkerPool:
    """N worker processes with liveness supervision and fault recovery.

    Parameters
    ----------
    fn:
        The task function every worker runs (must be importable at module
        level for ``spawn`` start methods).
    num_workers:
        Worker slot count. Slots keep stable ids across respawns.
    config:
        :class:`ResilienceConfig`, or None to disable supervision entirely
        (plain blocking collection, errors raise — the pre-resilience
        semantics, kept for overhead baselines).
    fault_plan:
        Deterministic fault injection (:mod:`repro.core.faultinject`);
        an empty plan means production behaviour.

    Workers are spawned lazily on the first :meth:`run_tasks` call so pools
    that never dispatch (single-worker degenerate runs) cost nothing.
    """

    def __init__(
        self,
        fn: Callable,
        num_workers: int,
        *,
        config: ResilienceConfig | None = DEFAULT_RESILIENCE,
        fault_plan: faultinject.FaultPlan | None = None,
        mp_context=None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self._fn = fn
        self.num_workers = int(num_workers)
        self.config = config
        self.fault_plan = fault_plan if fault_plan is not None else faultinject.FaultPlan()
        self._ctx = mp_context if mp_context is not None else get_context()
        self._rng = random.Random(config.seed if config is not None else 0)
        self._handles: list[_WorkerHandle] = []
        self._result_q = None
        self._run_seq = 0
        self._closed = False
        # Serializes spawning against close(): a respawn that loses this
        # race would create a worker no close() sweep will ever see.
        self._lifecycle_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def started(self) -> bool:
        """Whether worker processes have been spawned yet."""
        return bool(self._handles)

    def alive_count(self) -> int:
        """Workers currently believed alive (after the last sweep)."""
        return sum(
            1 for h in self._handles
            if not h.dead and h.proc is not None and h.proc.is_alive()
        )

    def _spawn_into(self, handle: _WorkerHandle) -> None:
        """(Re)start the process behind a worker slot; raises on failure.

        Raises :class:`PoolClosedError` on a closed pool: a mid-run
        respawn racing a concurrent :meth:`close` (the teardown path
        terminating this run's workers is what *caused* the death) would
        otherwise orphan the fresh process forever.
        """
        with self._lifecycle_lock:
            if self._closed:
                raise PoolClosedError(
                    "SupervisedWorkerPool closed during respawn"
                )
            handle.task_q = self._ctx.SimpleQueue()
            handle.proc = self._ctx.Process(
                target=_supervised_worker_loop,
                args=(
                    handle.worker_id, self._fn, handle.task_q, self._result_q,
                    self.fault_plan.worker_wire(),
                ),
                daemon=True,
                name=f"repro-scaleout-{handle.worker_id}",
            )
            handle.proc.start()
            handle.dead = False
            handle.strikes = 0
            handle.assigned.clear()

    def ensure_started(self) -> None:
        """Spawn all workers on first use; heal dead slots between runs."""
        if self._closed:
            raise PoolClosedError("SupervisedWorkerPool is closed")
        if not self._handles:
            self._result_q = self._ctx.Queue()
            self._handles = [_WorkerHandle(worker_id=i) for i in range(self.num_workers)]
            for h in self._handles:
                self._spawn_into(h)
            return
        for h in self._handles:
            if h.proc is None or not h.proc.is_alive():
                add_count("fault.respawns")
                with trace_span("fault.respawn", worker=h.worker_id, phase="pre-run"):
                    self._spawn_into(h)

    def close(self) -> None:
        """Shut every worker down and release the queues (idempotent)."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        for h in self._handles:
            if h.proc is not None and h.proc.is_alive():
                try:
                    h.task_q.put(None)
                except Exception:  # pragma: no cover - broken pipe on dead peer
                    pass
        for h in self._handles:
            if h.proc is None:
                continue
            h.proc.join(timeout=0.5)
            if h.proc.is_alive():
                h.proc.terminate()
                h.proc.join(timeout=0.5)
            if h.proc.is_alive():
                # A worker that survives SIGTERM (wedged in native code,
                # or mid-handler) must not outlive the pool: the leaked
                # process would hang interpreter exit on the
                # multiprocessing atexit join.
                h.proc.kill()
                h.proc.join(timeout=0.5)
            if h.task_q is not None:
                try:
                    h.task_q.close()
                except Exception:  # pragma: no cover - already closed
                    pass
        if self._result_q is not None:
            try:
                self._result_q.close()
            except Exception:  # pragma: no cover - already closed
                pass
        self._handles = []

    def __enter__(self) -> "SupervisedWorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # dispatch + supervision
    # ------------------------------------------------------------------ #

    def run_tasks(
        self,
        tasks: Sequence,
        *,
        task_nbytes: Sequence[int] | None = None,
        bytes_per_sec: float | None = None,
        rebuild: Callable[[int], Any] | None = None,
        validate: Callable[[int, Any], bool] | None = None,
        on_error: Callable[[int, str, str, SupervisionReport], None] | None = None,
        report: SupervisionReport | None = None,
    ) -> list:
        """Execute every task, surviving worker failure; results by task id.

        ``rebuild(i)`` produces a fresh payload for a retried task (pools
        use it to pick up re-published shared-memory segment names);
        ``validate(i, result)`` rejects corrupted results (a rejection is
        retried like an error); ``on_error(i, exc_type, exc_repr, report)``
        lets the caller repair shared state (e.g. re-publish an unlinked
        input segment) before the retry fires.

        Raises :class:`DegradedExecution` when recovery is exhausted and
        :class:`PoolClosedError` after :meth:`close`.
        """
        if self._closed:
            raise PoolClosedError("SupervisedWorkerPool is closed")
        self.ensure_started()
        self._run_seq += 1
        run_id = self._run_seq
        if report is None:
            report = SupervisionReport()
        if self.config is None:
            return self._run_plain(run_id, list(tasks))
        return self._run_supervised(
            run_id, list(tasks),
            task_nbytes=task_nbytes, bytes_per_sec=bytes_per_sec,
            rebuild=rebuild, validate=validate, on_error=on_error,
            report=report,
        )

    def _run_plain(self, run_id: int, tasks: list) -> list:
        """Supervision-disabled collection: blocking waits, errors raise."""
        n = len(tasks)
        for tid, payload in enumerate(tasks):
            self._handles[tid % len(self._handles)].send(run_id, tid, payload)
        results: list = [None] * n
        got = 0
        while got < n:
            try:
                kind, rid, tid, wid, payload, _fired = self._result_q.get(timeout=600.0)
            except Empty:
                raise RuntimeError(
                    "workers unresponsive for 600s with supervision disabled"
                ) from None
            if rid != run_id:
                continue  # stale message from an abandoned run
            self._handles[wid].assigned.discard(tid)
            if kind == "error":
                raise RuntimeError(f"worker task failed: {payload[0]}: {payload[1]}")
            results[tid] = payload
            got += 1
        return results

    def _pick_worker(self) -> _WorkerHandle | None:
        """Least-loaded live worker, or None when none are live."""
        best = None
        for h in self._handles:
            if h.dead or h.proc is None or not h.proc.is_alive():
                continue
            if best is None or len(h.assigned) < len(best.assigned):
                best = h
        return best

    def _run_supervised(
        self,
        run_id: int,
        tasks: list,
        *,
        task_nbytes: Sequence[int] | None,
        bytes_per_sec: float | None,
        rebuild: Callable[[int], Any] | None,
        validate: Callable[[int, Any], bool] | None,
        on_error: Callable[[int, str, str, SupervisionReport], None] | None,
        report: SupervisionReport,
    ) -> list:
        cfg = self.config
        n = len(tasks)
        w = self.num_workers
        nbytes = list(task_nbytes) if task_nbytes is not None else [0] * n
        results: list = [None] * n
        done: set[int] = set()
        attempts = [0] * n
        pending: dict[int, _Pending] = {}
        deferred: list[list] = []  # [ready_ts, task_id]
        t0 = time.monotonic()
        max_respawns = (
            cfg.max_respawns if cfg.max_respawns is not None else 2 * w
        )
        quorum = max(1, math.ceil(cfg.quorum_fraction * w))

        def rel_now() -> float:
            return time.monotonic() - t0

        def degrade(reason: str) -> None:
            report.degraded = True
            report.degrade_reason = reason
            report.record("degrade", detail=reason, t_s=rel_now())
            add_count("fault.degraded_runs")
            raise DegradedExecution(reason)

        def dispatch(tid: int, payload: Any) -> None:
            h = self._pick_worker()
            if h is None:
                degrade("no live workers to dispatch to")
            h.send(run_id, tid, payload)
            pending[tid] = _Pending(
                worker_id=h.worker_id,
                deadline_ts=time.monotonic()
                + cfg.deadline.deadline_s(nbytes[tid], bytes_per_sec),
            )

        def retry(tid: int, why: str, worker: int = -1) -> None:
            attempts[tid] += 1
            report.retries += 1
            add_count("fault.retries")
            report.record(
                "retry", worker=worker, task=tid, attempt=attempts[tid],
                detail=why, t_s=rel_now(),
            )
            if attempts[tid] > cfg.retry.max_retries:
                degrade(
                    f"task {tid} exhausted {cfg.retry.max_retries} retries ({why})"
                )
            deferred.append(
                [time.monotonic() + cfg.retry.delay_s(attempts[tid], self._rng), tid]
            )

        def mark_fault_fired(fault_id: str, worker: int, task: int) -> None:
            if self.fault_plan.mark_fired(fault_id):
                report.faults_fired += 1
                add_count("fault.injected")
                report.record(
                    "fault_fired", worker=worker, task=task, detail=fault_id,
                    t_s=rel_now(),
                )

        def handle_death(h: _WorkerHandle, why: str) -> None:
            h.dead = True
            exitcode = h.proc.exitcode if h.proc is not None else None
            report.worker_deaths += 1
            add_count("fault.worker_deaths")
            report.record(
                "worker_death", worker=h.worker_id,
                detail=f"{why}; exitcode={exitcode}", t_s=rel_now(),
            )
            # A death at a site where the plan schedules a kill is that
            # fault firing — mark it so respawned workers are not re-armed.
            for spec in self.fault_plan.match_worker_kind(h.worker_id, "kill"):
                mark_fault_fired(spec.fault_id, h.worker_id, -1)
            orphans = sorted(
                tid for tid, p in pending.items() if p.worker_id == h.worker_id
            )
            for tid in orphans:
                pending.pop(tid)
            h.assigned.clear()
            if report.respawns < max_respawns:
                report.respawns += 1
                add_count("fault.respawns")
                with trace_span("fault.respawn", worker=h.worker_id):
                    try:
                        self._spawn_into(h)
                    except OSError as exc:  # pragma: no cover - fork failure
                        report.record(
                            "respawn_failed", worker=h.worker_id,
                            detail=repr(exc), t_s=rel_now(),
                        )
                if not h.dead:
                    report.record(
                        "respawn", worker=h.worker_id, t_s=rel_now()
                    )
            if self.alive_count() < quorum:
                degrade(
                    f"live workers {self.alive_count()} below quorum {quorum}"
                )
            for tid in orphans:
                retry(tid, why, worker=h.worker_id)

        def expire(tid: int) -> None:
            p = pending.get(tid)
            if p is None:
                return
            h = self._handles[p.worker_id]
            report.deadline_expirations += 1
            add_count("fault.deadline_expired")
            report.record(
                "deadline", worker=p.worker_id, task=tid,
                attempt=attempts[tid], t_s=rel_now(),
            )
            h.strikes += 1
            if h.strikes >= cfg.max_deadline_strikes and h.proc.is_alive():
                # Presumed wedged: a delay fault that will never report its
                # firing dies with the process — mark it from the plan.
                for spec in self.fault_plan.match_worker_kind(h.worker_id, "delay"):
                    mark_fault_fired(spec.fault_id, h.worker_id, tid)
                h.proc.terminate()
                h.proc.join(timeout=1.0)
                handle_death(h, "terminated after repeated deadline strikes")
            else:
                # Hedge: leave the straggler running (its late result will
                # be dropped as stale) and re-dispatch elsewhere.
                pending.pop(tid)
                retry(tid, "deadline expired", worker=p.worker_id)

        for tid in range(n):
            dispatch(tid, tasks[tid])

        while len(done) < n:
            now = time.monotonic()
            if deferred:
                due = [d for d in deferred if d[0] <= now]
                if due:
                    deferred = [d for d in deferred if d[0] > now]
                    for _, tid in due:
                        payload = rebuild(tid) if rebuild is not None else tasks[tid]
                        dispatch(tid, payload)
            try:
                msg = self._result_q.get(timeout=cfg.poll_interval_s)
            except Empty:
                msg = None
            if msg is not None:
                kind, rid, tid, wid, payload, fired = msg
                for fault_id in fired:
                    mark_fault_fired(fault_id, wid, tid)
                handle = self._handles[wid]
                handle.assigned.discard(tid)
                handle.strikes = 0
                current = pending.get(tid)
                if rid == run_id and current is not None and current.worker_id == wid:
                    pending.pop(tid)
                    if kind == "ok":
                        if validate is not None and not validate(tid, payload):
                            report.corrupt_results += 1
                            add_count("fault.corrupt_results")
                            report.record(
                                "corrupt_result", worker=wid, task=tid,
                                t_s=rel_now(),
                            )
                            retry(tid, "result failed validation", worker=wid)
                        else:
                            results[tid] = payload
                            done.add(tid)
                    else:
                        exc_type, exc_repr = payload
                        report.worker_errors += 1
                        add_count("fault.worker_errors")
                        report.record(
                            "worker_error", worker=wid, task=tid,
                            detail=f"{exc_type}: {exc_repr}", t_s=rel_now(),
                        )
                        if on_error is not None:
                            on_error(tid, exc_type, exc_repr, report)
                        retry(tid, exc_type, worker=wid)
                # else: stale or duplicate result from an abandoned attempt.
            # Liveness probe + exitcode sweep.
            for h in self._handles:
                if not h.dead and h.proc is not None and not h.proc.is_alive():
                    handle_death(h, "worker process died")
            # Deadline sweep.
            now = time.monotonic()
            overdue = [
                tid for tid, p in pending.items() if p.deadline_ts <= now
            ]
            for tid in overdue:
                expire(tid)
        return results

"""Multiprocessing backend: real scale-out on CPU cores.

The GPU in this reproduction is simulated, but the *algorithm* scales out on
real hardware too. This backend splits the input into one segment per
worker process; each worker runs the lock-step engine over its segment and
returns its segment's ``speculated -> ending`` map, and the parent composes
the per-segment maps with the same binary tree merge (delayed invalidation
plus fix-up descent) the simulated GPU uses — so the parent-side combine
step is O(log workers) probes instead of the O(workers) left fold the
paper's Figure 4a identifies as the scaling bottleneck.

Two worker flavours, selected by ``k``:

* ``k=None`` (spec-N): each worker's map is exact for every possible
  incoming state, so no cross-process re-execution is ever needed;
* a finite ``k`` runs speculative workers. The parent speculates each
  *segment boundary* by look-back over the global input (workers cannot see
  their left neighbour's tail) and ships each worker its boundary row;
  worker 0's row always carries the true start state pinned into it, so
  segment 0 never re-executes. On a genuine boundary miss the tree merge
  marks the composition invalid and the fix-up descent re-executes only the
  segments actually needed.

:class:`ScaleoutPool` is the persistent form of the backend: the DFA table,
the state prior, and the input buffer live in ``multiprocessing.shared_memory``
segments created once per pool (the input buffer grows geometrically when a
larger input arrives), and the worker processes stay alive across ``run``
calls — a dispatch pickles only segment names and a ``k``-entry boundary
row, not the table or the input. The pool also resolves a stepping kernel
(:mod:`repro.core.kernels`) at construction and publishes the compacted
class map plus any composed stride table to shared memory, so workers step
the input ``m`` symbols per gather with zero per-dispatch table rebuild.
Every worker task is the same one: fold the segment's chunk maps into the
segment's ``speculated -> ending`` map. :meth:`ScaleoutPool.run` merges
those maps with the tree merge; :meth:`ScaleoutPool.run_map` (the
cross-host agent's leaf) folds them over a caller-given boundary row.

Worker processes run under the supervision layer in
:mod:`repro.core.resilience`: per-task deadlines, bounded retry with
backoff, dead-worker respawn with shared-memory re-attach, and — when the
pool drops below quorum or retries exhaust — graceful degradation to the
in-process engine, so :meth:`ScaleoutPool.run` returns a correct
:class:`MultiprocessResult` (flagged ``degraded=True``) instead of raising.
Deterministic failure drills come from :mod:`repro.core.faultinject`.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import threading
import time
import weakref
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import shared_memory
from typing import NamedTuple

import numpy as np

from repro.core.convergence import (
    CollapseConfig,
    converged_chunks,
    resolve_collapse,
)
from repro.core.engine import run_inprocess_fallback
from repro.core.faultinject import FaultPlan, FaultSpec, chaos_plan_from_env
from repro.core.kernels import (
    DEFAULT_TABLE_BUDGET_BYTES,
    KERNELS,
    KernelPlan,
    StrideTables,
    plan_kernel,
    process_chunks_kernel,
    run_segment_kernel,
)
from repro.core.local import process_chunks
from repro.core.lookback import speculate, state_prior
from repro.core.merge_par import compose_maps, merge_parallel
from repro.core.replay import ChunkReplay
from repro.core.resilience import (
    DEFAULT_RESILIENCE,
    DegradedExecution,
    PoolClosedError,
    ResilienceConfig,
    SupervisedWorkerPool,
    SupervisionReport,
)
from repro.core.types import ChunkResults, ExecStats
from repro.fsm.alphabet import AlphabetCompaction
from repro.fsm.dfa import DFA
from repro.obs.trace import add_count, current_trace, trace_span
from repro.util.validation import check_in_set, check_symbols
from repro.workloads.chunking import plan_chunks

__all__ = [
    "POOL_BACKENDS",
    "ScaleoutPool",
    "fold_segment_map",
    "MultiprocessResult",
    "PoolClosedError",
    "PoolRunTiming",
    "WorkerTiming",
]

#: Hot-path backends of :class:`ScaleoutPool` (and of the dist agents that
#: embed one): the engine's names for the NumPy path and the compiled one.
POOL_BACKENDS = ("vectorized", "native")


@dataclass(frozen=True)
class WorkerTiming:
    """Wall-clock breakdown of one worker's task (seconds, worker's clock).

    ``attach_s`` covers shared-memory segment attach/eviction, ``exec_s``
    the speculation plus lock-step local processing, ``fold_s`` the
    semi-join fold of sub-chunk maps (including any local re-execution).
    ``total_s`` is measured independently around the whole task, so
    ``attach_s + exec_s + fold_s <= total_s`` up to clock resolution.
    """

    attach_s: float
    exec_s: float
    fold_s: float
    total_s: float


@dataclass(frozen=True)
class PoolRunTiming:
    """Parent-side wall-clock breakdown of one :meth:`ScaleoutPool.run`.

    All fields are seconds on the parent's clock. ``dispatch_s`` is task
    serialization + submission; ``wait_s`` the wait for worker results
    (covers the workers' own execution); ``merge_s`` the parent's binary
    tree merge including any fix-up re-execution. ``total_s`` is
    measured independently around the whole call — the stage test asserts
    the components sum to within tolerance of it.
    """

    speculate_s: float
    publish_s: float
    dispatch_s: float
    wait_s: float
    merge_s: float
    total_s: float

    @property
    def stages_s(self) -> float:
        """Sum of the attributed stage components (seconds)."""
        return (
            self.speculate_s + self.publish_s + self.dispatch_s
            + self.wait_s + self.merge_s
        )


@dataclass
class MultiprocessResult:
    """Outcome of a multiprocess run.

    ``timing`` and ``worker_timings`` are always populated by
    :meth:`ScaleoutPool.run` (they cost a handful of ``perf_counter``
    reads); ``worker_timings`` is empty for degenerate runs that never
    dispatched (empty input, single worker).

    ``degraded`` is True when supervision gave up on the pool and the
    result came from the in-process fallback — still correct, just not
    scaled out. ``recovery`` carries the run's
    :class:`repro.core.resilience.SupervisionReport` whenever any recovery
    action fired (always on degraded runs; None on clean runs).
    """

    final_state: int
    num_workers: int
    segment_reexecs: int
    stats: ExecStats
    reexec_segments: tuple[int, ...] = ()
    timing: PoolRunTiming | None = None
    worker_timings: tuple[WorkerTiming, ...] = field(default=())
    degraded: bool = False
    recovery: SupervisionReport | None = None


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #

# Shared-memory attachments live for the worker process's whole life; a task
# carries segment *names* only. Keyed by name; segments whose names are not in
# the current task are stale (the parent grew the input buffer) and are closed.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}

# Every pool publishes its input as int32 symbols, range-checked and
# copied in blocks of this many (1 MiB: the check's read stays in cache
# for the copy).
_INPUT_DTYPE = np.dtype(np.int32)
_PUBLISH_BLOCK = 1 << 18

# Native artifacts load once per worker process and are reused across tasks
# (the parent ships the compiled .so *path* the same way it ships SHM segment
# names). A failed load caches None so every retry doesn't re-attempt dlopen.
_NATIVE_MISS = object()
_NATIVE_LIBS: dict[str, object] = {}


def _worker_native(path, meta, kplan):
    """Resolve the shipped native artifact inside a worker (cached).

    The returned kernel binds the *first* task's kernel-plan views; those
    views alias the pool's shared segments, whose names stay in every
    task's keep-set for the pool's life, so reuse across tasks is safe.
    Returns None (and caches the failure) when loading is impossible —
    the worker then runs its NumPy path, bit-identically.
    """
    if path is None:
        return None
    nk = _NATIVE_LIBS.get(path, _NATIVE_MISS)
    if nk is _NATIVE_MISS:
        from repro.core.native import load_artifact

        nk = load_artifact(path, tuple(meta), kplan)
        _NATIVE_LIBS[path] = nk
    return nk


_TRACKER_INHERITED: bool | None = None


def _tracker_inherited() -> bool:
    """Whether this process shares the pool parent's resource tracker.

    Forked workers inherit the parent's tracker: their attach-registrations
    deduplicate against the parent's and the parent's ``unlink`` clears
    them, so nothing extra is needed. A *spawned* worker starts its own
    tracker, which would unlink the pool's live segments when the worker
    exits — those registrations must be withdrawn after each attach.
    Snapshot before the first attach (attaching starts a tracker itself).
    """
    global _TRACKER_INHERITED
    if _TRACKER_INHERITED is None:
        try:
            from multiprocessing.resource_tracker import _resource_tracker

            _TRACKER_INHERITED = _resource_tracker._fd is not None
        except Exception:  # pragma: no cover - stdlib internals moved
            _TRACKER_INHERITED = False
    return _TRACKER_INHERITED


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment; cleanup stays with the creating process."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        shm = shared_memory.SharedMemory(name=name)
        if not _tracker_inherited():
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(
                    getattr(shm, "_name", name), "shared_memory"
                )
            except Exception:  # pragma: no cover - best effort
                pass
        return shm


def _attached_array(name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    shm = _ATTACHED.get(name)
    if shm is None:
        shm = _ATTACHED[name] = _attach_shm(name)
    return np.ndarray(shape, dtype=dtype, buffer=shm.buf)


def _evict_stale(keep: frozenset) -> None:
    for name in [n for n in _ATTACHED if n not in keep]:
        try:
            _ATTACHED.pop(name).close()
        except BufferError:  # a view from the previous task is still alive
            pass


class _Task(NamedTuple):
    """One worker task: the pool's shared-segment names plus one slice.

    Built only by :meth:`ScaleoutPool._task`, the single place the field
    order lives; tasks carry names and one boundary row, never a table or
    the input. The worker returns the segment ``lo:hi``'s folded map over
    ``boundary_row`` (over every state when None: spec-N workers).
    """

    table: str
    accepting: str
    prior: str
    class_of: str
    class_table: str
    stride: str | None
    input: str
    input_len: int
    num_inputs: int
    num_states: int
    num_classes: int
    stride_m: int
    kernel: str
    k: int | None
    sub_chunks: int
    lookback: int
    collapse: tuple[int, int] | None
    native_path: str | None
    native_meta: tuple | None
    lo: int
    hi: int
    boundary_row: np.ndarray | None


def _attach_task(task: _Task):
    """Attach ``task``'s shared segments (cached for the worker's life).

    Returns ``(dfa, kplan, prior, segment, new_attaches)``. The kernel plan
    is rebuilt as *views* on the pool's shared segments: the parent paid
    compaction and table composition once at publish time, workers pay
    one attach.
    """
    _tracker_inherited()  # snapshot before the first attach registers anything
    names = (task.table, task.accepting, task.prior, task.input,
             task.class_of, task.class_table, task.stride)
    _evict_stale(frozenset(n for n in names if n is not None))
    attached_before = len(_ATTACHED)
    S, C = task.num_states, task.num_classes
    table = _attached_array(task.table, (task.num_inputs, S), np.int32)
    accepting = _attached_array(task.accepting, (S,), np.bool_)
    prior = _attached_array(task.prior, (S,), np.float64)
    inputs = _attached_array(task.input, (task.input_len,), _INPUT_DTYPE)
    class_of = _attached_array(task.class_of, (task.num_inputs,), np.int32)
    class_table = _attached_array(task.class_table, (C, S), np.int32)
    tables = None
    if task.stride is not None:
        table_m = _attached_array(task.stride, (C ** task.stride_m, S), np.int32)
        tables = StrideTables(m=task.stride_m, table_m=table_m, build_s=0.0)
    kplan = KernelPlan(
        kernel=task.kernel,
        compaction=AlphabetCompaction(
            class_of=class_of, table=class_table, num_symbols=task.num_inputs
        ),
        tables=tables,
        build_s=0.0,
        predicted_cost_s={},
    )
    # Chunk 0 enters at the shipped boundary row, so the machine's own
    # start is never read.
    dfa = DFA(table=table, start=0, accepting=accepting)
    new_attaches = len(_ATTACHED) - attached_before
    return dfa, kplan, prior, inputs[task.lo:task.hi], new_attaches


def _segment_maps(
    dfa: DFA,
    kplan: KernelPlan,
    segment: np.ndarray,
    plan,
    boundary_row: np.ndarray | None,
    *,
    k: int | None,
    lookback: int,
    prior: np.ndarray | None,
    collapse: CollapseConfig | None = None,
    native=None,
    stats: ExecStats | None = None,
):
    """Per-chunk ``(spec, end)`` maps of one segment, plus a converged mask.

    Chunk 0 enters at ``boundary_row`` when one is given: its look-back
    crosses into the left neighbour's segment, which only the parent can
    see. With ``collapse``, duplicate lanes collapse mid-advancement and
    the mask flags converged chunks (constant maps over every achievable
    incoming state); it is None otherwise. The native, stride and
    lockstep drivers are bit-identical.
    """
    covered = None
    if k is None or k >= dfa.num_states:
        spec = np.tile(
            np.arange(dfa.num_states, dtype=np.int32), (plan.num_chunks, 1)
        )
        if collapse is not None:
            covered = np.ones(plan.num_chunks, dtype=bool)
    elif collapse is not None:
        spec, covered = speculate(
            dfa, segment, plan, k, lookback=lookback, prior=prior,
            return_coverage=True,
        )
        covered[0] = False  # the parent assesses segment-boundary coverage
    else:
        spec = speculate(dfa, segment, plan, k, lookback=lookback, prior=prior)
    if boundary_row is not None:
        spec[0] = boundary_row
    if native is not None and native.spec.k == spec.shape[1]:
        # Collapse (when enabled) is baked into the artifact's cadence.
        end = native.process_chunks(segment, plan, spec, stats=stats)
    elif kplan.kernel == "lockstep":
        end, _ = process_chunks(
            dfa, segment, plan, spec, stats=stats, collapse=collapse
        )
    else:
        end = process_chunks_kernel(
            dfa, segment, plan, spec, kplan, stats=stats, collapse=collapse
        )
    converged = None if covered is None else converged_chunks(end, covered)
    return spec, end, converged


def _fold_left(row, spec, end, reexec, *, converged=None):
    """Carry ``row`` left to right through the maps ``spec[c] -> end[c]``.

    The one left fold of the pool: every lane steps by semi-join
    (:func:`repro.core.merge_par.compose_maps`, which takes a row of any
    width against the maps' width). A lane whose state map ``c`` did not
    speculate re-executes as ``reexec(c, state)``, so the result is exact.
    A ``converged[c]`` map is constant over every achievable incoming
    state: all lanes take ``end[c, 0]`` without a probe. Returns ``(row,
    misses)`` where ``misses[c]`` counts the lanes map ``c`` re-executed.
    """
    cur = np.asarray(row, dtype=np.int32)[None, :]
    valid_left = np.ones(cur.shape, dtype=bool)
    valid_right = np.ones((1, spec.shape[1]), dtype=bool)
    misses = np.zeros(len(spec), dtype=np.int64)
    for c in range(len(spec)):
        if converged is not None and converged[c]:
            cur = np.full_like(cur, end[c, 0])
            continue
        nxt, found, _ = compose_maps(
            cur, valid_left, spec[c][None, :], end[c][None, :], valid_right
        )
        lanes = np.flatnonzero(~found[0])
        for j in lanes:
            nxt[0, j] = reexec(c, int(cur[0, j]))
        misses[c] = lanes.size
        cur = nxt
    return cur[0].copy(), misses


def _fold_chunks(spec, end, segment, plan, kplan, *, converged=None, native=None):
    """Fold one segment's chunk maps into its map over ``spec[0]``.

    Returns ``(row, reexec_chunks, reexec_items, gathers, checks_skipped)``.
    Misses re-execute on the kernel plan (class-mapped, stride-packed),
    or in C when a native kernel of the row's width is given.
    """
    if native is not None and native.spec.k == spec.shape[1]:
        row, fc = native.fold_maps(
            spec, end, segment, plan.starts, plan.lengths, converged=converged
        )
        return row, fc.reexec_chunks, fc.reexec_items, fc.gathers, fc.checks_skipped
    tail = None if converged is None else converged[1:]
    row, misses = _fold_left(
        end[0], spec[1:], end[1:],
        ChunkReplay(partial(run_segment_kernel, kplan), segment, plan, first=1),
        converged=tail,
    )
    skipped = 0 if tail is None else int(tail.sum()) * spec.shape[1]
    reexec_items = int(misses @ plan.lengths[1:])
    return row, int(np.count_nonzero(misses)), reexec_items, 0, skipped


def _worker_run(task: _Task) -> tuple:
    """Run one segment task inside a worker process.

    Returns the 6-tuple ``(spec_row, end_row, reexec_chunks,
    reexec_items, timings, counters)`` the parent validates: the
    segment's ``sub_chunks`` speculative chunk maps folded left to right;
    a speculation miss re-executes the chunk locally, so the row is
    complete over ``spec_row``.

    ``timings`` is ``(attach_s, exec_s, fold_s, total_s, new_attaches)``
    and ``counters`` is ``(local_gathers, collapse_scans,
    lanes_collapsed, chunks_converged, checks_skipped)`` — they ride the
    result because worker processes cannot see the parent's ambient
    :class:`repro.obs.RunTrace`.

    The collapse cadence and the native artifact path ride the task like
    the segment names: a retried or respawned worker rebuilds the same
    collapse state, and the worker dlopens the artifact once per process,
    falling back to the bit-identical NumPy path when it cannot.
    """
    t_task = time.perf_counter()
    dfa, kplan, prior, segment, new_attaches = _attach_task(task)
    t_attach = time.perf_counter()
    nk = _worker_native(task.native_path, task.native_meta, kplan)
    plan = plan_chunks(segment.size, task.sub_chunks)
    collapse = None
    if task.collapse is not None:
        collapse = CollapseConfig(cadence=task.collapse[0], backoff=task.collapse[1])
    wstats = ExecStats()
    spec, end, converged = _segment_maps(
        dfa, kplan, segment, plan, task.boundary_row,
        k=task.k, lookback=task.lookback, prior=prior,
        collapse=collapse, native=nk, stats=wstats,
    )
    t_exec = time.perf_counter()
    row, reexec_chunks, reexec_items, gathers, skipped = _fold_chunks(
        spec, end, segment, plan, kplan, converged=converged, native=nk
    )
    counters = (
        int(wstats.local_gathers) + gathers,
        int(wstats.collapse_scans),
        int(wstats.lanes_collapsed),
        0 if converged is None else int(converged.sum()),
        skipped,
    )
    t_done = time.perf_counter()
    timings = (
        t_attach - t_task, t_exec - t_attach, t_done - t_exec,
        t_done - t_task, new_attaches,
    )
    return spec[0].copy(), row, reexec_chunks, reexec_items, timings, counters


def fold_segment_map(
    dfa: DFA,
    kplan: KernelPlan,
    inputs: np.ndarray,
    boundary_row: np.ndarray,
    *,
    sub_chunks: int = 16,
    k: int | None = None,
    lookback: int = 8,
    prior: np.ndarray | None = None,
    native=None,
) -> np.ndarray:
    """In-process ``speculated -> ending`` map of one segment.

    Lane ``j`` of the returned row is the machine's state after
    ``inputs`` when it entered at ``boundary_row[j]`` — the same folded
    segment map a pool worker computes, without a pool: the segment is
    split into ``sub_chunks`` speculative chunks, processed through the
    kernel layer, and folded left to right with
    :func:`repro.core.merge_par.compose_maps`, re-executing speculation
    misses locally so the map is always complete over ``boundary_row``.

    This is the single-process leaf of the cross-host hierarchy
    (:mod:`repro.dist`): a host agent with one worker, or a pool whose
    supervision degraded, still returns an exact map for the
    coordinator's host-level tree merge. ``boundary_row`` length must
    equal the speculation width the caller runs everywhere else
    (``k``, or ``num_states`` for spec-N).
    """
    boundary_row = np.ascontiguousarray(
        np.asarray(boundary_row, dtype=np.int32)
    )
    if boundary_row.ndim != 1:
        raise ValueError(
            f"boundary_row must be 1-D, got shape {boundary_row.shape}"
        )
    width = int(boundary_row.size)
    k_eff = dfa.num_states if (k is None or k >= dfa.num_states) else int(k)
    if width != k_eff:
        raise ValueError(
            f"boundary_row has {width} lanes but k_eff is {k_eff}"
        )
    inputs = np.ascontiguousarray(np.asarray(inputs, dtype=np.int32))
    if inputs.size == 0:
        return boundary_row.copy()
    plan = plan_chunks(int(inputs.size), max(1, min(int(sub_chunks), int(inputs.size))))
    spec, end, _ = _segment_maps(
        dfa, kplan, inputs, plan, boundary_row,
        k=k, lookback=lookback, prior=prior, native=native,
    )
    return _fold_chunks(spec, end, inputs, plan, kplan, native=native)[0]


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #


@dataclass
class _Round:
    """What one :meth:`ScaleoutPool._round` hands back to its caller.

    ``outs`` holds the worker results by task, or None when supervision
    gave up (the caller then finishes in-process). Timestamps are the
    parent's ``perf_counter`` after dispatch and after the wait.
    """

    outs: list | None
    timings: tuple[WorkerTiming, ...]
    t_dispatch: float
    t_wait: float

# Pools still open at interpreter exit: abnormal teardown (an exception that
# skips `close`, a test harness that drops the reference) must not leak
# /dev/shm segments, so one atexit hook closes whatever remains. The WeakSet
# never keeps a pool alive — __del__ stays the ordinary cleanup path.
_LIVE_POOLS: weakref.WeakSet = weakref.WeakSet()


def _close_live_pools(*, unmap: bool = True) -> None:
    """Close any pool still registered at interpreter shutdown.

    ``unmap=False`` (the signal path) stops workers and unlinks segment
    names but leaves the mappings to process exit — see ``_release``.
    """
    for pool in list(_LIVE_POOLS):
        try:
            pool._release(unmap=unmap)
        except Exception:  # pragma: no cover - best effort at shutdown
            pass


atexit.register(_close_live_pools)

# The atexit hook covers normal interpreter exit, but a SIGTERM/SIGINT with
# the *default* disposition kills the process without running atexit — and
# with it, leaks every live pool's /dev/shm segments and worker processes.
# The first pool constructed from the main thread therefore installs a
# teardown handler for both signals, only where the handler is still the
# Python default (a host application's own handlers are never clobbered,
# and then owns teardown — the atexit path still covers it if its handler
# exits cleanly). The handler closes every live pool, then re-delivers the
# signal's default behaviour so exit status and KeyboardInterrupt semantics
# are unchanged. The handler runs on the main thread while a run thread may
# still be copying into or gathering over a segment, so it only unlinks
# names and never unmaps: unmapping under that thread is a segfault.
_SIGNAL_TEARDOWN_INSTALLED = False


def _signal_teardown(signum: int, frame) -> None:
    """Release live pools, then re-deliver the signal's default action."""
    _close_live_pools(unmap=False)
    if signum == signal.SIGINT:
        signal.signal(signum, signal.default_int_handler)
        raise KeyboardInterrupt
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _install_signal_teardown() -> None:
    """Install the teardown handler once, from the main thread only."""
    global _SIGNAL_TEARDOWN_INSTALLED
    if _SIGNAL_TEARDOWN_INSTALLED:
        return
    if threading.current_thread() is not threading.main_thread():
        return  # signal.signal is main-thread-only; retry on a later pool
    try:
        for sig in (signal.SIGTERM, signal.SIGINT):
            if signal.getsignal(sig) in (
                signal.SIG_DFL, signal.default_int_handler,
            ):
                signal.signal(sig, _signal_teardown)
    except (ValueError, OSError):  # pragma: no cover - exotic platform
        return
    _SIGNAL_TEARDOWN_INSTALLED = True


class ScaleoutPool:
    """A persistent shared-memory worker pool for CPU scale-out.

    Created once per machine: the DFA table, accepting mask, and state prior
    are published to shared memory at construction, the input buffer on the
    first :meth:`run` (grown geometrically afterwards), and worker processes
    persist across calls — so repeated runs (many inputs against one
    machine) pay no per-call pickling of tables or input and no
    process spawn after warm-up.

    Use as a context manager, or call :meth:`close` when done — the pool
    owns operating-system resources (processes and shared-memory segments).

    Parameters
    ----------
    dfa:
        The machine all runs execute.
    num_workers:
        Worker process count (one input segment each).
    k:
        ``None`` for spec-N workers (exact maps, no re-execution — right
        choice for small machines); a finite width for speculative workers
        (right choice when ``num_states`` is large enough that enumerating
        every state costs more than the occasional boundary miss).
    sub_chunks_per_worker:
        Lock-step chunks inside each worker (its internal parallelism).
    lookback:
        Look-back window for boundary and worker-internal speculation.
    kernel:
        Stepping kernel for worker-side local processing
        (:mod:`repro.core.kernels`): ``"auto"`` (default, cost-model
        choice), ``"lockstep"``, ``"stride2"``, or ``"stride4"``. The
        compacted class map and any stride table are built **once at
        construction** and published to shared memory alongside the raw
        table, so workers pay zero rebuild cost per dispatch.
    table_budget_bytes:
        Memory cap for the composed stride table (``"auto"`` never picks
        a kernel whose table exceeds it).
    collapse:
        Convergence layer (:mod:`repro.core.convergence`) for worker-side
        local processing and the merge short-circuit: ``"auto"`` (default
        — probe the machine on the first run, enable when a convergence
        horizon exists), ``"on"``, ``"off"``, or an explicit
        :class:`CollapseConfig`. The resolved cadence ships inside each
        task tuple, so retried and respawned workers rebuild the same
        collapse state deterministically.
    backend:
        Hot-path implementation: ``"vectorized"`` (default, NumPy) or
        ``"native"``
        (compile the specialized C kernel via :mod:`repro.core.native`,
        matching the engine's explicit ``backend="native"`` opt-in). The
        parent compiles **once** — lazily, after collapse resolution so
        the cadence is baked in — and ships the artifact *path* inside
        each task tuple the same way it ships shared-memory segment
        names; each worker dlopens it once per process. Every failure
        mode (no compiler, load error, smoke-check mismatch) falls back
        to the vectorized path, bit-identically.
    resilience:
        :class:`repro.core.resilience.ResilienceConfig` governing worker
        supervision (deadlines, retry, respawn, quorum). The default keeps
        supervision on with conservative policies; pass ``None`` to run
        unsupervised (worker failure raises — the pre-resilience
        semantics, kept for overhead baselines).
    fault_plan:
        Deterministic fault injection
        (:class:`repro.core.faultinject.FaultPlan`) for drills and tests.
        When omitted *and* supervision is on, the ``REPRO_CHAOS``
        environment variable arms a seeded one-kill-per-pool plan (the CI
        chaos job); otherwise no faults are injected.
    """

    def __init__(
        self,
        dfa: DFA,
        *,
        num_workers: int = 4,
        k: int | None = None,
        sub_chunks_per_worker: int = 64,
        lookback: int = 8,
        kernel: str = "auto",
        table_budget_bytes: int = DEFAULT_TABLE_BUDGET_BYTES,
        collapse: str | CollapseConfig | None = "auto",
        backend: str = "vectorized",
        resilience: ResilienceConfig | None = DEFAULT_RESILIENCE,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        # Everything `close` touches exists before anything can fail, so
        # teardown after a failed construction (from the except below,
        # `__del__`, or the atexit hook) never trips an AttributeError and
        # never leaks a published segment.
        self._closed = False
        # Serializes input-segment (re)publication against close(): a
        # signal handler tearing the pool down mid-run must either see a
        # registered segment (and unlink it) or make the publisher unlink
        # its own orphan. RLock — the handler runs on the main thread and
        # may interrupt a publisher on the main thread.
        self._shm_lock = threading.RLock()
        self._sup: SupervisedWorkerPool | None = None
        self._table_shm = None
        self._acc_shm = None
        self._prior_shm = None
        self._class_of_shm = None
        self._class_table_shm = None
        self._stride_shm = None
        self._input_shm: shared_memory.SharedMemory | None = None
        self._input_capacity = 0
        try:
            if num_workers < 1:
                raise ValueError(f"num_workers must be >= 1, got {num_workers}")
            if k is not None and k < 1:
                raise ValueError(f"k must be >= 1 or None, got {k}")
            if kernel != "auto" and kernel not in KERNELS:
                raise ValueError(
                    f"unknown kernel {kernel!r}; available: "
                    f"{sorted(KERNELS)} or 'auto'"
                )
            if isinstance(collapse, str) and collapse not in ("auto", "on", "off"):
                raise ValueError(
                    f"collapse must be 'auto', 'on', 'off', or a "
                    f"CollapseConfig, got {collapse!r}"
                )
            check_in_set("backend", backend, POOL_BACKENDS)
            self._backend = backend
            self._native = None
            # Sentinel distinct from any collapse tag: "never loaded".
            self._native_tag: object = ("unloaded",)
            self._collapse_mode = collapse
            self._collapse_requested = not (
                collapse is None
                or collapse == "off"
                or (isinstance(collapse, CollapseConfig) and not collapse.enabled)
            )
            # "auto" needs an input sample to probe; resolved lazily on the
            # first non-empty run and cached for the pool's life.
            self._collapse_cfg: CollapseConfig | None = None
            self._collapse_resolved = not self._collapse_requested
            self.dfa = dfa
            self.num_workers = int(num_workers)
            self.k = None if (k is None or k >= dfa.num_states) else int(k)
            self.k_eff = dfa.num_states if self.k is None else self.k
            self.sub_chunks_per_worker = int(sub_chunks_per_worker)
            self.lookback = int(lookback)
            self.calls = 0
            self.resilience = resilience
            if fault_plan is None and resilience is not None:
                fault_plan = chaos_plan_from_env(self.num_workers)
            self._fault_plan = fault_plan if fault_plan is not None else FaultPlan()
            self._bps_ewma: float | None = None

            # Resolve the stepping kernel once, for the pool's whole life.
            # The chunk length is unknown until inputs arrive, so selection
            # assumes pool-scale segments (the pool exists for large
            # inputs) and amortizes the one-time table build over the
            # expected call volume.
            self._kplan = plan_kernel(
                dfa,
                chunk_len=1 << 14,
                num_chunks=self.num_workers * self.sub_chunks_per_worker,
                k=self.k_eff,
                kernel=kernel,
                table_budget_bytes=table_budget_bytes,
                amortize_builds=16,
            )
            self.kernel = self._kplan.kernel

            # Segments that outlive every call: table, accepting mask,
            # prior, and the kernel layer's class map / class table /
            # stride table.
            self._prior = state_prior(dfa)
            self._table_shm = self._publish(dfa.table)
            self._acc_shm = self._publish(dfa.accepting)
            self._prior_shm = self._publish(self._prior)
            self._class_of_shm = self._publish(self._kplan.compaction.class_of)
            self._class_table_shm = self._publish(self._kplan.compaction.table)
            self._stride_shm = (
                self._publish(self._kplan.tables.table_m)
                if self._kplan.tables is not None
                else None
            )
            self._sup = SupervisedWorkerPool(
                _worker_run,
                self.num_workers,
                config=resilience,
                fault_plan=self._fault_plan,
            )
        except BaseException:
            self.close()
            raise
        _install_signal_teardown()
        _LIVE_POOLS.add(self)

    # ------------------------------------------------------------------ #
    # shared-memory plumbing
    # ------------------------------------------------------------------ #

    @staticmethod
    def _publish(array: np.ndarray) -> shared_memory.SharedMemory:
        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)[...] = array
        return shm

    def _ensure_input_capacity(self, n: int) -> None:
        if n > self._input_capacity or self._input_shm is None:
            self._swap_input_segment(max(n, 2 * self._input_capacity, 1))

    def _swap_input_segment(
        self, capacity: int, fill: np.ndarray | None = None
    ) -> None:
        """Replace the input segment with a fresh one, optionally filled.

        Created *inside* the lock: close() flips ``_closed`` and snapshots
        the segment list under the same lock, so a segment is either
        refused (pool already closed) or registered before the closing
        sweep runs — never created-but-unregistered when a signal handler
        tears the pool down concurrently. A ``fill`` is copied under the
        lock too, so a concurrent close cannot unmap the fresh segment
        mid-copy (only the rare unlink-race republish fills here).
        """
        with self._shm_lock:
            if self._closed:
                raise PoolClosedError("ScaleoutPool is closed")
            new = shared_memory.SharedMemory(
                create=True, size=capacity * _INPUT_DTYPE.itemsize
            )
            if fill is not None:
                np.ndarray(fill.shape, dtype=_INPUT_DTYPE, buffer=new.buf)[:] = fill
            old = self._input_shm
            self._input_shm = new
            self._input_capacity = capacity
        if old is not None:
            old.close()
            try:
                old.unlink()
            except FileNotFoundError:  # an injected unlink race got there first
                pass

    @property
    def shm_bytes(self) -> int:
        """Bytes currently held in shared-memory segments."""
        total = self._table_shm.size + self._acc_shm.size + self._prior_shm.size
        total += self._class_of_shm.size + self._class_table_shm.size
        if self._stride_shm is not None:
            total += self._stride_shm.size
        if self._input_shm is not None:
            total += self._input_shm.size
        return total

    # ------------------------------------------------------------------ #
    # resilience plumbing
    # ------------------------------------------------------------------ #

    def _apply_parent_fault(self, spec: FaultSpec, report: SupervisionReport) -> None:
        """Inject one parent-side fault (the SHM unlink race)."""
        if spec.kind != "shm_unlink" or self._input_shm is None:
            return
        try:
            self._input_shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double injection
            pass
        if self._fault_plan.mark_fired(spec.fault_id):
            report.faults_fired += 1
            add_count("fault.injected")
            report.record("fault_fired", detail=spec.fault_id)

    def _input_segment_missing(self) -> bool:
        """Whether the input segment's name has vanished from /dev/shm."""
        if self._input_shm is None:
            return True
        try:
            probe = _attach_shm(self._input_shm.name)
        except FileNotFoundError:
            return True
        probe.close()
        return False

    def _republish_input(self, inputs: np.ndarray) -> None:
        """Publish the input under a fresh segment name (after an unlink).

        Retried tasks are rebuilt via :meth:`_task`, which reads the live
        segment name, so workers re-attach the new segment on their next
        attempt.
        """
        self._swap_input_segment(
            max(self._input_capacity, int(inputs.size), 1), fill=inputs
        )

    def _valid_worker_map(self, payload: tuple) -> bool:
        """Reject corrupted worker results (states outside the machine)."""
        if not (isinstance(payload, tuple) and len(payload) == 6):
            return False
        num_states = self.dfa.num_states
        for row in (payload[0], payload[1]):
            if not isinstance(row, np.ndarray):
                return False
            if row.size and not bool(((row >= 0) & (row < num_states)).all()):
                return False
        return True

    def _ensure_native(self):
        """Resolve the pool's native kernel lazily (compile once, reuse).

        Called at each point of use rather than in ``__init__`` so the
        artifact can bake in the collapse cadence, which ``"auto"``
        collapse only resolves on the first non-empty run. If the
        resolved collapse changes after an early load (a single-worker
        call preceding the first multi-worker run), the kernel is
        reloaded under the new tag — cheap through the memory/disk
        caches. Returns None whenever native execution is unavailable;
        callers use the vectorized path unchanged.
        """
        if self._backend != "native":
            return None
        cfg = self._collapse_cfg if self._collapse_resolved else None
        tag = None if cfg is None else (cfg.enabled, cfg.cadence, cfg.backoff)
        if tag == self._native_tag:
            return self._native
        from repro.core.native import load_native_plan

        self._native = load_native_plan(
            self.dfa,
            k=self.k_eff,
            kplan=self._kplan,
            collapse=cfg,
            num_chunks=self.num_workers * self.sub_chunks_per_worker,
        )
        self._native_tag = tag
        return self._native

    def _run_segment(self, segment: np.ndarray, state: int) -> int:
        """Re-execute ``segment`` from ``state`` in the parent.

        Through the native kernel when one is loaded, else the kernel
        layer's class-mapped stride stepping from the construction-time
        tables.
        """
        nk = self._ensure_native()
        if nk is not None:
            return nk.run_segment(segment, state)
        return run_segment_kernel(self._kplan, segment, state)

    def _replay(self, inputs: np.ndarray, plan, *, first: int = 0) -> ChunkReplay:
        """The call's one replay hook: :meth:`_run_segment` over ``plan``."""
        path = "native" if self._ensure_native() is not None else "vectorized"
        return ChunkReplay(
            self._run_segment, inputs, plan, path=path, first=first,
        )

    def _resolve_collapse(self, inputs: np.ndarray) -> None:
        """Resolve ``"auto"`` collapse on the first non-empty input (cached)."""
        if not self._collapse_resolved:
            self._collapse_cfg = resolve_collapse(
                self._collapse_mode, self.dfa, inputs, k=self.k_eff
            )
            self._collapse_resolved = True

    def _symbols(self, inputs, what: str = "inputs") -> np.ndarray:
        """``inputs`` as a contiguous 1-D int32 symbol stream."""
        arr = np.ascontiguousarray(np.asarray(inputs, dtype=_INPUT_DTYPE))
        if arr.ndim != 1:
            raise ValueError(f"{what} must be 1-D, got shape {arr.shape}")
        return arr

    def _publish_input(
        self, data: np.ndarray, stats: ExecStats, report: SupervisionReport
    ) -> None:
        """Copy ``data`` into the input segment, range-checking it first.

        Each block is checked just before it is copied, so the copy reads
        cache-hot symbols and the check costs a fraction of a separate
        pass; a bad symbol raises before anything is speculated or
        dispatched. Then fires any parent-side fault due on this call.
        """
        n = int(data.size)
        with trace_span("pool.publish_input", bytes=int(data.nbytes)):
            self._ensure_input_capacity(n)
            buf = np.ndarray((n,), dtype=_INPUT_DTYPE, buffer=self._input_shm.buf)
            for lo in range(0, n, _PUBLISH_BLOCK):
                block = data[lo:lo + _PUBLISH_BLOCK]
                check_symbols(block, self.dfa.num_inputs)
                buf[lo:lo + _PUBLISH_BLOCK] = block
        stats.pool_shm_bytes = self.shm_bytes
        add_count("pool.shm.input_bytes", int(data.nbytes))
        for fault in self._fault_plan.parent_faults(self.calls):
            self._apply_parent_fault(fault, report)

    def _new_stats(self, n: int, k: int) -> ExecStats:
        stats = ExecStats(
            num_items=n,
            num_chunks=self.num_workers,
            k=k,
            num_states=self.dfa.num_states,
            num_inputs=self.dfa.num_inputs,
        )
        stats.pool_calls += 1
        return stats

    def _task(self, n: int, lo: int, hi: int, row) -> _Task:
        """Build one worker task — the only constructor of :class:`_Task`.

        Reads the *live* input segment name, so a task rebuilt for retry
        after a republish points workers at the fresh segment.
        """
        cfg = self._collapse_cfg
        collapse = None if cfg is None else (cfg.cadence, cfg.backoff)
        nk = self._native
        return _Task(
            table=self._table_shm.name,
            accepting=self._acc_shm.name,
            prior=self._prior_shm.name,
            class_of=self._class_of_shm.name,
            class_table=self._class_table_shm.name,
            stride=None if self._stride_shm is None else self._stride_shm.name,
            input=self._input_shm.name,
            input_len=n,
            num_inputs=self.dfa.num_inputs,
            num_states=self.dfa.num_states,
            num_classes=self._kplan.compaction.num_classes,
            stride_m=self._kplan.m,
            kernel=self.kernel,
            k=self.k,
            sub_chunks=self.sub_chunks_per_worker,
            lookback=self.lookback,
            collapse=collapse,
            native_path=None if nk is None else nk.artifact_path,
            native_meta=None if nk is None else nk.meta,
            lo=lo,
            hi=hi,
            boundary_row=row,
        )

    def _round(
        self,
        data: np.ndarray,
        spans,
        rows,
        stats: ExecStats,
        report: SupervisionReport,
    ) -> _Round:
        """One pool round: dispatch one task per span, wait, account.

        ``data`` is the symbol stream the tasks index, already copied into
        the input segment by :meth:`_publish_input`. ``spans`` is the
        :class:`~repro.workloads.chunking.ChunkPlan` of per-task item
        ranges; ``rows[i]`` is task ``i``'s boundary row. A worker that
        cannot find the input segment hit an unlink race: the segment is
        republished under a fresh name before the retry fires. Worker
        counters fold into ``stats``; each worker adds a
        :class:`WorkerTiming` row, a ``pool.worker`` span and a throughput
        sample for the deadline model. ``outs`` is None when supervision
        gave up — the caller then finishes in-process.
        """
        obs = current_trace()
        n = int(data.size)
        num_tasks = spans.num_chunks

        def build(i: int) -> _Task:
            lo = int(spans.starts[i])
            return self._task(n, lo, lo + int(spans.lengths[i]), rows[i])

        def on_error(
            tid: int, exc_type: str, exc_repr: str, rep: SupervisionReport
        ) -> None:
            if exc_type == "FileNotFoundError" and self._input_segment_missing():
                self._republish_input(data)
                rep.shm_republishes += 1
                add_count("fault.shm_republished")
                rep.record("shm_republish", task=tid, detail=exc_repr)

        with trace_span("pool.dispatch", workers=num_tasks) as dispatch_span:
            tasks = [build(i) for i in range(num_tasks)]
            task_bytes = sum(len(pickle.dumps(t)) for t in tasks)
            stats.pool_task_bytes += task_bytes
            dispatch_span.set(task_bytes=task_bytes)
        nbytes = [int(x) * _INPUT_DTYPE.itemsize for x in spans.lengths]
        t_dispatch = time.perf_counter()
        try:
            with trace_span("pool.wait", workers=num_tasks):
                outs = self._sup.run_tasks(
                    tasks,
                    task_nbytes=nbytes,
                    bytes_per_sec=self._bps_ewma,
                    rebuild=build,
                    validate=lambda _tid, payload: self._valid_worker_map(payload),
                    on_error=on_error,
                    report=report,
                )
        except DegradedExecution:
            self._check_open_for_fallback()
            t_wait = time.perf_counter()
            return _Round(None, (), t_dispatch, t_wait)
        t_wait = time.perf_counter()

        timings = []
        for i, (m, nb) in enumerate(zip(outs, nbytes)):
            stats.reexec_chunks_seq += m[2]
            stats.reexec_items_seq += m[3]
            gathers, scans, lanes, conv, skipped = m[5]
            stats.local_gathers += gathers
            stats.collapse_scans += scans
            stats.lanes_collapsed += lanes
            stats.chunks_converged += conv
            stats.checks_skipped += skipped
            attach_s, exec_s, fold_s, total_s, new_attaches = m[4]
            timings.append(WorkerTiming(attach_s, exec_s, fold_s, total_s))
            if total_s > 1e-9:
                # The deadline model's measured throughput: an EWMA across
                # workers and calls, newest observation weighted 0.3.
                bps = nb / total_s
                self._bps_ewma = (
                    bps
                    if self._bps_ewma is None
                    else 0.7 * self._bps_ewma + 0.3 * bps
                )
            if obs is not None:
                # Workers run on their own clocks; draw each one inside the
                # parent's wait window (start-aligned) on its own trace row.
                wait_t0 = obs.to_trace_time(t_dispatch)
                obs.add_span(
                    "pool.worker", wait_t0, wait_t0 + total_s,
                    tid=i + 1, worker=i,
                    attach_s=attach_s, exec_s=exec_s, fold_s=fold_s,
                    reexec_chunks=m[2], reexec_items=m[3],
                )
                obs.count("pool.shm.attaches", new_attaches)
                obs.observe("pool.worker_exec_s", exec_s)
                obs.observe("pool.worker_fold_s", fold_s)
        return _Round(outs, tuple(timings), t_dispatch, t_wait)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        inputs: np.ndarray,
        *,
        start: int | None = None,
    ) -> MultiprocessResult:
        """Compute the final state of ``inputs``, starting from ``start``.

        ``start`` defaults to the machine's initial state; a caller that
        carries the state across calls passes it instead. The result is
        bit-identical to the sequential reference (property tests assert
        this over machines × inputs × worker counts × k). Every worker's
        folded segment map is stacked and combined with the binary tree
        merge.

        With supervision on (the default), worker failure is recovered —
        killed workers are respawned, stragglers and errors retried, and
        an unrecoverable pool degrades to the in-process engine — so this
        method raises only :class:`PoolClosedError` (used after
        :meth:`close`) and input-validation errors, never worker errors.
        """
        if self._closed:
            raise PoolClosedError("ScaleoutPool is closed")
        t_run = time.perf_counter()
        dfa = self.dfa
        start = dfa.start if start is None else int(start)
        if not 0 <= start < dfa.num_states:
            raise ValueError(f"start state {start} out of range [0, {dfa.num_states})")
        inputs = self._symbols(inputs)
        n = int(inputs.size)
        w = self.num_workers
        self.calls += 1
        stats = self._new_stats(n, self.k_eff)
        if n == 0:
            return MultiprocessResult(start, w, 0, stats)
        if w == 1:
            # Single-worker degenerate case: no dispatch, run in-process.
            check_symbols(inputs, self.dfa.num_inputs)
            final = self._run_segment(inputs, start)
            stats.pool_shm_bytes = self.shm_bytes
            return MultiprocessResult(final, 1, 0, stats)

        report = SupervisionReport()
        self._publish_input(inputs, stats, report)
        t_publish = time.perf_counter()

        seg_plan = plan_chunks(n, w)
        run_dfa = dfa if start == dfa.start else dfa.with_start(start)
        self._resolve_collapse(inputs)
        # Compiled once per pool, after collapse resolution so the cadence
        # is baked; its artifact path rides every task.
        self._ensure_native()

        # Segment-boundary speculation rows, from look-back over the global
        # input (one vectorized call covering every boundary). Worker 0's
        # row must contain the true start state — `speculate` pins it first,
        # and the explicit guard keeps that invariant under any ranking.
        boundary = [None] * w
        seg_covered = None
        with trace_span("pool.speculate", workers=w, k=self.k_eff):
            if self.k is not None:
                out = speculate(
                    run_dfa,
                    inputs,
                    seg_plan,
                    self.k,
                    lookback=self.lookback,
                    prior=self._prior,
                    stats=stats,
                    return_coverage=self._collapse_requested,
                )
                if self._collapse_requested:
                    boundary, seg_covered = out
                else:
                    boundary = out
                if not (boundary[0] == start).any():
                    boundary[0, 0] = start
                    # Segment 0's only achievable incoming state is `start`,
                    # which the guard just pinned — still covered.
            elif self._collapse_requested:
                # spec-N workers enumerate every state at each boundary.
                seg_covered = np.ones(w, dtype=bool)
        t_spec = time.perf_counter()

        rnd = self._round(inputs, seg_plan, boundary, stats, report)
        if rnd.outs is None:
            return self._degraded_result(
                inputs, start, stats, report,
                t_run=t_run, t_publish=t_publish, t_spec=t_spec,
                t_dispatch=rnd.t_dispatch,
            )
        maps = rnd.outs

        # Parent-side combine: the same binary tree merge as the simulated
        # GPU — delayed invalidation, then a fix-up descent that
        # re-executes only the segments whose boundary speculation
        # genuinely missed. A segment whose boundary row covers its
        # look-back image and whose returned map is constant is
        # converged: the tree skips its checks.
        spec_rows = np.stack([m[0] for m in maps])
        end_rows = np.stack([m[1] for m in maps])
        seg_converged = None
        if seg_covered is not None:
            seg_converged = converged_chunks(end_rows, seg_covered)
            stats.chunks_converged += int(seg_converged.sum())
        with trace_span("pool.merge", workers=w):
            results = ChunkResults(
                spec=spec_rows, end=end_rows,
                valid=np.ones_like(spec_rows, dtype=bool),
                converged=seg_converged,
            )
            final, tree = merge_parallel(
                run_dfa, inputs, seg_plan, results, reexec="delayed",
                stats=stats, replay=self._replay(inputs, seg_plan),
            )
        reexec_segments = tuple(tree.reexecuted)
        stats.success_total += w - 1
        stats.success_hits += (w - 1) - sum(1 for c in reexec_segments if c > 0)
        t_merge = time.perf_counter()
        obs = current_trace()
        if obs is not None:
            if stats.collapse_scans:
                obs.count("spec.collapse_scans", stats.collapse_scans)
            if stats.lanes_collapsed:
                obs.count("spec.lanes_collapsed", stats.lanes_collapsed)
            if stats.chunks_converged:
                obs.count("spec.chunks_converged", stats.chunks_converged)
            if stats.checks_skipped:
                obs.count("spec.checks_skipped", stats.checks_skipped)

        timing = PoolRunTiming(
            speculate_s=t_spec - t_publish,
            publish_s=t_publish - t_run,
            dispatch_s=rnd.t_dispatch - t_spec,
            wait_s=rnd.t_wait - rnd.t_dispatch,
            merge_s=t_merge - rnd.t_wait,
            total_s=t_merge - t_run,
        )
        return MultiprocessResult(
            int(final), w, len(reexec_segments), stats, reexec_segments,
            timing=timing, worker_timings=rnd.timings,
            recovery=report if report.events else None,
        )

    def run_map(
        self,
        inputs: np.ndarray,
        boundary_row: np.ndarray,
    ) -> np.ndarray:
        """Compute this segment's ``speculated -> ending`` map over the pool.

        Lane ``j`` of the returned row is the machine's state after
        ``inputs`` when entered at ``boundary_row[j]``. Unlike
        :meth:`run`, no lane is pinned to a known true start: the caller
        — the cross-host :class:`repro.dist.coordinator.ShardCoordinator`
        — owns boundary speculation for the *shard* boundaries, ships
        each host its row, and composes the returned host maps with the
        same binary tree merge the pool applies to its workers. The pool
        is the middle level of that hierarchy: the shard is split across
        workers, each worker folds its sub-chunks, and the parent folds
        the worker maps left to right, re-executing lane misses through
        the kernel layer.

        ``boundary_row`` must have ``k_eff`` lanes (the pool's ``k``, or
        ``num_states`` for spec-N pools, where the row must enumerate
        every state). Supervision failures degrade internally to
        :func:`fold_segment_map`, so the method always returns a
        complete exact map — the coordinator sees a slow host, never a
        wrong one.
        """
        if self._closed:
            raise PoolClosedError("ScaleoutPool is closed")
        dfa = self.dfa
        boundary_row = np.ascontiguousarray(
            np.asarray(boundary_row, dtype=np.int32)
        )
        if boundary_row.ndim != 1 or boundary_row.size != self.k_eff:
            raise ValueError(
                f"boundary_row must have {self.k_eff} lanes, got shape "
                f"{boundary_row.shape}"
            )
        if self.k is None and not np.array_equal(
            np.sort(boundary_row), np.arange(dfa.num_states, dtype=np.int32)
        ):
            raise ValueError(
                "spec-N pools need boundary_row to enumerate every state"
            )
        inputs = self._symbols(inputs)
        n = int(inputs.size)
        if n == 0:
            return boundary_row.copy()
        self.calls += 1
        w = self.num_workers
        local = w == 1 or n < w
        stats, report = ExecStats(), SupervisionReport()
        if local:
            check_symbols(inputs, self.dfa.num_inputs)
        else:
            self._publish_input(inputs, stats, report)
        self._resolve_collapse(inputs)
        nkern = self._ensure_native()

        def local_map() -> np.ndarray:
            return fold_segment_map(
                dfa, self._kplan, inputs, boundary_row,
                sub_chunks=self.sub_chunks_per_worker, k=self.k,
                lookback=self.lookback, prior=self._prior, native=nkern,
            )

        if local:
            return local_map()

        seg_plan = plan_chunks(n, w)
        # Interior worker boundaries speculate from look-back inside the
        # shard; worker 0 enters at the coordinator's row, unpinned.
        if self.k is not None:
            rows = speculate(
                dfa, inputs, seg_plan, self.k,
                lookback=self.lookback, prior=self._prior,
            )
            rows[0] = boundary_row
        else:
            rows = [boundary_row] + [None] * (w - 1)
        rnd = self._round(inputs, seg_plan, rows, stats, report)
        if rnd.outs is None:
            with trace_span("fault.degrade", reason=report.degrade_reason):
                return local_map()

        # Fold worker maps left to right over the coordinator's lanes —
        # the k-lane generalization of the true-start walk in run().
        maps = rnd.outs
        with trace_span("pool.merge", workers=w):
            row, misses = _fold_left(
                maps[0][1],
                np.stack([m[0] for m in maps[1:]]),
                np.stack([m[1] for m in maps[1:]]),
                self._replay(inputs, seg_plan, first=1),
            )
        if misses.any():
            add_count("pool.map_lane_reexecs", int(misses.sum()))
        return row

    def _check_open_for_fallback(self) -> None:
        """Refuse the in-process fallback on a closed pool.

        Degradation preserves results for live callers; a pool closed
        mid-run (the signal-teardown handler, ``atexit``) has no caller
        left to serve, and a daemon thread still inside a long native
        call while the interpreter finalizes can crash teardown.
        """
        if self._closed:
            raise PoolClosedError("ScaleoutPool closed during run")

    def _degraded_result(
        self,
        inputs: np.ndarray,
        start: int,
        stats: ExecStats,
        report: SupervisionReport,
        *,
        t_run: float,
        t_publish: float,
        t_spec: float,
        t_dispatch: float,
    ) -> MultiprocessResult:
        """Finish an unrecoverable run on the in-process engine.

        The bottom of the degradation ladder: correctness is preserved (the
        fallback is the reference speculative engine), scale-out is not.
        The returned result is flagged ``degraded=True`` and carries the
        full :class:`SupervisionReport` of everything tried first.
        """
        with trace_span(
            "fault.degrade", reason=report.degrade_reason,
            workers=self.num_workers,
        ):
            fallback = run_inprocess_fallback(self.dfa, inputs, start=start)
        t_done = time.perf_counter()
        stats = stats.merged_with(fallback.stats)
        stats.pool_shm_bytes = self.shm_bytes
        timing = PoolRunTiming(
            speculate_s=t_spec - t_publish,
            publish_s=t_publish - t_run,
            dispatch_s=t_dispatch - t_spec,
            wait_s=t_done - t_dispatch,
            merge_s=0.0,
            total_s=t_done - t_run,
        )
        return MultiprocessResult(
            int(fallback.final_state), self.num_workers, 0, stats,
            timing=timing, degraded=True, recovery=report,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the pool's resources."""
        return self._closed

    def close(self) -> None:
        """Shut down workers and release every shared-memory segment.

        Idempotent, and safe from ``__del__`` even after a failed
        ``__init__`` (every attribute it touches is pre-initialised).
        Pools left open at interpreter exit are closed by an ``atexit``
        hook, so abnormal teardown never leaks ``/dev/shm`` segments.
        """
        self._release(unmap=True)

    def _release(self, *, unmap: bool) -> None:
        """Stop workers and unlink every segment; unmap too if ``unmap``.

        The signal-teardown handler passes ``unmap=False``: another thread
        may still be inside a NumPy copy or gather over a mapping, and the
        unlinked mappings are reclaimed at process exit anyway.
        """
        if getattr(self, "_closed", True):
            return
        with self._shm_lock:
            if self._closed:  # lost the race to a concurrent close
                return
            self._closed = True
            segments = (
                self._table_shm, self._acc_shm, self._prior_shm,
                self._class_of_shm, self._class_table_shm, self._stride_shm,
                self._input_shm,
            )
        _LIVE_POOLS.discard(self)
        if self._sup is not None:
            self._sup.close()
        for shm in segments:
            if shm is None:
                continue
            # Unlink first: removing the /dev/shm name is the part that
            # must never be skipped. Unmapping can legitimately fail (a
            # run thread may still hold a view of the buffer) — the
            # mapping is reclaimed at process exit either way, and
            # unmapping under a concurrent writer would be a segfault.
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            if not unmap:
                continue
            try:
                shm.close()
            except BufferError:  # a live view pins the mapping
                pass

    def __enter__(self) -> "ScaleoutPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

"""Execution-plan resolution: every choice of one engine call, made once.

:func:`resolve_plan` turns the arguments of
:func:`repro.core.engine.run_speculative` into one frozen :class:`ExecPlan`
— chunk count and partition, speculation width, backend, stepping kernel
(and its loaded tables), convergence layer, layout, truth recovery and
pricing — and validates every argument up front. The engine then only
executes the plan.

Two plans exist:

* **GPU plan** — the paper's modeled V100 grid, selected by passing a
  :class:`repro.gpu.device.Grid` as ``grid=``. One chunk per simulated
  thread (80 x 256 at ``Grid()``'s defaults), the vectorized backend, the
  lockstep kernel, and modeled-time pricing: exactly what the paper's
  figures measure.
* **CPU plan** — ``grid=None``, the default. No pricing. It has two rungs:

  - **serial** (the default): the CPU plan steps on one thread, so
    speculation would only add look-back, k-lane stepping and a merge to
    the core a plain pass uses. The call runs one chunk and one lane from
    the start state: validation plus one pass, with no state prior,
    collapse probe, look-back, merge or truth walk. From
    :data:`NATIVE_MIN_ITEMS` items on (or with ``backend="native"``) the
    pass is the one-lane compiled kernel when one loads
    (:func:`repro.core.native.load_serial_kernel`, memoized per machine
    and kernel, so a new input length does not re-plan); otherwise it is
    the :func:`repro.fsm.run.run_reference` loop (``backend`` recorded as
    ``"reference"``).
  - **chunked**: an explicit ``plan=`` forces the speculative pipeline
    over that partition. ``backend`` resolves to the compiled kernel when
    the input reaches :data:`NATIVE_MIN_ITEMS` and the loader returns one,
    and to the NumPy path otherwise; ``kernel`` resolves by the cost
    model. :func:`cpu_chunks` is the chunk rule the multi-pattern driver
    uses and the partition to pass for the old CPU default.

Explicit ``backend``/``kernel`` arguments keep their meaning on every plan.
The choice is recorded on the ``engine.plan`` span (``plan``, ``rung``,
``chunks``, ``backend``, ``kernel``, ``reason``) and in
:class:`repro.core.engine.EngineConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.convergence import CollapseConfig, resolve_collapse
from repro.core.kernels import KERNELS, KernelPlan, plan_kernel
from repro.fsm.dfa import DFA
from repro.gpu.device import Grid
from repro.obs.trace import trace_span
from repro.util.validation import check_in_set
from repro.workloads.chunking import ChunkPlan, plan_chunks

if TYPE_CHECKING:
    from repro.core.native import NativeKernel

__all__ = [
    "CPU_CHUNK_ITEMS",
    "CPU_MAX_CHUNKS",
    "ExecPlan",
    "NATIVE_MIN_ITEMS",
    "auto_backend",
    "cpu_chunks",
    "resolve_plan",
]

# CPU chunk rule (the multi-pattern driver's default partition, and the one
# to pass as plan= for chunked CPU speculation): one chunk per
# CPU_CHUNK_ITEMS[backend] input items, at most CPU_MAX_CHUNKS. Past the
# cap a longer input only lengthens the chunks:
# look-back speculation and the merge cost per chunk, stepping per item.
# The NumPy path pays a Python dispatch per step, so it wants more, shorter
# chunks than the compiled loop (measured optimum on the five paper apps:
# ~256 items per chunk vectorized, ~16k native; see docs/PERFORMANCE.md).
CPU_CHUNK_ITEMS = {"vectorized": 256, "native": 1 << 14}
CPU_MAX_CHUNKS = 64

# backend="auto" compiles (or loads) a native kernel only from this input
# length on; shorter calls stay on NumPy or the reference loop, where a
# first-use compile of ~150 ms would dwarf the run.
NATIVE_MIN_ITEMS = 1 << 16

COLLECT_ITEMS = ("accept_count", "match_positions", "emissions")


def cpu_chunks(num_items: int, backend: str) -> int:
    """CPU chunk-rule count for ``num_items`` symbols on ``backend``.

    ``clamp(ceil(num_items / CPU_CHUNK_ITEMS[backend]), 1,
    CPU_MAX_CHUNKS)``. Any count is legal on the CPU plan — there is no
    warp to fill.
    """
    per_chunk = CPU_CHUNK_ITEMS[backend]
    return min(CPU_MAX_CHUNKS, max(1, -(-int(num_items) // per_chunk)))


def auto_backend(num_items: int) -> str:
    """What ``backend="auto"`` tries first for ``num_items`` symbols.

    ``"native"`` from :data:`NATIVE_MIN_ITEMS` on, ``"vectorized"`` below.
    A native request still degrades to NumPy when no kernel loads.
    """
    return "native" if num_items >= NATIVE_MIN_ITEMS else "vectorized"


@dataclass(frozen=True)
class ExecPlan:
    """Every resolved execution choice of one :func:`run_speculative` call.

    Attributes
    ----------
    grid:
        The modeled launch of the GPU plan (its geometry, device, cache
        and pricing baseline), or None on the CPU plan.
    rung:
        ``"serial"`` (one pass from the start state, no speculation) or
        ``"chunked"`` (speculate, step chunks, merge).
    reason:
        Why the plan, backend and chunk count came out as they did.
    k, enumerative:
        Effective speculation width, and whether it covers every state.
    chunks, chunk_plan, ragged:
        Chunk count, the partition itself, and whether its lengths differ
        by more than one (a skewed straggler plan).
    layout:
        The input layout local processing reads: ``"transformed"``
        (coalesced) or ``"natural"``.
    measure_success, collect:
        Whether truth recovery runs, and the validated extra outputs.
    backend, kernel:
        The local-processing backend and stepping kernel that will run
        (``"vectorized"``/``"native"``; a name from
        :data:`repro.core.kernels.KERNELS`).
    kplan, native:
        The NumPy stride-kernel plan (None for lockstep and native), and
        the loaded native kernel (None on the NumPy path).
    collapse, collapse_requested:
        The resolved lane-collapse config (None when lane collapse is
        off), and whether convergence bookkeeping was asked for at all.
    """

    grid: Grid | None
    rung: str
    reason: str
    k: int
    enumerative: bool
    chunks: int
    chunk_plan: ChunkPlan
    ragged: bool
    layout: str
    measure_success: bool
    collect: tuple[str, ...]
    backend: str
    kernel: str
    kplan: KernelPlan | None
    native: "NativeKernel | None"
    collapse: CollapseConfig | None
    collapse_requested: bool

    @property
    def kind(self) -> str:
        """``"gpu"`` when a modeled grid was given, ``"cpu"`` otherwise."""
        return "cpu" if self.grid is None else "gpu"


def resolve_plan(dfa: DFA, inputs: np.ndarray, **requested) -> ExecPlan:
    """Validate one engine call's arguments and resolve its :class:`ExecPlan`.

    ``inputs`` must already be a validated 1-D symbol array; ``requested``
    are :func:`repro.core.engine.run_speculative`'s execution arguments,
    meaning what they mean there (``None`` leaves a choice to the plan).
    The ``engine.plan`` span covers the resolution, native loading
    included, and records what it chose.
    """
    with trace_span("engine.plan") as sp:
        xp = _resolve(dfa, inputs, **requested)
        sp.set(
            plan=xp.kind, rung=xp.rung, chunks=xp.chunks, backend=xp.backend,
            kernel=xp.kernel, reason=xp.reason,
        )
    return xp


def _resolve(
    dfa: DFA,
    inputs: np.ndarray,
    *,
    k: int | None = 4,
    merge: str = "parallel",
    check: str = "auto",
    reexec: str = "delayed",
    measure_success: bool = True,
    collect: tuple[str, ...] = (),
    backend: str | None = None,
    kernel: str | None = None,
    collapse: str | CollapseConfig | None = "auto",
    plan: ChunkPlan | None = None,
    grid: Grid | None = None,
) -> ExecPlan:
    check_in_set("merge", merge, ("sequential", "parallel"))
    check_in_set("check", check, ("auto", "nested", "hash"))
    check_in_set("reexec", reexec, ("delayed", "eager"))
    if grid is not None and not isinstance(grid, Grid):
        raise TypeError(f"grid must be a repro.gpu.Grid or None, got {grid!r}")
    if backend is not None:
        check_in_set("backend", backend, ("auto", "vectorized", "native"))
    if kernel is not None:
        check_in_set("kernel", kernel, ("auto",) + tuple(sorted(KERNELS)))
    if isinstance(collapse, str):
        check_in_set("collapse", collapse, ("auto", "on", "off"))
    collect = tuple(collect)
    for item in collect:
        check_in_set("collect item", item, COLLECT_ITEMS)

    enumerative = k is None or k >= dfa.num_states
    k_eff = dfa.num_states if enumerative else int(k)
    if k_eff < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    size = int(inputs.size)

    cache_table = grid is not None and grid.cache_table
    layout = "transformed" if grid is None else grid.layout
    if grid is not None:
        backend = backend if backend is not None else "vectorized"
        kernel = kernel if kernel is not None else "lockstep"
        reason = (
            f"gpu: {grid.num_blocks}x{grid.threads_per_block} on "
            f"{grid.device.name}"
        )
    else:
        backend = backend if backend is not None else "auto"
        kernel = kernel if kernel is not None else "auto"
        reason = f"cpu: L={size}"

    # Per-symbol features (hot-state cache accounting, accepting-visit
    # counts) are incompatible with compiled and multi-symbol stepping:
    # "auto" quietly keeps a per-symbol path there, an explicit request is
    # an error.
    needs_per_symbol = cache_table or ("accept_count" in collect)
    if backend == "native" and needs_per_symbol:
        raise ValueError(
            "backend='native' does not support cache_table or "
            "accept_count; use the default vectorized backend"
        )

    if plan is not None:
        if plan.num_items != size:
            raise ValueError(
                f"plan covers {plan.num_items} items but inputs has {size}"
            )
        reason += ", explicit plan"
    elif grid is None:
        return _serial(
            dfa, size, reason=reason, backend=backend, kernel=kernel,
            per_symbol=needs_per_symbol, measure_success=measure_success,
            collect=collect,
        )
    chunk_plan = plan if plan is not None else plan_chunks(size, grid.num_threads)

    ragged = plan is not None and plan.max_len - plan.min_len > 1
    collapse_mode = collapse
    if ragged:
        # Skewed plans model stragglers; only the natural-layout lockstep
        # paths (vectorized NumPy or the compiled per-chunk loop)
        # understand them.
        if kernel not in ("auto", "lockstep"):
            raise ValueError(f"skewed plans require kernel='lockstep', got {kernel!r}")
        kernel = "lockstep"
        if cache_table or collect:
            raise ValueError(
                "skewed plans do not support cache_table or collect outputs"
            )
        layout = "natural"
        collapse_mode = "off"

    # --- convergence layer ------------------------------------------------ #
    # collapse_requested gates the coverage/converged bookkeeping (cheap,
    # and the merges exploit it even when the probe said lane collapse
    # itself would not pay); collapse_cfg is the resolved scan config, or
    # None when lane collapse stays off.
    collapse_requested = not (
        collapse_mode is None
        or collapse_mode == "off"
        or (isinstance(collapse_mode, CollapseConfig) and not collapse_mode.enabled)
    )
    collapse_cfg = None
    if collapse_requested:
        with trace_span("engine.collapse_resolve", k=k_eff) as sp:
            collapse_cfg = resolve_collapse(collapse_mode, dfa, inputs, k=k_eff)
            sp.set(resolved=collapse_cfg.label if collapse_cfg else "off")

    # --- backend and kernel ----------------------------------------------- #
    if backend == "auto":
        if needs_per_symbol:
            backend = "vectorized"
            reason += ", per-symbol outputs need vectorized lockstep"
        else:
            backend = auto_backend(size)
            if backend == "vectorized":
                reason += ", below the native floor"

    native = None
    kplan = None
    kernel_resolved = "lockstep"
    if backend == "native":
        from repro.core.native import load_native_plan

        # Collapse behaviour is baked into the artifact; the plan is built
        # inside the loader (lockstep included — the compiled per-symbol
        # loop still removes the per-step dispatch).
        native = load_native_plan(
            dfa, k=k_eff, kernel=kernel, collapse=collapse_cfg,
            chunk_len=chunk_plan.max_len, num_chunks=chunk_plan.num_chunks,
        )
        if native is None:
            # No compiler / compile failure / smoke mismatch — already
            # counted under native.fallback.*; the NumPy path is always
            # functionally identical.
            backend = "vectorized"
            reason += ", no native kernel"
        else:
            kernel_resolved = native.kplan.kernel
            # Native reads the natural layout directly (explicit
            # starts/lengths per chunk); skip the transform copy.
            layout = "natural"
    if native is None and kernel != "lockstep":
        if needs_per_symbol:
            if kernel != "auto":
                raise ValueError(
                    f"kernel={kernel!r} requires per-symbol-free local "
                    "processing; cache_table and accept_count support "
                    "only kernel='lockstep'"
                )
        else:
            kplan = plan_kernel(
                dfa, chunk_len=chunk_plan.max_len,
                num_chunks=chunk_plan.num_chunks, k=k_eff, kernel=kernel,
            )
            if kplan.kernel == "lockstep":
                kplan = None  # incumbent path is the tuned lockstep kernel
            else:
                kernel_resolved = kplan.kernel

    return ExecPlan(
        grid=grid,
        rung="chunked",
        reason=reason,
        k=k_eff,
        enumerative=enumerative,
        chunks=chunk_plan.num_chunks,
        chunk_plan=chunk_plan,
        ragged=ragged,
        layout=layout,
        measure_success=measure_success,
        collect=collect,
        backend=backend,
        kernel=kernel_resolved,
        kplan=kplan,
        native=native,
        collapse=collapse_cfg,
        collapse_requested=collapse_requested,
    )


def _serial(
    dfa: DFA,
    size: int,
    *,
    reason: str,
    backend: str,
    kernel: str,
    per_symbol: bool,
    measure_success: bool,
    collect: tuple[str, ...],
) -> ExecPlan:
    """The CPU plan's serial rung: one chunk, one lane from the start state.

    Nothing runs in parallel on the CPU plan, so speculation would only
    add look-back, k-lane stepping and a merge to the core a plain pass
    uses. The pass is the one-lane native kernel when the input reaches
    :data:`NATIVE_MIN_ITEMS` (or ``backend="native"`` asks for it) and a
    kernel loads, and the :func:`repro.fsm.run.run_reference` loop
    otherwise (``backend="reference"``).
    """
    reason += ", serial: one stepping thread"
    if per_symbol:
        backend = "reference"
        reason += ", per-symbol outputs need the reference loop"
    elif backend == "auto":
        backend = auto_backend(size)
        if backend == "vectorized":
            reason += ", below the native floor"
    native = None
    if backend == "native":
        from repro.core.native import load_serial_kernel

        native = load_serial_kernel(dfa, kernel=kernel)
        if native is None:
            reason += ", no native kernel"
    return ExecPlan(
        grid=None,
        rung="serial",
        reason=reason,
        k=1,
        enumerative=dfa.num_states == 1,
        chunks=1,
        chunk_plan=plan_chunks(size, 1),
        ragged=False,
        layout="natural",
        measure_success=measure_success,
        collect=collect,
        backend="native" if native is not None else "reference",
        kernel=native.kplan.kernel if native is not None else "lockstep",
        kplan=None,
        native=native,
        collapse=None,
        collapse_requested=False,
    )

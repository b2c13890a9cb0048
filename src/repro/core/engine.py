"""The spec-k execution engine: one entry point for the whole pipeline.

:func:`run_speculative` is the library's main API. It runs the paper's
pipeline — partition, look-back speculation, lock-step local processing,
then a sequential or parallel merge — while counting every algorithmic
event. Its execution plan (:mod:`repro.core.plan`) either simulates the
paper's GPU launch given as ``grid=`` (a :class:`repro.gpu.device.Grid`)
and prices the events into modeled V100 time via
:class:`repro.gpu.cost.CostModel`, or, at defaults, runs the CPU plan for
wall-clock speed: one serial pass from the start state, since nothing
steps in parallel there (an explicit ``plan=`` forces chunked
speculation).

``k`` selects the method on the paper's continuum: ``1`` is classic
speculative execution, ``None`` (or ``num_states``) is enumerative
execution (spec-N), anything between is enumerative speculation (spec-k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cache.hotstates import HotStateCache, plan_hot_states
from repro.core.convergence import CollapseConfig, converged_chunks
from repro.core.kernels import process_chunks_kernel
from repro.core.local import (
    process_chunks,
    process_chunks_ragged,
    recover_accepts,
    recover_emissions,
)
from repro.core.lookback import enumerative_spec, speculate, state_prior
from repro.core.merge_par import merge_parallel
from repro.core.merge_seq import merge_sequential
from repro.core.multipattern import check_batch
from repro.core.plan import ExecPlan, resolve_plan
from repro.core.replay import ChunkReplay, replay_path
from repro.core.types import ChunkResults, ExecStats
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference, run_reference_trace
from repro.gpu.cost import CostModel, TimeBreakdown
from repro.gpu.device import TESLA_V100, DeviceSpec, Grid
from repro.obs.trace import RunTrace, add_count, current_trace, trace_span
from repro.util.validation import check_in_set, check_symbols
from repro.workloads.chunking import ChunkPlan, plan_from_lengths, transform_layout

if TYPE_CHECKING:
    from repro.core.native import NativeKernel

__all__ = [
    "BatchExecutionResult",
    "EngineConfig",
    "SpecExecutionResult",
    "run_inprocess_fallback",
    "run_speculative",
    "run_speculative_batch",
]


@dataclass(frozen=True)
class EngineConfig:
    """Resolved configuration of one speculative execution.

    Read off the call's :class:`repro.core.plan.ExecPlan`; see
    :mod:`repro.core.plan` for how each choice is made.

    Attributes
    ----------
    k:
        Effective speculation width after clamping (states per chunk).
    enumerative:
        True when ``k`` covers every state (spec-N): speculation cannot
        miss and no re-execution ever occurs.
    num_blocks, threads_per_block:
        Launch geometry. On the GPU plan, the simulated grid (one chunk
        per thread); on the CPU plan, one block of ``num_chunks``.
    merge:
        ``"sequential"`` or ``"parallel"`` (the paper's tree merge).
    check:
        Runtime-check implementation actually requested: ``"nested"``,
        ``"hash"``, or ``"auto"`` (hash iff k > 12).
    reexec:
        ``"delayed"`` or ``"eager"`` re-execution (parallel merge only).
    layout:
        Input layout: ``"transformed"`` (coalesced) or ``"natural"``.
    lookback:
        Look-back window length in symbols used for speculation.
    cache_table:
        Whether the hot-state shared-memory cache was enabled.
    device:
        The modeled GPU (pricing and launch-geometry limits).
    kernel:
        The stepping kernel local processing actually ran
        (``"lockstep"``, ``"stride2"`` or ``"stride4"`` — the resolved
        choice when ``"auto"`` was requested).
    collapse:
        Resolved convergence-layer setting: ``"on(W=<cadence>)"`` when
        lane collapse ran, ``"off"`` otherwise (disabled, or ``"auto"``
        probed the machine and found no convergence horizon).
    backend:
        The local-processing backend that actually ran: ``"vectorized"``
        or ``"native"`` (a native request — explicit, or ``"auto"`` on a
        long enough input — resolves to ``"vectorized"`` when no kernel
        loads, visible here and under the ``native.fallback`` counter).
    plan:
        ``"cpu"`` (no pricing; one serial pass unless ``plan=`` is given)
        or ``"gpu"`` (the modeled grid passed as ``grid=``).
    num_chunks:
        The chunk count the run executed (an explicit ``plan=`` overrides
        the geometry's).
    rung:
        ``"serial"`` (one pass from the start state: no speculation,
        merge or truth walk) or ``"chunked"`` (the speculative pipeline).
    """

    k: int
    enumerative: bool
    num_blocks: int
    threads_per_block: int
    merge: str
    check: str
    reexec: str
    layout: str
    lookback: int
    cache_table: bool
    device: DeviceSpec
    kernel: str = "lockstep"
    collapse: str = "off"
    backend: str = "vectorized"
    plan: str = "gpu"
    num_chunks: int = 0
    rung: str = "chunked"

    @property
    def num_threads(self) -> int:
        """Total simulated threads (= chunks of the launch geometry)."""
        return self.num_blocks * self.threads_per_block


@dataclass
class SpecExecutionResult:
    """Everything produced by one :func:`run_speculative` call.

    Attributes
    ----------
    final_state:
        The machine's state after the whole input — always identical to
        the sequential reference run.
    stats:
        Counted algorithmic events (:class:`repro.core.types.ExecStats`).
    config:
        The resolved :class:`EngineConfig` the run executed under.
    accepted:
        Whether ``final_state`` is accepting.
    true_starts:
        Exact per-chunk starting states, ``(num_chunks,)`` int32 — present
        when truth recovery ran (sequential merge, ``measure_success``, or
        output collection), and always ``[start]`` on the serial rung.
    accept_counts:
        Per-chunk counts of accepting-state visits (``collect``
        ``"accept_count"`` only).
    match_positions:
        Global input offsets where the machine sat in an accepting state
        (``collect`` ``"match_positions"`` only).
    emissions:
        ``(positions, symbols)`` arrays from the machine's emission table
        (``collect`` ``"emissions"`` only).
    timing:
        Modeled :class:`repro.gpu.cost.TimeBreakdown` in seconds (GPU
        plan only). Modeled time, not wall clock — wall clock lives in
        ``trace``.
    cache:
        The hot-state cache plan when the grid's ``cache_table`` was
        enabled.
    trace:
        The :class:`repro.obs.RunTrace` that observed this run (None when
        observability was disabled).
    native:
        The loaded :class:`repro.core.native.NativeKernel` that stepped
        the run (None on the vectorized path). Its accept pass lets a
        caller that recovers outputs from ``true_starts`` itself replay
        on the same compiled kernel.
    """

    final_state: int
    stats: ExecStats
    config: EngineConfig
    accepted: bool = False
    true_starts: np.ndarray | None = None
    accept_counts: np.ndarray | None = None
    match_positions: np.ndarray | None = None
    emissions: tuple[np.ndarray, np.ndarray] | None = None
    timing: TimeBreakdown | None = None
    cache: HotStateCache | None = None
    trace: RunTrace | None = field(default=None, repr=False)
    native: NativeKernel | None = field(default=None, repr=False)

    @property
    def success_rate(self) -> float:
        """Speculation success rate over chunk boundaries (0.0–1.0)."""
        return self.stats.success_rate


def run_speculative(
    dfa: DFA,
    inputs: np.ndarray,
    *,
    k: int | None = 4,
    merge: str = "parallel",
    check: str = "auto",
    reexec: str = "delayed",
    lookback: int = 8,
    measure_success: bool = True,
    collect: tuple[str, ...] = (),
    backend: str | None = None,
    kernel: str | None = None,
    collapse: str | CollapseConfig | None = "auto",
    plan: ChunkPlan | None = None,
    trace: RunTrace | None = None,
    dist=None,
    grid: Grid | None = None,
) -> SpecExecutionResult:
    """Execute ``dfa`` over ``inputs`` with spec-k speculation.

    Every execution choice resolves once, up front, into a
    :class:`repro.core.plan.ExecPlan` (recorded in ``result.config`` and on
    the ``engine.plan`` span). A call that passes ``grid=``
    (a :class:`repro.gpu.device.Grid`) runs the **GPU plan**: the paper's
    simulated launch (``Grid()`` is 80 x 256 chunks on the V100),
    vectorized lockstep stepping and modeled-time pricing. Every other
    call (``grid=None``) runs the **CPU plan**, where
    nothing is priced and nothing runs in parallel. Without ``plan=`` it
    takes the **serial rung**: one chunk, one lane from the start state,
    and no prior, collapse probe, look-back, merge or truth walk — the
    one-lane compiled kernel from :data:`repro.core.plan.NATIVE_MIN_ITEMS`
    items on when one loads, the :func:`repro.fsm.run.run_reference` loop
    otherwise; ``config.k`` is 1 and ``true_starts`` is ``[start]``. An
    explicit ``plan=`` forces the **chunked** speculative pipeline over
    that partition (``plan_chunks(L, cpu_chunks(L, backend))`` is the
    CPU chunk rule), with ``backend`` and ``kernel`` resolved
    automatically. ``backend="dist"`` runs across hosts instead.

    Parameters
    ----------
    dfa:
        The machine to run (``table`` shape ``(num_inputs, num_states)``).
    inputs:
        1-D array of dense symbol ids in ``range(dfa.num_inputs)``.
    k:
        Speculation width (states speculated per chunk). ``None`` selects
        spec-N (enumerative execution); values are clamped to
        ``dfa.num_states``.
    merge:
        ``"sequential"`` (baseline, Figure 4a) or ``"parallel"`` (the
        paper's tree merge).
    check:
        ``"nested"``, ``"hash"``, or ``"auto"`` (hash iff k > 12).
    reexec:
        ``"delayed"`` (Section 3.3) or ``"eager"`` — parallel merge only.
    lookback:
        Look-back window length for speculation.
    collect:
        Extra outputs: ``"accept_count"``, ``"match_positions"``,
        ``"emissions"``. The latter two require the true chunk states and
        imply ``measure_success``-style truth recovery.
    backend:
        None (default) resolves to ``"auto"`` on the CPU plan and to
        ``"vectorized"`` on the GPU plan. ``"auto"`` picks ``"native"``
        from :data:`repro.core.plan.NATIVE_MIN_ITEMS` input items on
        (falling back to ``"vectorized"`` when no kernel loads) and
        ``"vectorized"`` below it or when ``accept_count`` needs
        per-symbol stepping. On the serial rung every non-native pass is
        the reference loop, recorded as ``"reference"``.
        ``"vectorized"`` is one ``(n, k)`` gather
        per step; ``"native"`` is the paper's code-generation path
        compiled to machine code: :mod:`repro.core.native` emits
        specialized C for ``(k, kernel, collapse)``, JIT-compiles it with
        the system compiler, and caches artifacts by DFA fingerprint; it
        falls back to ``"vectorized"`` when no compiler is usable.
        Functionally identical; native does not support the grid's
        ``cache_table`` or ``accept_count``. ``"dist"`` hands the whole
        run to the cross-host layer (:mod:`repro.dist`) — see the
        ``dist`` parameter; only ``k`` and ``lookback`` carry over, and
        ``grid`` is refused.
    kernel:
        Local-processing stepping kernel. None (default) resolves to
        ``"auto"`` on the CPU plan and to ``"lockstep"`` on the GPU plan.
        ``"lockstep"`` is the paper's one-symbol-per-gather Algorithm 3,
        which is what the modeled GPU simulates; ``"stride2"`` and
        ``"stride4"`` step several symbols per gather over composed tables
        (:mod:`repro.core.kernels`); ``"auto"`` selects by the cost
        model. Every kernel is functionally identical and fills
        the same algorithmic event counters; stride kernels change real wall clock, not modeled
        time. The grid's ``cache_table`` and ``accept_count`` need
        per-symbol stepping and force ``lockstep`` under ``"auto"``.
    collapse:
        Convergence layer (:mod:`repro.core.convergence`): ``"auto"``
        (default — probe the machine, enable lane collapse when a
        convergence horizon exists), ``"on"``, ``"off"``, or an explicit
        :class:`CollapseConfig`. When active, duplicate speculative lanes
        are deduplicated mid-chunk (bit-identical results, fewer physical
        gathers) and chunks whose covered speculation rows all converge
        are flagged so the merges skip their semi-join checks entirely.
        Functionally invisible — every mode produces identical results;
        ``stats.local_transitions`` keeps the modeled lock-step count
        either way.
    plan:
        Explicit :class:`repro.workloads.chunking.ChunkPlan` overriding
        the default partition (its chunk count then overrides the grid's;
        on the CPU plan it selects the chunked speculative path over the
        serial rung). A *skewed* plan
        (lengths differing by more than one — straggler modeling) runs in
        the natural layout with the lockstep kernel and no
        collapse/cache/collect: the compiled per-chunk loop on the native
        backend, otherwise :func:`repro.core.local.process_chunks_ragged`,
        which gathers only the chunks still running at each step.
    trace:
        A :class:`repro.obs.RunTrace` to record per-stage wall-clock spans
        and speculation metrics into. When omitted, the ambient trace (if
        one was activated via ``RunTrace.activate()``) is used; with
        neither, observability is off and adds no measurable overhead.
    dist:
        ``backend="dist"`` only: a live
        :class:`repro.dist.coordinator.ShardCoordinator` (runs on its
        standing cluster), a dict of
        :func:`repro.dist.coordinator.run_distributed` keyword arguments
        (``num_agents``, ``agent_workers``, ``config``, ``net_faults``),
        or None for an ephemeral 2-agent loopback cluster.
    grid:
        The modeled GPU launch (:class:`repro.gpu.device.Grid`: geometry,
        device, layout, hot-state cache, CPU baseline). Given, the call
        runs the GPU plan and ``result.timing`` holds its modeled time;
        None (default) runs the CPU plan.

    Returns
    -------
    SpecExecutionResult
        Final state, statistics, optional outputs, optional modeled timing,
        and the observing trace (if any).
    """
    if trace is not None:
        with trace.activate():
            return run_speculative(
                dfa, inputs, k=k, merge=merge, check=check, reexec=reexec,
                lookback=lookback, measure_success=measure_success,
                collect=collect, backend=backend, kernel=kernel,
                collapse=collapse, plan=plan, dist=dist, grid=grid,
            )
    if backend is not None:
        check_in_set("backend", backend, ("auto", "vectorized", "native", "dist"))
    inputs = np.ascontiguousarray(np.asarray(inputs))
    if inputs.ndim != 1:
        raise ValueError(f"inputs must be 1-D, got shape {inputs.shape}")
    check_symbols(inputs, dfa.num_inputs)
    if backend == "dist":
        if grid is not None:
            raise ValueError("grid does not apply to backend='dist'")
        return _run_dist(dfa, inputs, k=k, lookback=lookback, dist=dist)
    xp = resolve_plan(
        dfa, inputs, k=k, merge=merge, check=check, reexec=reexec,
        measure_success=measure_success, collect=collect, backend=backend,
        kernel=kernel, collapse=collapse, plan=plan, grid=grid,
    )
    plan, n, k_eff = xp.chunk_plan, xp.chunks, xp.k
    nplan, kplan, collapse_cfg = xp.native, xp.kplan, xp.collapse
    collect = xp.collect
    if grid is None:
        # The CPU plan has no launch grid: record one block of n chunks.
        num_blocks, threads_per_block, device = 1, n, TESLA_V100
    else:
        num_blocks, threads_per_block = grid.num_blocks, grid.threads_per_block
        device = grid.device
    cache_table = grid is not None and grid.cache_table

    config = EngineConfig(
        k=k_eff,
        enumerative=xp.enumerative,
        num_blocks=num_blocks,
        threads_per_block=threads_per_block,
        merge=merge,
        check=check,
        reexec=reexec,
        layout=xp.layout,
        lookback=lookback,
        cache_table=cache_table,
        device=device,
        kernel=xp.kernel,
        collapse=collapse_cfg.label if collapse_cfg is not None else "off",
        backend=xp.backend,
        plan=xp.kind,
        num_chunks=n,
        rung=xp.rung,
    )
    if xp.rung == "serial":
        return _run_serial(dfa, inputs, xp, config)
    stats = ExecStats(
        num_items=int(inputs.size),
        num_chunks=n,
        k=k_eff,
        num_states=dfa.num_states,
        num_inputs=dfa.num_inputs,
    )

    # --- speculation ------------------------------------------------------ #
    covered: np.ndarray | None = None
    with trace_span("engine.speculate", chunks=n, k=k_eff, lookback=lookback):
        if xp.enumerative:
            spec = enumerative_spec(dfa, n)
            if xp.collapse_requested:
                # spec-N enumerates every state: the true boundary state
                # is always among the speculated ones.
                covered = np.ones(n, dtype=bool)
        else:
            prior = None
            if inputs.size:
                # Weight states by measured occupancy over an input-prefix
                # sample — the offline-profiling analog of principled
                # speculation. This is preprocessing (like the paper's
                # look-back tables), not counted execution work.
                prior = state_prior(dfa, sample=inputs[: 1 << 14])
            if prior is None and n == 1 and not inputs.size:
                # One empty chunk starts at the known start state, so no
                # prior can change its result or its counters: skip the
                # stationary-distribution solve speculate would run.
                prior = np.ones(dfa.num_states)
            out = speculate(
                dfa,
                inputs,
                plan,
                k_eff,
                lookback=lookback,
                prior=prior,
                stats=stats,
                return_coverage=xp.collapse_requested,
            )
            spec, covered = out if xp.collapse_requested else (out, None)

    # --- hot-state cache plan ---------------------------------------------- #
    cache = None
    cache_mask = None
    if cache_table:
        budget = (
            grid.cache_budget_bytes
            if grid.cache_budget_bytes is not None
            else device.shared_mem_per_sm_bytes // 2
        )
        cache = plan_hot_states(dfa, shared_budget_bytes=budget)
        cache_mask = cache.resident
        stats.cache_rows_resident = cache.rows_resident

    # --- local processing ---------------------------------------------------- #
    with trace_span("engine.layout", layout=xp.layout):
        transformed = (
            transform_layout(inputs, plan) if xp.layout == "transformed" else None
        )
    with trace_span(
        "engine.local_exec", backend=xp.backend, chunks=n, k=k_eff,
        kernel=xp.kernel,
    ):
        if xp.ragged and nplan is None:
            end = process_chunks_ragged(dfa, inputs, plan, spec, stats=stats)
            acc = None
        elif nplan is not None:
            # One compiled call covers near-equal and skewed plans alike
            # (per-chunk lengths are explicit in the native loop).
            end = nplan.process_chunks(inputs, plan, spec, stats=stats)
            acc = None
        elif kplan is not None:
            end = process_chunks_kernel(
                dfa, inputs, plan, spec, kplan,
                transformed=transformed, stats=stats, collapse=collapse_cfg,
            )
            acc = None
        else:
            end, acc = process_chunks(
                dfa,
                inputs,
                plan,
                spec,
                transformed=transformed,
                stats=stats,
                cache_mask=cache_mask,
                count_accepting="accept_count" in collect,
                collapse=collapse_cfg,
            )
    converged = None
    if xp.collapse_requested:
        converged = converged_chunks(end, covered)
        stats.chunks_converged += int(converged.sum())

    # --- merge ------------------------------------------------------------------
    # Every re-execution and truth walk below replays on the compiled
    # kernel when one stepped the chunks; None keeps run_segment.
    replay = (
        ChunkReplay(nplan.run_segment, inputs, plan, path="native")
        if nplan is not None
        else None
    )
    true_starts: np.ndarray | None = None
    with trace_span(
        "engine.merge", strategy=merge, check=check, reexec=reexec
    ):
        results = ChunkResults(
            spec=spec, end=end, valid=np.ones_like(spec, dtype=bool),
            converged=converged,
        )
        if merge == "sequential":
            final_state, true_starts = merge_sequential(
                dfa, inputs, plan, results, check=check, stats=stats,
                replay=replay,
            )
        else:
            final_state, _ = merge_parallel(
                dfa,
                inputs,
                plan,
                results,
                check=check,
                reexec=reexec,
                threads_per_block=threads_per_block,
                warp_size=device.warp_size,
                stats=stats,
                replay=replay,
            )

    # --- truth recovery (instrumentation; uncounted) --------------------------- #
    need_truth = (
        true_starts is None
        and (xp.measure_success or "match_positions" in collect or "emissions" in collect)
    )
    with trace_span("engine.truth_recovery", ran=need_truth):
        if need_truth:
            from repro.core.merge_seq import true_boundary_walk

            _, true_starts = true_boundary_walk(
                dfa, inputs, plan, results, replay=replay
            )
        if (
            merge == "parallel"
            and xp.measure_success
            and true_starts is not None
            and n > 1
        ):
            hits = int(
                ((spec[1:] == true_starts[1:, None]).any(axis=1)).sum()
            )
            stats.success_hits += hits
            stats.success_total += n - 1

    # --- output recovery ----------------------------------------------------------
    match_positions = None
    emissions = None
    if collect:
        with trace_span(
            "engine.output_recovery", collect=list(collect),
            replay=replay_path(replay),
        ):
            if "match_positions" in collect and nplan is not None:
                match_positions, _, _ = nplan.accept_positions(
                    inputs, plan.starts, plan.lengths, true_starts[:, None],
                    dfa.accepting,
                )
            elif "match_positions" in collect:
                match_positions = recover_accepts(dfa, inputs, plan, true_starts)
            if "emissions" in collect:
                emissions = recover_emissions(dfa, inputs, plan, true_starts)

    # --- modeled timing --------------------------------------------------------------
    timing = None
    if grid is not None:
        with trace_span("engine.price"):
            model = CostModel(
                device=device,
                **(
                    {"cpu_transition_ns": grid.cpu_transition_ns}
                    if grid.cpu_transition_ns is not None
                    else {}
                ),
            )
            timing = model.price(
                stats,
                num_blocks=num_blocks,
                threads_per_block=threads_per_block,
                merge=merge,
                layout_transformed=(xp.layout == "transformed"),
                cache_enabled=cache_table,
            )
    run_trace = current_trace()
    if run_trace is not None:
        run_trace.count("engine.runs", 1)
        if stats.success_total:
            run_trace.count("speculation.boundary_hits", stats.success_hits)
            run_trace.count("speculation.boundary_total", stats.success_total)
        if stats.collapse_scans:
            run_trace.count("spec.collapse_scans", stats.collapse_scans)
        if stats.lanes_collapsed:
            run_trace.count("spec.lanes_collapsed", stats.lanes_collapsed)
        if stats.chunks_converged:
            run_trace.count("spec.chunks_converged", stats.chunks_converged)
        if stats.checks_skipped:
            run_trace.count("spec.checks_skipped", stats.checks_skipped)

    return SpecExecutionResult(
        final_state=final_state,
        stats=stats,
        config=config,
        accepted=bool(dfa.accepting[final_state]),
        true_starts=true_starts,
        accept_counts=acc,
        match_positions=match_positions,
        emissions=emissions,
        timing=timing,
        cache=cache,
        trace=run_trace,
        native=nplan,
    )


def _run_serial(
    dfa: DFA, inputs: np.ndarray, xp: ExecPlan, config: EngineConfig
) -> SpecExecutionResult:
    """The CPU plan's serial rung: :func:`one_lane_pass` from the start state."""
    start = int(dfa.start)
    final_state, stats, acc, match_positions, emissions = one_lane_pass(
        dfa, inputs, start, xp.native, xp.collect
    )
    run_trace = current_trace()
    if run_trace is not None:
        run_trace.count("engine.runs", 1)
    return SpecExecutionResult(
        final_state=final_state,
        stats=stats,
        config=config,
        accepted=bool(dfa.accepting[final_state]),
        true_starts=np.full(1, start, dtype=np.int32),
        accept_counts=acc,
        match_positions=match_positions,
        emissions=emissions,
        trace=run_trace,
        native=xp.native,
    )


def one_lane_pass(
    dfa: DFA,
    inputs: np.ndarray,
    start: int,
    nk: NativeKernel | None,
    collect: tuple[str, ...] = (),
) -> tuple[int, ExecStats, np.ndarray | None, np.ndarray | None, tuple | None]:
    """One pass over validated ``inputs`` from the known state ``start``.

    No prior, collapse probe, look-back, lane stepping, merge or truth
    walk. The loaded one-lane kernel ``nk``
    (:func:`repro.core.native.load_serial_kernel`) gives the final state
    and, in a second pass, the match positions. Otherwise, or when
    emissions are collected, the :func:`repro.fsm.run.run_reference`
    loop does, keeping the state trajectory when an output reads it.
    ``accept_count`` needs that trajectory: pass no kernel with it.

    Returns ``(final_state, stats, accept_counts, match_positions,
    emissions)``, the outputs ``collect`` did not ask for being None.
    """
    size = int(inputs.size)
    stats = ExecStats(
        num_items=size, num_chunks=1, k=1,
        num_states=dfa.num_states, num_inputs=dfa.num_inputs,
    )
    # One lane: every item is one step, one read and one transition.
    stats.local_steps = stats.local_transitions = size
    stats.local_input_reads = stats.local_gathers = size
    # The reference loop keeps the state trajectory when an output reads
    # it; the native kernel has an accept pass but no emission pass.
    states = None
    with trace_span(
        "engine.local_exec", backend="reference" if nk is None else "native",
        chunks=1, k=1, kernel="lockstep" if nk is None else nk.kplan.kernel,
    ):
        if "emissions" in collect or (collect and nk is None):
            states = run_reference_trace(dfa, inputs, start)
            final_state = int(states[-1]) if size else start
        elif nk is not None:
            final_state = nk.run_segment(inputs, start)
        else:
            final_state = run_reference(dfa, inputs, start)

    acc = match_positions = emissions = None
    if collect:
        with trace_span(
            "engine.output_recovery", collect=list(collect),
            replay="native" if states is None else "reference",
        ):
            if "accept_count" in collect:
                acc = np.array(
                    [[np.count_nonzero(dfa.accepting[states])]], dtype=np.int64
                )
            if "match_positions" in collect and states is not None:
                match_positions = np.flatnonzero(dfa.accepting[states])
            elif "match_positions" in collect:
                match_positions, _, _ = nk.accept_positions(
                    inputs, np.zeros(1, dtype=np.int64),
                    np.full(1, size, dtype=np.int64),
                    np.full((1, 1), start, dtype=np.int32), dfa.accepting,
                )
            if "emissions" in collect:
                emissions = _trace_emissions(dfa, inputs, start, states)
    return final_state, stats, acc, match_positions, emissions


def _trace_emissions(
    dfa: DFA, inputs: np.ndarray, start: int, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`repro.core.local.recover_emissions` of one chunk, read off the
    state trajectory ``states`` of a pass from ``start``."""
    if dfa.emit is None:
        raise ValueError("DFA has no emission table")
    before = np.empty(states.size, dtype=np.int32)
    before[:1] = start
    before[1:] = states[:-1]
    emitted = dfa.emit[inputs, before]
    positions = np.flatnonzero(emitted >= 0)
    return positions, emitted[positions].astype(np.int64)


@dataclass
class BatchExecutionResult:
    """Per-request outcomes of one :func:`run_speculative_batch` call.

    Attributes
    ----------
    final_states:
        ``(num_requests,)`` int32 — each request's machine state after its
        own segment, identical to running that segment alone.
    accepted:
        ``(num_requests,)`` bool — whether each final state is accepting.
    stats:
        Counted algorithmic events for the whole batch (one
        :class:`repro.core.types.ExecStats`): one chunk and one lane per
        live request, so ``num_chunks`` counts those requests,
        ``local_steps`` is the longest one, and transitions, reads and
        gathers each equal the items, whichever leg ran.
    num_requests:
        Number of requests in the batch (including empty ones).
    sizes:
        The length of each live (non-empty) request, in request order.
    """

    final_states: np.ndarray
    accepted: np.ndarray
    stats: ExecStats
    num_requests: int
    sizes: tuple[int, ...] = ()

    @property
    def plan(self) -> ChunkPlan | None:
        """One chunk per live request, in request order
        (:class:`repro.workloads.chunking.ChunkPlan`), or None when every
        segment was empty. Built on read: serving rounds never read it."""
        return plan_from_lengths(self.sizes) if self.sizes else None


def run_speculative_batch(
    dfa: DFA,
    segments: list[np.ndarray],
    *,
    starts: list[int] | np.ndarray | None = None,
    stats: ExecStats | None = None,
    native=None,
) -> BatchExecutionResult:
    """Run many independent requests against one machine in one call.

    Every request shares ``dfa`` but is otherwise independent: request
    ``r`` starts at ``starts[r]`` (default ``dfa.start``) and its final
    state is exactly what running it alone would produce. Each request
    arrives with a known start, so the batch takes the serial rung: the
    segments are validated (:func:`repro.core.multipattern.check_batch`)
    and each live request is one chunk, stepped in place from its start,
    with no prior, look-back, merge or walk and no concatenated copy.
    Given this machine's one-lane ``native`` kernel
    (:func:`repro.core.native.load_serial_kernel`; the server loads one
    at registration) each request steps in one compiled
    :meth:`~repro.core.native.NativeKernel.run_segment` call; without
    one, each request runs the :func:`repro.fsm.run.run_reference` loop.
    On one thread a speculative split of the requests only adds work.

    This is the serving layer's execution primitive (:mod:`repro.serve`).

    Parameters
    ----------
    dfa:
        The machine shared by every request in the batch.
    segments:
        One 1-D dense-symbol array per request; an empty one resolves to
        its start state without executing.
    starts:
        Optional per-request starting states, for continuation segments.
    stats:
        An :class:`repro.core.types.ExecStats` to accumulate into (the
        server carries one per round) instead of a fresh one.
    native:
        This machine's one-lane :class:`repro.core.native.NativeKernel`,
        bit-identical to the reference loop. A kernel of any other width
        raises ``ValueError``.
    """
    if native is not None and native.spec.k != 1:
        raise ValueError(
            "native must step one lane per pattern (1), got a kernel of "
            f"{native.spec.k} lanes"
        )
    starts, segs = check_batch(
        segments, starts, (dfa,), num_symbols=dfa.num_inputs
    )
    finals = starts[:, 0].astype(np.int32)
    live = [r for r, seg in enumerate(segs) if seg.size]
    sizes = tuple(segs[r].size for r in live)
    items = sum(sizes)
    if stats is None:
        stats = ExecStats(
            num_items=items, num_chunks=len(live), k=1,
            num_states=dfa.num_states, num_inputs=dfa.num_inputs,
        )
    if live:
        with trace_span(
            "engine.batch", requests=len(segments), chunks=len(live),
            items=items, rung="serial",
            reason="serial: one stepping thread" + (
                "" if native is not None else ", no native kernel"
            ),
        ):
            # Each request steps in place from its start: one compiled
            # call, or the reference loop.
            if native is not None:
                for r in live:
                    finals[r] = native.run_segment(segs[r], finals[r])
                add_count("native.chunks", len(live))
            else:
                for r in live:
                    finals[r] = run_reference(dfa, segs[r], int(finals[r]))
        # One lane, as a one-lane kernel counts it: every item is one
        # transition, read and gather; the longest request sets the steps.
        stats.local_steps += max(sizes)
        stats.local_transitions += items
        stats.local_input_reads += items
        stats.local_gathers += items
    return BatchExecutionResult(
        final_states=finals,
        accepted=dfa.accepting[finals],
        stats=stats,
        num_requests=len(segments),
        sizes=sizes,
    )


def _run_dist(dfa, inputs, *, k, lookback, dist) -> SpecExecutionResult:
    """``backend="dist"``: delegate the run to the cross-host layer.

    ``dist`` selects the infrastructure: a live
    :class:`repro.dist.coordinator.ShardCoordinator` runs on its standing
    cluster; a dict is keyword arguments for
    :func:`repro.dist.coordinator.run_distributed` (``num_agents``,
    ``agent_workers``, ``config``, ``net_faults``); None gets an
    ephemeral 2-agent loopback cluster. Results are bit-exact with every
    other backend; the modeled-GPU instrumentation (pricing, layouts,
    caches) does not apply across hosts and is omitted.
    """
    from repro.dist.coordinator import DistConfig, ShardCoordinator, run_distributed

    inputs = np.ascontiguousarray(np.asarray(inputs, dtype=np.int32))
    if inputs.ndim != 1:
        raise ValueError(f"inputs must be 1-D, got shape {inputs.shape}")
    if isinstance(dist, ShardCoordinator):
        res = dist.run(inputs)
    else:
        opts = dict(dist) if dist else {}
        opts.setdefault("config", DistConfig(k=k, lookback=lookback))
        res = run_distributed(dfa, inputs, **opts)
    k_eff = dfa.num_states if (k is None or k >= dfa.num_states) else int(k)
    config = EngineConfig(
        k=k_eff,
        enumerative=k_eff >= dfa.num_states,
        num_blocks=1,
        threads_per_block=max(1, res.num_shards),
        merge="parallel",
        check="auto",
        reexec="delayed",
        layout="natural",
        lookback=lookback,
        cache_table=False,
        device=TESLA_V100,
        kernel="lockstep",
        collapse="off",
        backend="dist",
        plan="cpu",
        num_chunks=max(1, res.num_shards),
    )
    return SpecExecutionResult(
        final_state=int(res.final_state),
        stats=res.stats,
        config=config,
        accepted=bool(dfa.accepting[int(res.final_state)]),
        trace=current_trace(),
    )


def run_inprocess_fallback(
    dfa: DFA,
    inputs: np.ndarray,
    *,
    start: int | None = None,
) -> SpecExecutionResult:
    """Degraded-mode execution: one process, no pool, guaranteed to finish.

    The resilience layer (:mod:`repro.core.resilience`) calls this when a
    :class:`repro.core.mp_executor.ScaleoutPool` run cannot be recovered —
    retries exhausted or the pool below quorum. It is a thin wrapper over
    :func:`run_speculative` at defaults, the CPU plan's serial rung: one
    pass from the run's carried ``start`` state, with nothing to
    speculate, price or measure.
    """
    run_dfa = dfa if start is None or start == dfa.start else dfa.with_start(start)
    return run_speculative(run_dfa, inputs)

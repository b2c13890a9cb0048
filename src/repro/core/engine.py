"""The spec-k execution engine: one entry point for the whole pipeline.

:func:`run_speculative` is the library's main API. It runs the paper's
pipeline — partition, look-back speculation, lock-step local processing,
then a sequential or parallel merge — while counting every algorithmic
event. Its execution plan (:mod:`repro.core.plan`) either simulates the
paper's GPU grid and prices the events into modeled V100 time via
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
from repro.core.kernels import KernelPlan, process_chunks_kernel
from repro.core.local import (
    process_chunks,
    process_chunks_ragged,
    recover_accepts,
    recover_emissions,
)
from repro.core.lookback import enumerative_spec, speculate, state_prior
from repro.core.merge_par import MergeTree, merge_parallel
from repro.core.merge_seq import merge_sequential
from repro.core.multipattern import (
    coalesce, run_lane_batch, run_multipattern, single_lanes,
)
from repro.core.plan import (
    GPU_NUM_BLOCKS,
    GPU_THREADS_PER_BLOCK,
    ExecPlan,
    auto_backend,
    gpu_args_given,
    resolve_plan,
)
from repro.core.predictor import HistoryPredictor
from repro.core.replay import ChunkReplay, replay_path
from repro.core.types import ChunkResults, ExecStats
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference, run_reference_trace
from repro.gpu.cost import CostModel, TimeBreakdown
from repro.gpu.device import DeviceSpec, TESLA_V100
from repro.obs.trace import RunTrace, current_trace, trace_span
from repro.util.validation import check_in_set, check_symbols
from repro.workloads.chunking import ChunkPlan, transform_layout

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
        or ``"gpu"`` (the modeled V100 grid, selected by passing any
        modeled-GPU argument or ``price=True``).
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
        Modeled V100 :class:`repro.gpu.cost.TimeBreakdown` in seconds
        (``price=True`` only). Modeled time, not wall clock — wall clock
        lives in ``trace``.
    cache:
        The hot-state cache plan when ``cache_table`` was enabled.
    merge_tree:
        The full parallel-merge reduction history
        (``keep_merge_tree=True`` only).
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
    merge_tree: MergeTree | None = field(default=None, repr=False)
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
    num_blocks: int | None = None,
    threads_per_block: int | None = None,
    merge: str = "parallel",
    check: str = "auto",
    reexec: str = "delayed",
    layout: str | None = None,
    lookback: int = 8,
    cache_table: bool | None = None,
    cache_budget_bytes: int | None = None,
    device: DeviceSpec | None = None,
    ranking: np.ndarray | None = None,
    measure_success: bool = True,
    collect: tuple[str, ...] = (),
    price: bool | None = None,
    cpu_transition_ns: float | None = None,
    keep_merge_tree: bool = False,
    backend: str | None = None,
    kernel: str | None = None,
    collapse: str | CollapseConfig | None = "auto",
    plan: ChunkPlan | None = None,
    history: HistoryPredictor | str | None = None,
    trace: RunTrace | None = None,
    dist=None,
) -> SpecExecutionResult:
    """Execute ``dfa`` over ``inputs`` with spec-k speculation.

    Every execution choice resolves once, up front, into a
    :class:`repro.core.plan.ExecPlan` (recorded in ``result.config`` and on
    the ``engine.plan`` span). A call that passes any modeled-GPU argument
    (``num_blocks``, ``threads_per_block``, ``device``, ``layout``,
    ``cache_table``, ``cache_budget_bytes``, ``cpu_transition_ns``) or
    ``price=True`` runs the **GPU plan**: the paper's simulated V100 grid
    (80 x 256 chunks unless given), vectorized lockstep stepping and
    modeled-time pricing. Every other call runs the **CPU plan**, where
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
    num_blocks, threads_per_block:
        Simulated launch geometry; one chunk per thread. Passing either
        selects the GPU plan (80 blocks of 256 threads unless given).
    merge:
        ``"sequential"`` (baseline, Figure 4a) or ``"parallel"`` (the
        paper's tree merge).
    check:
        ``"nested"``, ``"hash"``, or ``"auto"`` (hash iff k > 12).
    reexec:
        ``"delayed"`` (Section 3.3) or ``"eager"`` — parallel merge only.
    layout:
        ``"transformed"`` (coalesced, Section 4.1) or ``"natural"``.
        Selects the GPU plan; the CPU plan uses ``"transformed"`` on the
        NumPy path and ``"natural"`` on the native one.
    lookback:
        Look-back window length for speculation.
    cache_table:
        Enable the hot-state shared-memory cache (Section 4.2). Selects
        the GPU plan, like ``cache_budget_bytes`` and ``device`` (the
        modeled GPU, :data:`repro.gpu.device.TESLA_V100` by default).
    collect:
        Extra outputs: ``"accept_count"``, ``"match_positions"``,
        ``"emissions"``. The latter two require the true chunk states and
        imply ``measure_success``-style truth recovery.
    price:
        Attach a modeled-V100 :class:`TimeBreakdown`. None (default)
        prices on the GPU plan only; ``True`` selects the GPU plan;
        ``False`` turns pricing off on either plan.
    cpu_transition_ns:
        CPU baseline cost per input item (defaults to the calibrated
        constant; pass a Table 3-derived value for paper-scale speedups).
        Selects the GPU plan.
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
        Functionally identical; native does not support ``cache_table``
        or ``accept_count``. ``"dist"`` hands the whole run to the
        cross-host layer (:mod:`repro.dist`) — see the ``dist``
        parameter; only ``k`` and ``lookback`` carry over, the
        modeled-GPU knobs do not apply across hosts.
    kernel:
        Local-processing stepping kernel. None (default) resolves to
        ``"auto"`` on the CPU plan and to ``"lockstep"`` on the GPU plan.
        ``"lockstep"`` is the paper's one-symbol-per-gather Algorithm 3,
        which is what the modeled GPU simulates; ``"stride2"`` and
        ``"stride4"`` step several symbols per gather over composed tables
        (:mod:`repro.core.kernels`); ``"auto"`` selects by the cost
        model. Every kernel is functionally identical and fills
        the same algorithmic event counters; stride kernels change real wall clock, not modeled
        time. ``cache_table`` and ``accept_count`` need per-symbol
        stepping and force ``lockstep`` under ``"auto"``.
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
        the default partition (its chunk count then overrides the launch
        geometry's; on the CPU plan it selects the chunked speculative
        path over the serial rung). A *skewed* plan
        (lengths differing by more than one — straggler modeling) runs in
        the natural layout with the lockstep kernel and no
        collapse/cache/collect: the compiled per-chunk loop on the native
        backend, otherwise :func:`repro.core.local.process_chunks_ragged`,
        which gathers only the chunks still running at each step.
    history:
        A :class:`repro.core.predictor.HistoryPredictor` (or a path to its
        JSON store) supplying learned start-state priors: past runs' true
        chunk-boundary states bias this run's speculation ranking, and
        this run's recovered truth is folded back in afterwards. Like
        ``ranking`` and ``lookback``, unused on the serial rung, which has
        no chunk boundaries.
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

    Returns
    -------
    SpecExecutionResult
        Final state, statistics, optional outputs, optional modeled timing,
        and the observing trace (if any).
    """
    if isinstance(dfa, (list, tuple)):
        return _run_group(
            dfa, inputs, k=k, num_blocks=num_blocks,
            threads_per_block=threads_per_block, merge=merge, check=check,
            lookback=lookback, kernel=kernel, collapse=collapse,
            backend=backend, collect=tuple(collect),
            plan=plan, trace=trace, gpu_given=gpu_args_given(
                price, num_blocks=num_blocks,
                threads_per_block=threads_per_block, device=device,
                layout=layout, cache_table=cache_table,
                cache_budget_bytes=cache_budget_bytes,
                cpu_transition_ns=cpu_transition_ns,
            ),
        )
    if trace is not None:
        with trace.activate():
            return run_speculative(
                dfa, inputs, k=k, num_blocks=num_blocks,
                threads_per_block=threads_per_block, merge=merge, check=check,
                reexec=reexec, layout=layout, lookback=lookback,
                cache_table=cache_table, cache_budget_bytes=cache_budget_bytes,
                device=device, ranking=ranking, measure_success=measure_success,
                collect=collect, price=price, cpu_transition_ns=cpu_transition_ns,
                keep_merge_tree=keep_merge_tree, backend=backend, kernel=kernel,
                collapse=collapse, plan=plan, history=history,
                dist=dist,
            )
    if backend is not None:
        check_in_set("backend", backend, ("auto", "vectorized", "native", "dist"))
    inputs = np.ascontiguousarray(np.asarray(inputs))
    if inputs.ndim != 1:
        raise ValueError(f"inputs must be 1-D, got shape {inputs.shape}")
    check_symbols(inputs, dfa.num_inputs)
    if backend == "dist":
        return _run_dist(dfa, inputs, k=k, lookback=lookback, dist=dist)
    xp = resolve_plan(
        dfa, inputs, k=k, num_blocks=num_blocks,
        threads_per_block=threads_per_block, merge=merge, check=check,
        reexec=reexec, layout=layout, cache_table=cache_table,
        cache_budget_bytes=cache_budget_bytes, device=device,
        measure_success=measure_success, collect=collect, price=price,
        cpu_transition_ns=cpu_transition_ns, backend=backend, kernel=kernel,
        collapse=collapse, plan=plan,
    )
    plan, n, k_eff = xp.chunk_plan, xp.chunks, xp.k
    nplan, kplan, collapse_cfg = xp.native, xp.kplan, xp.collapse
    collect, device = xp.collect, xp.device

    predictor: HistoryPredictor | None = None
    if history is not None:
        predictor = (
            history
            if isinstance(history, HistoryPredictor)
            else HistoryPredictor(history)
        )

    config = EngineConfig(
        k=k_eff,
        enumerative=xp.enumerative,
        num_blocks=xp.num_blocks,
        threads_per_block=xp.threads_per_block,
        merge=merge,
        check=check,
        reexec=reexec,
        layout=xp.layout,
        lookback=lookback,
        cache_table=xp.cache_table,
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
            if ranking is None and inputs.size:
                # Weight states by measured occupancy over an input-prefix
                # sample — the offline-profiling analog of principled
                # speculation. This is preprocessing (like the paper's
                # look-back tables), not counted execution work.
                prior = state_prior(dfa, sample=inputs[: 1 << 14])
            if ranking is None and predictor is not None:
                # Learned boundary-state occupancy from past runs of this
                # machine — the branch-predictor analog. Blended evenly
                # with the sample prior (history measures exactly the
                # boundary distribution speculation needs; the sample
                # keeps a fresh input from being mis-ranked by stale
                # history).
                hist = predictor.prior(dfa)
                if hist is not None:
                    prior = hist if prior is None else 0.5 * (prior + hist)
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
                ranking=ranking,
                stats=stats,
                return_coverage=xp.collapse_requested,
            )
            spec, covered = out if xp.collapse_requested else (out, None)

    # --- hot-state cache plan ---------------------------------------------- #
    cache = None
    cache_mask = None
    if xp.cache_table:
        budget = (
            xp.cache_budget_bytes
            if xp.cache_budget_bytes is not None
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
    tree = None
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
            final_state, tree = merge_parallel(
                dfa,
                inputs,
                plan,
                results,
                check=check,
                reexec=reexec,
                threads_per_block=xp.threads_per_block,
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
        if predictor is not None and true_starts is not None:
            # Ground-truth boundary states feed the cross-run history — the
            # branch-predictor update step.
            predictor.observe(dfa, true_starts)

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
    if xp.price:
        with trace_span("engine.price"):
            model = CostModel(
                device=device,
                **(
                    {"cpu_transition_ns": xp.cpu_transition_ns}
                    if xp.cpu_transition_ns is not None
                    else {}
                ),
            )
            timing = model.price(
                stats,
                num_blocks=xp.num_blocks,
                threads_per_block=xp.threads_per_block,
                merge=merge,
                layout_transformed=(xp.layout == "transformed"),
                cache_enabled=xp.cache_table,
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
        merge_tree=tree if keep_merge_tree else None,
        trace=run_trace,
        native=nplan,
    )


def _run_serial(
    dfa: DFA, inputs: np.ndarray, xp: ExecPlan, config: EngineConfig
) -> SpecExecutionResult:
    """The CPU plan's serial rung: one pass from the start state.

    No prior, collapse probe, look-back, lane stepping, merge or truth
    walk. The one-lane native kernel (``xp.native``) gives the final state
    and, in a second pass, the match positions. Otherwise, or when
    emissions are collected, the :func:`repro.fsm.run.run_reference`
    loop does, keeping the state trajectory when an output reads it.
    """
    size = int(inputs.size)
    start = int(dfa.start)
    nk, collect = xp.native, xp.collect
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
        "engine.local_exec", backend=xp.backend, chunks=1, k=1,
        kernel=xp.kernel,
    ):
        if "emissions" in collect or (collect and nk is None):
            states = run_reference_trace(dfa, inputs)
            final_state = int(states[-1]) if size else start
        elif nk is not None:
            final_state = nk.run_segment(inputs, start)
        else:
            final_state = run_reference(dfa, inputs)

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
        native=nk,
    )


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
        Counted algorithmic events for the whole coalesced batch (one
        :class:`repro.core.types.ExecStats` — per-request attribution is
        not meaningful once chunks share a plan).
    num_requests:
        Number of coalesced requests (including empty ones).
    plan:
        The coalesced :class:`repro.workloads.chunking.ChunkPlan`, or None
        when every segment was empty.
    """

    final_states: np.ndarray
    accepted: np.ndarray
    stats: ExecStats
    num_requests: int
    plan: ChunkPlan | None = None


def run_speculative_batch(
    dfa: DFA,
    segments: list[np.ndarray],
    *,
    starts: list[int] | np.ndarray | None = None,
    k: int | None = 4,
    lookback: int = 8,
    check: str = "auto",
    chunk_items: int = 1 << 13,
    kernel_plan: KernelPlan | None = None,
    prior: np.ndarray | None = None,
    stats: ExecStats | None = None,
    native=None,
) -> BatchExecutionResult:
    """Coalesce many independent requests into one speculative execution.

    Every request shares ``dfa`` but is otherwise independent: request
    ``r`` starts at ``starts[r]`` (default ``dfa.start``) and its final
    state is exactly what running it alone would produce. A thin adapter
    over the one batch pass, :func:`repro.core.multipattern.run_lane_batch`,
    with the machine as a pattern group of one over its raw symbols (no
    alphabet remap, no second kernel): the segments coalesce into one
    chunk plan, step in one pass, and resolve on one sequential walk that
    restarts at each request's head, so nothing crosses a request
    boundary.

    This is the serving layer's execution primitive (:mod:`repro.serve`):
    the per-call overhead of ``run_speculative`` (prior sampling,
    planning, a step loop per request) is paid once per batch.

    Parameters
    ----------
    dfa:
        The machine shared by every request in the batch.
    segments:
        One 1-D dense-symbol array per request; an empty one resolves to
        its start state without executing.
    starts:
        Optional per-request starting states, for continuation segments.
    k:
        Speculation width per chunk (None = enumerative spec-N).
    lookback:
        Look-back window; head chunks also get their known start pinned.
    check:
        Runtime-check implementation for the walk's probes.
    chunk_items:
        Target items per chunk: long requests split so stragglers don't
        serialize the batch.
    kernel_plan:
        Optional :class:`repro.core.kernels.KernelPlan` for this machine
        at width ``k`` (the serving cache passes one): it steps a
        near-equal plan and re-executes speculation misses.
    prior:
        Optional speculation prior (sampled from the batch otherwise).
    stats:
        An :class:`repro.core.types.ExecStats` to accumulate into (the
        server carries one per round) instead of a fresh one.
    native:
        A loaded :class:`repro.core.native.NativeKernel` for this machine
        at width ``k``: chunks step and misses re-execute in the compiled
        loop, with bit-identical results.
    """
    lanes = single_lanes(dfa, k, prior)
    batch = coalesce(
        segments, starts, lanes.dfas, chunk_items=chunk_items,
        num_symbols=dfa.num_inputs,
    )
    finals = batch.starts.astype(np.int32)
    if stats is None:
        stats = lanes.new_stats(
            batch.symbols.size, 0 if batch.plan is None else batch.plan.num_chunks
        )
    if batch.plan is not None:
        with trace_span(
            "engine.batch", requests=len(segments),
            chunks=batch.plan.num_chunks, k=lanes.k_total,
            items=int(batch.symbols.size),
        ):
            finals = run_lane_batch(
                lanes, batch, batch.symbols, lookback=lookback, check=check,
                stats=stats, kernel_plan=kernel_plan, native=native,
            )
    return BatchExecutionResult(
        final_states=finals[:, 0],
        accepted=dfa.accepting[finals[:, 0]].astype(bool),
        stats=stats,
        num_requests=len(segments),
        plan=batch.plan,
    )


def _run_group(
    machines, inputs, *, num_blocks, threads_per_block, kernel, backend,
    collect, gpu_given, **options,
):
    """``run_speculative([dfa, ...], x)``: one pass answers every machine.

    Dispatches to :func:`repro.core.multipattern.run_multipattern`
    (route="auto" — batched union stepping, or the minimised product when
    it fits); use that entry point directly for route control. The chunk
    count follows the engine's plans: the simulated grid when a
    modeled-GPU argument was passed, the CPU rule otherwise.
    """
    if backend is not None:
        check_in_set("backend", backend, ("auto", "vectorized", "native"))
    for item in collect:
        check_in_set("collect item", item, ("match_positions",))
    size = int(np.size(inputs))
    if gpu_given:
        backend = backend or "vectorized"
        kernel = kernel or "lockstep"
    else:
        backend = backend or "auto"
        kernel = kernel or "auto"
    if backend == "auto":
        backend = auto_backend(size)
    num_chunks = None  # run_multipattern's CPU rule
    if gpu_given:
        num_chunks = (num_blocks or GPU_NUM_BLOCKS) * (
            threads_per_block or GPU_THREADS_PER_BLOCK
        )
    return run_multipattern(
        machines, inputs, num_chunks=num_chunks, kernel=kernel,
        backend=backend, collect=collect, **options,
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
    k: int | None = 4,
) -> SpecExecutionResult:
    """Degraded-mode execution: one process, no pool, guaranteed to finish.

    The resilience layer (:mod:`repro.core.resilience`) calls this when a
    :class:`repro.core.mp_executor.ScaleoutPool` run cannot be recovered —
    retries exhausted or the pool below quorum. It is a thin wrapper over
    :func:`run_speculative` on the CPU plan, with pricing and success
    measurement switched off (a degraded run wants an answer, not
    instrumentation), honouring a carried ``start`` state for streaming
    callers.
    """
    run_dfa = dfa if start is None or start == dfa.start else dfa.with_start(start)
    return run_speculative(
        run_dfa, inputs, k=k, price=False, measure_success=False
    )

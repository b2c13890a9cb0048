"""Cost-model-driven selection of the speculation width k and the kernel.

The paper's stated future work: "we will develop a cost model, which
considers the properties of the FSMs, the architecture of GPUs and
property of the input data so that we can decide the optimal value of k".
This module implements exactly that on top of the reproduction's pieces:

1. **probe** — run the engine on a small prefix of the input for each
   candidate k (the probe measures the real speculation success rate and
   re-execution profile for this machine *and* this input);
2. **project** — scale the counted statistics to the full input size;
3. **price** — evaluate the device cost model and pick the argmax.

Because success rates depend on the FSM and the look-back (not on input
length), the probe's rates transfer to the full input, which is what makes
the probe sound. Property tests check that the tuner's choice is never
more than a small factor worse than exhaustively measuring every k.

:func:`choose_kernel` applies the same probe-then-pick discipline to the
stepping-kernel axis (:mod:`repro.core.kernels`): the static
:func:`repro.core.kernels.select_kernel` cost model is cheap but
machine-agnostic, so the tuner *measures* each eligible kernel on a probe
slice of the real input and picks the fastest — table build time is
reported separately because it amortizes across runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.engine import run_speculative
from repro.fsm.dfa import DFA
from repro.gpu.cost import CostModel
from repro.gpu.device import DeviceSpec, TESLA_V100

__all__ = [
    "KChoice",
    "KernelChoice",
    "CollapseChoice",
    "BackendChoice",
    "RouteChoice",
    "choose_k",
    "choose_kernel",
    "choose_collapse",
    "choose_backend",
    "choose_route",
    "candidate_ks",
]


@dataclass(frozen=True)
class KChoice:
    """Outcome of the k auto-tuner."""

    k: int | None  # None = spec-N
    modeled_speedup: float
    per_k: dict  # candidate -> (modeled speedup, success rate)

    @property
    def label(self) -> str:
        """Human-readable spec label."""
        return "spec-N" if self.k is None else f"spec-{self.k}"


def candidate_ks(num_states: int, *, max_k: int = 32) -> list[int | None]:
    """Default candidate grid: powers of two up to the state count, + spec-N."""
    ks: list[int | None] = []
    k = 1
    while k < min(num_states, max_k + 1):
        ks.append(k)
        k *= 2
    ks.append(None)  # spec-N
    return ks


def choose_k(
    dfa: DFA,
    inputs: np.ndarray,
    *,
    num_blocks: int = 80,
    threads_per_block: int = 256,
    lookback: int = 16,
    device: DeviceSpec = TESLA_V100,
    cpu_transition_ns: float | None = None,
    probe_items: int = 1 << 18,
    candidates: list[int | None] | None = None,
    merge: str = "parallel",
    target_items: int | None = None,
) -> KChoice:
    """Pick the spec width that maximizes modeled speedup on ``device``.

    Runs a probe execution per candidate on an input prefix, projects the
    counted statistics to ``target_items`` (default: the full input
    length), and prices them. The probe cost is
    O(len(candidates) * probe_items) actual work.
    """
    inputs = np.asarray(inputs)
    if inputs.size == 0:
        raise ValueError("cannot tune k on an empty input")
    probe = inputs[: min(probe_items, inputs.size)]
    if candidates is None:
        candidates = candidate_ks(dfa.num_states)
    # Candidates at or above the state count are all spec-N: normalize and
    # deduplicate so the report does not show a misleading finite k.
    seen: set = set()
    normalized: list[int | None] = []
    for k in candidates:
        k_norm = None if (k is None or k >= dfa.num_states) else k
        if k_norm not in seen:
            seen.add(k_norm)
            normalized.append(k_norm)
    candidates = normalized
    if target_items is None:
        target_items = int(inputs.size)
    model = CostModel(
        device=device,
        **(
            {"cpu_transition_ns": cpu_transition_ns}
            if cpu_transition_ns is not None
            else {}
        ),
    )
    per_k: dict = {}
    best: tuple[int | None, float] = (1, -1.0)
    for k in candidates:
        result = run_speculative(
            dfa, probe, k=k, num_blocks=num_blocks,
            threads_per_block=threads_per_block, merge=merge,
            lookback=lookback, device=device, price=False,
        )
        projected = result.stats.project(int(target_items))
        timing = model.price(
            projected,
            num_blocks=num_blocks,
            threads_per_block=threads_per_block,
            merge=merge,
            layout_transformed=True,
        )
        per_k[k] = (timing.speedup, result.stats.success_rate)
        if timing.speedup > best[1]:
            best = (k, timing.speedup)
    return KChoice(k=best[0], modeled_speedup=best[1], per_k=per_k)


@dataclass(frozen=True)
class KernelChoice:
    """Outcome of the stepping-kernel auto-tuner.

    ``measured_s`` maps each candidate kernel to its best measured
    execution time on the probe (table build excluded — it is one-time and
    amortizes); ``build_s`` maps stride kernels to their table build cost.
    ``modeled_s`` carries the static cost model's predictions for the same
    candidates so benchmarks can report model-vs-measurement drift.
    """

    kernel: str
    measured_s: dict
    build_s: dict
    modeled_s: dict
    probe_items: int

    @property
    def speedup_vs_lockstep(self) -> float:
        """Measured probe speedup of the chosen kernel over lockstep."""
        base = self.measured_s.get("lockstep")
        if not base:
            return 1.0
        return base / self.measured_s[self.kernel]


def choose_kernel(
    dfa: DFA,
    inputs: np.ndarray,
    *,
    num_chunks: int = 4096,
    k: int = 4,
    lookback: int = 8,
    probe_items: int = 1 << 16,
    repeats: int = 3,
    candidates: tuple[str, ...] = ("lockstep", "stride2", "stride4"),
    table_budget_bytes: int | None = None,
) -> KernelChoice:
    """Measure every eligible kernel on a probe and pick the fastest.

    Each candidate executes the same speculated chunk plan over a prefix
    of ``inputs``; the reported time is the best of ``repeats`` runs of
    the steady-state stepping loop only (compaction, packing, and stride
    tables are built outside the timed region — they are either one-time
    or already amortized by the caller's layout transform). The lockstep
    candidate is timed through the incumbent
    :func:`repro.core.local.process_chunks` so the comparison is against
    the real production path, not a reimplementation.

    Kernel throughput is input-distribution-dependent only through memory
    effects (gather locality), so a prefix probe transfers to the full
    input the same way the k-tuner's success rates do.
    """
    from repro.core.kernels import (
        DEFAULT_TABLE_BUDGET_BYTES,
        KERNELS,
        _predict_costs,
        advance_matrix,
        pack_stride,
        plan_kernel,
    )
    from repro.core.local import process_chunks
    from repro.core.lookback import speculate
    from repro.workloads.chunking import plan_chunks, transform_layout

    if table_budget_bytes is None:
        table_budget_bytes = DEFAULT_TABLE_BUDGET_BYTES
    inputs = np.asarray(inputs)
    if inputs.size == 0:
        raise ValueError("cannot tune the kernel on an empty input")
    probe = np.ascontiguousarray(inputs[: min(probe_items, inputs.size)])
    plan = plan_chunks(probe.size, num_chunks)
    k_eff = min(int(k), dfa.num_states)
    spec = (
        speculate(dfa, probe, plan, k_eff, lookback=lookback)
        if k_eff < dfa.num_states
        else np.tile(np.arange(dfa.num_states, dtype=np.int32), (num_chunks, 1))
    )
    transformed = transform_layout(probe, plan)

    measured: dict = {}
    build: dict = {}
    for name in candidates:
        if name not in KERNELS:
            raise ValueError(f"unknown kernel candidate {name!r}")
        if name == "lockstep":
            def runner():
                return process_chunks(dfa, probe, plan, spec, transformed=transformed)
        elif name == "scalar":
            kplan = plan_kernel(
                dfa, chunk_len=plan.max_len, num_chunks=num_chunks, k=k_eff,
                kernel="scalar", table_budget_bytes=table_budget_bytes,
            )
            build[name] = kplan.build_s

            def runner(kp=kplan):
                from repro.core.kernels import process_chunks_kernel

                return process_chunks_kernel(dfa, probe, plan, spec, kp)
        else:
            m = KERNELS[name].stride
            try:
                kplan = plan_kernel(
                    dfa, chunk_len=plan.max_len, num_chunks=num_chunks,
                    k=k_eff, kernel=name, table_budget_bytes=table_budget_bytes,
                )
            except ValueError:
                continue  # stride table over budget: ineligible
            build[name] = kplan.build_s
            cls = kplan.compaction.remap(probe)
            packed = pack_stride(cls, plan, m, kplan.compaction.num_classes)

            def runner(kp=kplan, pk=packed):
                return advance_matrix(kp, pk, spec)
        best = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            runner()
            best = min(best, time.perf_counter() - t0)
        measured[name] = best

    from repro.fsm.alphabet import compact_alphabet

    comp = compact_alphabet(dfa.table)
    modeled = _predict_costs(
        comp.num_classes, dfa.num_states, plan.max_len, num_chunks, k_eff,
        table_budget_bytes=table_budget_bytes,
    )
    chosen = min(measured, key=measured.get)  # type: ignore[arg-type]
    return KernelChoice(
        kernel=chosen,
        measured_s=measured,
        build_s=build,
        modeled_s={n: modeled[n] for n in measured if n in modeled},
        probe_items=int(probe.size),
    )


@dataclass(frozen=True)
class CollapseChoice:
    """Outcome of the convergence-layer auto-tuner.

    ``measured_s`` maps each candidate's label (``"off"``,
    ``"on(W=32)"``, ...) to its best measured local-processing time on the
    probe. ``probe_cadence`` carries what the cheap analytic probe
    (:func:`repro.core.convergence.probe_cadence`) would have picked, so
    benchmarks can report measured-vs-probe drift.
    """

    config: "object | None"  # CollapseConfig, or None for "off"
    measured_s: dict
    probe_cadence: int | None
    probe_items: int

    @property
    def label(self) -> str:
        """Human-readable form of the winning configuration."""
        return "off" if self.config is None else self.config.label

    @property
    def speedup_vs_off(self) -> float:
        """Measured probe speedup of the winner over collapse-off."""
        base = self.measured_s.get("off")
        if not base:
            return 1.0
        return base / self.measured_s[self.label]


def choose_collapse(
    dfa: DFA,
    inputs: np.ndarray,
    *,
    num_chunks: int = 2048,
    k: int = 8,
    lookback: int = 16,
    probe_items: int = 1 << 16,
    repeats: int = 3,
    cadences: tuple[int, ...] = (8, 32, 128),
) -> CollapseChoice:
    """Measure collapse-off against candidate scan cadences; pick the fastest.

    The measured analog of :func:`repro.core.convergence.probe_cadence`,
    following the :func:`choose_kernel` discipline: every candidate runs
    the same speculated chunk plan over a prefix of ``inputs`` through
    :func:`repro.core.local.process_chunks` (the production lock-step
    path), timed as best-of-``repeats``. On never-converging machines the
    geometric back-off keeps every "on" candidate within noise of "off",
    so the tuner degrades gracefully; on high-convergence machines the
    cadence choice trades scan overhead against how early lanes narrow.
    """
    from repro.core.convergence import CollapseConfig, probe_cadence
    from repro.core.local import process_chunks
    from repro.core.lookback import speculate
    from repro.workloads.chunking import plan_chunks, transform_layout

    inputs = np.asarray(inputs)
    if inputs.size == 0:
        raise ValueError("cannot tune collapse on an empty input")
    probe = np.ascontiguousarray(inputs[: min(probe_items, inputs.size)])
    plan = plan_chunks(probe.size, num_chunks)
    k_eff = min(int(k), dfa.num_states)
    spec = (
        speculate(dfa, probe, plan, k_eff, lookback=lookback)
        if k_eff < dfa.num_states
        else np.tile(np.arange(dfa.num_states, dtype=np.int32), (num_chunks, 1))
    )
    transformed = transform_layout(probe, plan)

    candidates: list = [None]
    candidates += [CollapseConfig(cadence=w) for w in cadences]
    measured: dict = {}
    best: tuple = (None, float("inf"))
    for cfg in candidates:
        label = "off" if cfg is None else cfg.label
        t_best = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            process_chunks(
                dfa, probe, plan, spec, transformed=transformed, collapse=cfg
            )
            t_best = min(t_best, time.perf_counter() - t0)
        measured[label] = t_best
        if t_best < best[1]:
            best = (cfg, t_best)
    return CollapseChoice(
        config=best[0],
        measured_s=measured,
        probe_cadence=probe_cadence(dfa, probe, k=k_eff),
        probe_items=int(probe.size),
    )


BACKEND_CANDIDATES = ("vectorized", "native")


@dataclass(frozen=True)
class BackendChoice:
    """Outcome of the local-processing backend auto-tuner.

    ``measured_s`` maps each eligible backend (``"vectorized"``,
    ``"native"``) to its best measured execution time on the probe;
    ``build_s`` carries one-time costs (stride-table build, native C
    compile or artifact load) separately because they amortize across
    runs. An unavailable backend (no compiler, over-budget table) is
    simply absent from ``measured_s`` — it can never be chosen.
    """

    backend: str
    measured_s: dict
    build_s: dict
    probe_items: int
    kernel: str

    @property
    def speedup_vs_numpy(self) -> float:
        """Measured probe speedup of the winner over the NumPy path."""
        base = self.measured_s.get("vectorized")
        if not base:
            return 1.0
        return base / self.measured_s[self.backend]


def choose_backend(
    dfa: DFA,
    inputs: np.ndarray,
    *,
    num_chunks: int = 1024,
    k: int = 4,
    lookback: int = 8,
    probe_items: int = 1 << 16,
    repeats: int = 3,
    candidates: tuple[str, ...] = BACKEND_CANDIDATES,
    kernel: str = "auto",
    collapse=None,
    table_budget_bytes: int | None = None,
) -> BackendChoice:
    """Measure every local-processing backend on a probe; pick the fastest.

    The backend axis completes the tuner family (k, kernel, collapse):
    every candidate executes the same speculated chunk plan over a prefix
    of ``inputs``, timed as best-of-``repeats``. ``"vectorized"`` runs the
    planned NumPy kernel (``kernel="auto"`` resolves per machine),
    ``"native"`` the compiled C loop (:mod:`repro.core.native`) — which is
    only *eligible* when a kernel compiles, loads and smoke-checks, so "no
    compiler" can never win by accident, and only *chosen* when it
    actually measures faster. The serving layer calls this at
    tenant-registration time, off the request path.
    """
    from repro.core.kernels import (
        DEFAULT_TABLE_BUDGET_BYTES,
        plan_kernel,
        process_chunks_kernel,
    )
    from repro.core.local import process_chunks
    from repro.core.lookback import speculate
    from repro.core.native import load_native_plan
    from repro.workloads.chunking import plan_chunks, transform_layout

    for name in candidates:
        if name not in BACKEND_CANDIDATES:
            raise ValueError(
                f"unknown backend candidate {name!r}; "
                f"expected one of {BACKEND_CANDIDATES}"
            )
    if table_budget_bytes is None:
        table_budget_bytes = DEFAULT_TABLE_BUDGET_BYTES
    inputs = np.asarray(inputs)
    if inputs.size == 0:
        raise ValueError("cannot tune the backend on an empty input")
    probe = np.ascontiguousarray(inputs[: min(probe_items, inputs.size)])
    plan = plan_chunks(probe.size, num_chunks)
    k_eff = min(int(k), dfa.num_states)
    spec = (
        speculate(dfa, probe, plan, k_eff, lookback=lookback)
        if k_eff < dfa.num_states
        else np.tile(
            np.arange(dfa.num_states, dtype=np.int32), (plan.num_chunks, 1)
        )
    )
    transformed = transform_layout(probe, plan)
    kplan = plan_kernel(
        dfa, chunk_len=plan.max_len, num_chunks=plan.num_chunks, k=k_eff,
        kernel=kernel, table_budget_bytes=table_budget_bytes,
    )

    measured: dict = {}
    build: dict = {"kernel_plan": kplan.build_s}
    runners: dict = {}
    for name in candidates:
        if name == "vectorized":
            if kplan.kernel == "lockstep":
                runners[name] = lambda: process_chunks(
                    dfa, probe, plan, spec, transformed=transformed,
                    collapse=collapse,
                )
            else:
                runners[name] = lambda: process_chunks_kernel(
                    dfa, probe, plan, spec, kplan,
                    transformed=transformed, collapse=collapse,
                )
        else:
            t0 = time.perf_counter()
            nk = load_native_plan(
                dfa, k=k_eff, kplan=kplan, collapse=collapse,
                table_budget_bytes=table_budget_bytes,
            )
            build[name] = time.perf_counter() - t0
            if nk is None:
                continue  # no compiler: ineligible
            runners[name] = lambda n=nk: n.process_chunks(probe, plan, spec)
    for name, runner in runners.items():
        best = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            runner()
            best = min(best, time.perf_counter() - t0)
        measured[name] = best
    chosen = min(measured, key=measured.get)  # type: ignore[arg-type]
    return BackendChoice(
        backend=chosen,
        measured_s=measured,
        build_s=build,
        probe_items=int(probe.size),
        kernel=kplan.kernel,
    )


@dataclass(frozen=True)
class RouteChoice:
    """Outcome of the multi-pattern route auto-tuner.

    ``measured_s`` maps each eligible route (``"batched"``, ``"product"``)
    to its best measured probe time; the product route is absent when the
    reachable product blows the state budget (it can then never be
    chosen). ``product_states`` is the minimised product's state count
    when it was materialized.
    """

    route: str
    measured_s: dict
    probe_items: int
    num_patterns: int
    product_states: int | None = None

    @property
    def speedup_vs_batched(self) -> float:
        """Measured probe speedup of the winner over the batched route."""
        base = self.measured_s.get("batched")
        if not base:
            return 1.0
        return base / self.measured_s[self.route]


def choose_route(
    machines,
    inputs: np.ndarray,
    *,
    k: int = 4,
    num_chunks: int = 64,
    lookback: int = 8,
    probe_items: int = 1 << 16,
    repeats: int = 3,
    kernel: str = "auto",
    collapse="auto",
    product_budget: int | None = None,
) -> "RouteChoice":
    """Measure both multi-pattern routes on a probe; pick the fastest.

    The static selector (:func:`repro.core.multipattern.run_multipattern`
    with ``route="auto"``) only asks whether the product *fits*; this
    tuner asks which route actually *wins* on this machine group and this
    input, with the same probe-then-pick discipline as the other axes.
    The product route is eligible only when the reachable product stays
    under ``product_budget`` states after parallel minimisation.
    """
    from repro.core.multipattern import (
        DEFAULT_PRODUCT_BUDGET,
        _build_product,
        run_multipattern,
        stack_machines,
    )
    from repro.fsm.product import ProductStateBudget

    if product_budget is None:
        product_budget = DEFAULT_PRODUCT_BUDGET
    inputs = np.asarray(inputs)
    if inputs.size == 0:
        raise ValueError("cannot tune the route on an empty input")
    probe = np.ascontiguousarray(inputs[: min(probe_items, inputs.size)])
    stack = stack_machines(list(machines))

    product_states: int | None = None
    routes = ["batched"]
    try:
        prod = _build_product(stack, budget=int(product_budget))
    except ProductStateBudget:
        pass
    else:
        product_states = int(prod.dfa.num_states)
        routes.append("product")

    measured: dict = {}
    for route in routes:
        best = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            run_multipattern(
                stack.machines, probe, k=k, num_chunks=num_chunks,
                lookback=lookback, kernel=kernel, collapse=collapse,
                route=route, collect=(), stack=stack,
            )
            best = min(best, time.perf_counter() - t0)
        measured[route] = best
    chosen = min(measured, key=measured.get)  # type: ignore[arg-type]
    return RouteChoice(
        route=chosen,
        measured_s=measured,
        probe_items=int(probe.size),
        num_patterns=stack.num_patterns,
        product_states=product_states,
    )

"""Multi-pattern execution: N machines, one pass over the stream.

The NIDS scenario checks many patterns against the same input. Running one
speculative pass per pattern reads the stream P times; this layer answers
"which of N rules fired where" in **one** pass, by one of two routes:

**Batched stepping** (:func:`run_multipattern`, ``route="batched"``).
All patterns are compacted onto a *joint* cross-pattern alphabet
(:func:`repro.fsm.alphabet.compact_alphabet_joint`) and their class tables
are stacked block-diagonally into one *union table*: pattern ``p``'s states
are shifted by ``offset[p]`` and ``union[c, offset[p] + q] =
tables[p][c, q] + offset[p]``. Stepping a ``(chunks, sum_p k_p)`` state
matrix through the union table advances **all** patterns with one fused
gather per (stride of) symbol(s) — the padding-free realization of the
``(P, C, S)`` padded 3-D table (exposed by
:meth:`repro.fsm.alphabet.JointCompaction.padded_table` for inspection).
Because blocks are disjoint and closed under transition, every existing
layer works per-pattern on column slices: speculation, stride-m kernels
(one radix-packed stream shared by all patterns), convergence collapse
(duplicate lanes only ever collide within a pattern's block), and both
merges.

**Product route** (``route="product"``). The reachable product of the
group's class machines (:func:`repro.fsm.product.product_dfa`, whole-frontier
construction) is minimised with the parallel partition refinement
(:func:`repro.fsm.minimize.minimize_dfa` ``parallel=True``) while
preserving per-component acceptance, then the whole group rides the
ordinary single-DFA fast path — including the native backend — as one
machine. Only viable when the product stays under a state budget.

``route="auto"`` tries the product under the budget and falls back to
batched.

Per-pattern match positions come from a truth pass shared by the whole
group (not one pass per pattern) — the native accept pass when a compiled
kernel stepped the group, NumPy lock-step otherwise. On the batched native
route with lane collapse on, the stepping pass itself records the matches
of every chunk after its lanes collapse; the truth pass then replays only
the prefix before the collapse of each chunk whose speculation hit, and
replays in full only the chunks that missed or never collapsed (the
paper's delayed re-execution, §3.3, applied to outputs). Matches are
bit-exact against the sequential reference on every kernel / merge /
collapse combination — the property tests assert exactly that.

The batched route and the one request-batch driver (:func:`run_lane_batch`,
behind :func:`run_multipattern_batch` and
:func:`repro.core.engine.run_speculative_batch`) share one set of lane
stages over ``P >= 1`` patterns: a single DFA is a group of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from repro.core.convergence import (
    CollapseConfig,
    converged_chunks,
    resolve_group_collapse,
)
from repro.core.kernels import (
    DEFAULT_TABLE_BUDGET_BYTES,
    KERNELS,
    KernelPlan,
    plan_kernel,
    process_chunks_kernel,
    run_segment_kernel,
)
from repro.core.lookback import enumerative_spec, pin_states, speculate, state_prior
from repro.core.local import process_chunks_ragged
from repro.core.merge_par import merge_parallel
from repro.core.merge_seq import merge_sequential, true_boundary_walk
from repro.core.plan import cpu_chunks
from repro.core.replay import ChunkReplay
from repro.core.types import ChunkResults, ExecStats
from repro.fsm.alphabet import (
    AlphabetCompaction,
    JointCompaction,
    compact_alphabet_joint,
)
from repro.fsm.analysis import group_state_frequency
from repro.fsm.dfa import DFA
from repro.fsm.product import (
    ProductDFA,
    ProductStateBudget,
    minimize_product,
    product_dfa,
)
from repro.obs.trace import RunTrace, current_trace, trace_span
from repro.util.validation import check_in_set, check_symbols
from repro.workloads.chunking import (
    ChunkPlan,
    plan_chunks,
    plan_from_lengths,
    transform_layout,
)

__all__ = [
    "MachineStack",
    "MultiPatternResult",
    "PatternResult",
    "stack_machines",
    "run_multipattern",
    "run_multipattern_batch",
]

# The product route only pays when the minimised product is small enough to
# make one k-wide pass cheaper than the (sum k_p)-wide batched pass;
# "auto" stops materialising the product past this many states and falls
# back to batched.
DEFAULT_PRODUCT_BUDGET = 512
# Product construction cost grows with P even when the result is small;
# "auto" does not attempt it past this group size.
DEFAULT_PRODUCT_MAX_PATTERNS = 8
# Union kernel plans kept per stack (one per chunk geometry); the oldest
# goes first.
_KPLAN_CACHE_MAX = 4
# Symbols a pattern prior samples, as in
# repro.fsm.analysis.dynamic_state_frequency_sampled.
_PRIOR_SAMPLE = 1 << 16


@dataclass(frozen=True)
class MachineStack:
    """A pattern group compiled for batched multi-DFA stepping.

    Attributes
    ----------
    machines:
        The original machines, in group order.
    joint:
        The cross-pattern :class:`repro.fsm.alphabet.JointCompaction`
        (shared ``class_of`` + one class table per pattern).
    offsets:
        ``(P + 1,)`` int64 — pattern ``p`` owns union states
        ``offsets[p] .. offsets[p+1] - 1``.
    union_dfa:
        The block-diagonal stacked machine over the joint class alphabet.
        Its transition function is the disjoint union of the patterns';
        it is **never** run as one trajectory (a single state only tracks
        one block) — the batched kernels carry one lane group per pattern.
    class_dfas:
        Per-pattern machines over the joint class alphabet (pattern-local
        state ids) — what speculation, merges, and re-execution run on.
    """

    machines: tuple
    joint: JointCompaction
    offsets: np.ndarray
    union_dfa: DFA
    class_dfas: tuple
    _prior_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _kplan_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_patterns(self) -> int:
        """Group size ``P``."""
        return len(self.machines)

    @property
    def num_union_states(self) -> int:
        """Total stacked state count ``sum_p S_p``."""
        return int(self.offsets[-1])

    @property
    def table_bytes(self) -> int:
        """Footprint of the published union class table."""
        return int(self.union_dfa.table.nbytes)

    def identity_compaction(self) -> AlphabetCompaction:
        """The union table as an already-compacted kernel input.

        Joint classes are distinct by construction (two identical union
        rows would mean every pattern agreed, contradicting joint
        compaction), so the class map is the identity and
        :func:`repro.core.kernels.plan_kernel` can skip re-compaction.
        """
        c = self.joint.num_classes
        return AlphabetCompaction(
            class_of=np.arange(c, dtype=np.int32),
            table=self.union_dfa.table,
            num_symbols=c,
        )

    def pattern_prior(self, p: int, sample: np.ndarray) -> np.ndarray:
        """Pattern ``p``'s speculation prior, computed once per stack.

        The prior only steers *which* states get speculated — a stale one
        costs misses, never wrong answers — so the sampled reference walks
        (the expensive part) run once, for every pattern together
        (:func:`repro.fsm.analysis.group_state_frequency` walks the small
        machines jointly), and are reused by every subsequent call against
        this stack. Each prior equals
        :func:`repro.core.lookback.state_prior` of the pattern's class
        machine over ``sample``.
        """
        hit = self._prior_cache.get(p)
        if hit is None:
            priors = {}
            for q, freq in enumerate(
                group_state_frequency(self.class_dfas, sample[:_PRIOR_SAMPLE])
            ):
                freq = freq.astype(np.float64)
                freq += 0.5  # state_prior's Laplace smoothing
                priors[q] = freq / freq.sum()
            if sample.size:
                self._prior_cache.update(priors)
            hit = priors[p]
        return hit

    def kernel_plan(
        self,
        *,
        chunk_len: int,
        num_chunks: int,
        k: int,
        kernel: str,
        table_budget_bytes: int,
    ) -> KernelPlan:
        """The union table's kernel plan for one chunk geometry, built once.

        Repeated calls of the same size get the same plan object, which is
        what lets :func:`repro.core.native.load_native_plan` (it keys a
        caller-supplied plan by identity) hit its memory cache.
        """
        key = (chunk_len, num_chunks, k, kernel, table_budget_bytes)
        hit = self._kplan_cache.get(key)
        if hit is None:
            hit = plan_kernel(
                self.union_dfa, chunk_len=chunk_len, num_chunks=num_chunks,
                k=k, kernel=kernel, table_budget_bytes=table_budget_bytes,
                compaction=self.identity_compaction(),
            )
            if len(self._kplan_cache) >= _KPLAN_CACHE_MAX:
                del self._kplan_cache[next(iter(self._kplan_cache))]
            self._kplan_cache[key] = hit
        return hit


def stack_machines(machines: list[DFA]) -> MachineStack:
    """Compile a pattern group into a :class:`MachineStack`.

    Validates that all machines share an input space, computes the joint
    alphabet compaction, and builds the block-diagonal union table.
    """
    if not machines:
        raise ValueError("multi-pattern group of zero machines")
    num_inputs = machines[0].num_inputs
    for m in machines:
        if m.num_inputs != num_inputs:
            raise ValueError(
                f"machines disagree on num_inputs: {m.num_inputs} != {num_inputs}"
            )
    with trace_span("mp.stack", patterns=len(machines)) as sp:
        joint = compact_alphabet_joint([m.table for m in machines])
        sizes = np.asarray(joint.state_counts, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        blocks = [
            t.astype(np.int64) + offsets[p] for p, t in enumerate(joint.tables)
        ]
        union_table = np.ascontiguousarray(
            np.concatenate(blocks, axis=1).astype(np.int32)
        )
        union_accepting = np.concatenate([m.accepting for m in machines])
        union_dfa = DFA(
            table=union_table,
            start=int(machines[0].start),
            accepting=union_accepting,
            name="union:" + ",".join(m.name or "?" for m in machines),
        )
        class_dfas = tuple(
            DFA(
                table=joint.tables[p],
                start=int(m.start),
                accepting=m.accepting,
                name=m.name,
            )
            for p, m in enumerate(machines)
        )
        sp.set(
            classes=joint.num_classes,
            union_states=int(offsets[-1]),
            table_bytes=int(union_table.nbytes),
        )
    obs = current_trace()
    if obs is not None:
        obs.count("mp.padded_table_bytes", int(union_table.nbytes))
    return MachineStack(
        machines=tuple(machines),
        joint=joint,
        offsets=offsets,
        union_dfa=union_dfa,
        class_dfas=class_dfas,
    )


@dataclass
class PatternResult:
    """One pattern's outcome within a multi-pattern run.

    ``final_state`` and ``true_starts`` are in the pattern's *own* state
    space on the batched route; the product route executes a minimised
    product whose states have no per-component decomposition, so there they
    are ``None`` (acceptance and match positions stay exact on both).
    """

    name: str
    accepted: bool
    final_state: int | None = None
    match_positions: np.ndarray | None = None
    true_starts: np.ndarray | None = None

    @property
    def match_count(self) -> int:
        """Number of recovered match positions (0 when not collected)."""
        return 0 if self.match_positions is None else int(self.match_positions.size)


@dataclass
class MultiPatternResult:
    """Everything produced by one :func:`run_multipattern` call.

    Attributes
    ----------
    route:
        ``"batched"`` or ``"product"`` — the route that actually ran.
    patterns:
        One :class:`PatternResult` per machine, in group order.
    stats:
        Counted algorithmic events for the whole group (one
        :class:`repro.core.types.ExecStats`; per-pattern attribution is
        not meaningful once lanes share a gather).
    plan:
        The shared :class:`repro.workloads.chunking.ChunkPlan`.
    stack:
        The compiled :class:`MachineStack` (batched route only).
    product:
        The minimised :class:`repro.fsm.product.ProductDFA` (product
        route only).
    product_true_starts:
        Product-state chunk-boundary map (product route only).
    trace:
        The observing :class:`repro.obs.RunTrace`, if any.
    """

    route: str
    patterns: tuple
    stats: ExecStats
    plan: ChunkPlan
    stack: MachineStack | None = None
    product: ProductDFA | None = None
    product_true_starts: np.ndarray | None = None
    trace: RunTrace | None = field(default=None, repr=False)

    @property
    def num_patterns(self) -> int:
        """Group size ``P``."""
        return len(self.patterns)

    @property
    def accepted(self) -> np.ndarray:
        """``(P,)`` bool — per-pattern acceptance of the whole input."""
        return np.array([p.accepted for p in self.patterns], dtype=bool)

    @property
    def match_positions(self) -> tuple:
        """Per-pattern match-position arrays (``None`` when not collected)."""
        return tuple(p.match_positions for p in self.patterns)


def _pattern_results(
    stack: MachineStack, accepted, matches=None, finals=None, true_starts=None
) -> tuple:
    """One :class:`PatternResult` per pattern (``true_starts`` is ``(n, P)``)."""
    return tuple(
        PatternResult(
            name=m.name or f"pattern_{p}",
            accepted=bool(accepted[p]),
            final_state=None if finals is None else int(finals[p]),
            match_positions=None if matches is None else matches[p],
            true_starts=None if true_starts is None else true_starts[:, p].copy(),
        )
        for p, m in enumerate(stack.machines)
    )


def _recover_group_matches(
    table: np.ndarray,
    accept_matrix: np.ndarray,
    cls: np.ndarray,
    plan: ChunkPlan,
    states0: np.ndarray,
    *,
    shared_trajectory: bool = False,
) -> list[np.ndarray]:
    """One shared truth pass recovering every pattern's match positions.

    ``states0`` is ``(num_chunks, W)`` — one trajectory per pattern on the
    batched route (``W = P``, union states), a single shared trajectory on
    the product route (``shared_trajectory=True``, ``W = 1``).
    ``accept_matrix`` is ``(S, P)`` bool; gathering it at the current
    states yields the ``(num_chunks, P)`` acceptance panel each step. Cost
    is one pass over the stream for the whole group, not one per pattern.
    """
    P = accept_matrix.shape[1]
    S = np.asarray(states0, dtype=np.int32).copy()
    lanes = np.arange(S.shape[1], dtype=np.intp)[None, :]
    pos_parts: list[np.ndarray] = []
    pat_parts: list[np.ndarray] = []

    def visit(pos: np.ndarray, S: np.ndarray) -> None:
        if shared_trajectory:
            acc = accept_matrix[S[:, 0]]          # (rows, P)
        else:
            acc = accept_matrix[S, lanes[: 1]]    # acc[c, p] at lane p's state
        if acc.any():
            rows, pats = np.nonzero(acc)
            pos_parts.append(pos[rows].astype(np.int64))
            pat_parts.append(pats.astype(np.int64))

    q = plan.min_len
    starts = plan.starts
    for j in range(q):
        pos = starts + j
        S = table[cls[pos][:, None], S]
        visit(pos, S)
    long_idx = np.flatnonzero(plan.lengths > q)
    if long_idx.size:
        pos = starts[long_idx] + q
        S2 = table[cls[pos][:, None], S[long_idx]]
        visit(pos, S2)

    if not pos_parts:
        return [np.zeros(0, dtype=np.int64) for _ in range(P)]
    all_pos = np.concatenate(pos_parts)
    all_pat = np.concatenate(pat_parts)
    out = []
    for p in range(P):
        sel = all_pos[all_pat == p]
        out.append(np.sort(sel, kind="stable"))
    return out


def _group_matches(
    native,
    table: np.ndarray,
    accept_matrix: np.ndarray,
    cls: np.ndarray,
    plan: ChunkPlan,
    states0: np.ndarray,
    *,
    shared_trajectory: bool = False,
    lengths: np.ndarray | None = None,
    recorded: tuple | None = None,
) -> list[np.ndarray]:
    """Per-pattern match positions, on the kernel that did the stepping.

    With a loaded :class:`repro.core.native.NativeKernel` the truth pass
    is its accept pass: it records ``(position, lane, state)`` for every
    step into a state that accepts for some pattern, and the pattern is
    the lane (batched union, one lane per pattern) or every pattern
    ``accept_matrix[state]`` credits (shared product trajectory). Without
    one it is :func:`_recover_group_matches`, the NumPy oracle; both
    return the same arrays.

    ``lengths`` (native only) replays just a prefix of each chunk, and
    ``recorded = (positions, patterns)`` supplies the matches of the
    rest, taken by the stepping pass (:func:`_clean_replay`).
    """
    if native is None:
        return _recover_group_matches(
            table, accept_matrix, cls, plan, states0,
            shared_trajectory=shared_trajectory,
        )
    P = accept_matrix.shape[1]
    pos, lane, state = native.accept_positions(
        cls, plan.starts, plan.lengths if lengths is None else lengths,
        states0, accept_matrix.any(axis=1),
    )
    if shared_trajectory:
        rows, pats = np.nonzero(accept_matrix[state])
        pos = pos[rows]
    else:
        pats = lane
    if recorded is None:
        # Within one lane (or the one shared lane) positions already
        # ascend; a stable sort by pattern keeps that order in a pattern.
        order = np.argsort(pats, kind="stable")
    else:
        pos = np.concatenate([pos, recorded[0]])
        pats = np.concatenate([pats, recorded[1]])
        order = np.lexsort((pos, pats))
    bounds = np.cumsum(np.bincount(pats, minlength=P))[:-1]
    return np.split(pos[order], bounds)


def _clean_replay(records, plan: ChunkPlan, cols, boundary: np.ndarray):
    """What the truth pass still replays once the stepping pass recorded.

    A chunk is *clean* when its lanes collapsed and every pattern's true
    entry state (``boundary[c, p]``) is among that pattern's speculated
    lanes (``cols[p][c]``): the true trajectory is then one of the lanes,
    so from the collapse position on it is the recorded continuation.
    Returns ``(lengths, recorded, clean)``: per-chunk replay lengths (the
    prefix before the collapse for a clean chunk, the whole chunk
    otherwise), the ``(positions, patterns)`` recorded in clean chunks,
    and the clean mask. Events recorded in any other chunk are dropped.
    """
    clean = records.collapse_at >= 0
    for p, spec_p in enumerate(cols):
        clean &= (spec_p == boundary[:, p : p + 1]).any(axis=1)
    lengths = np.where(clean, records.collapse_at, plan.lengths)
    chunk = np.searchsorted(plan.starts, records.positions, side="right") - 1
    keep = clean[chunk]
    return (
        lengths,
        (records.positions[keep], records.patterns[keep].astype(np.intp)),
        clean,
    )


def _batched_accept_matrix(stack: MachineStack) -> np.ndarray:
    """``(S_total, P)`` panel: union state ``s`` accepts for pattern ``p``.

    Off-block entries are False, so gathering at pattern ``p``'s trajectory
    column can never credit a match to another pattern.
    """
    s_total = stack.num_union_states
    P = stack.num_patterns
    acc = np.zeros((s_total, P), dtype=bool)
    for p, m in enumerate(stack.machines):
        lo, hi = int(stack.offsets[p]), int(stack.offsets[p + 1])
        acc[lo:hi, p] = m.accepting
    return acc


def run_multipattern(
    machines,
    inputs: np.ndarray,
    *,
    k: int | None = 4,
    num_chunks: int | None = None,
    merge: str = "parallel",
    check: str = "auto",
    lookback: int = 8,
    kernel: str = "auto",
    collapse: str | CollapseConfig | None = "auto",
    backend: str = "vectorized",
    route: str = "auto",
    product_budget: int = DEFAULT_PRODUCT_BUDGET,
    product_max_patterns: int = DEFAULT_PRODUCT_MAX_PATTERNS,
    collect: tuple[str, ...] = ("match_positions",),
    plan: ChunkPlan | None = None,
    table_budget_bytes: int = DEFAULT_TABLE_BUDGET_BYTES,
    stack: MachineStack | None = None,
    trace: RunTrace | None = None,
) -> MultiPatternResult:
    """Run every machine in ``machines`` over ``inputs`` in one pass.

    Parameters mirror :func:`repro.core.engine.run_speculative` where they
    mean the same thing; the ones specific to this layer:

    Parameters
    ----------
    machines:
        The pattern group — a list of :class:`repro.fsm.dfa.DFA` over one
        shared input space. A prebuilt :class:`MachineStack` can be passed
        via ``stack`` to amortize group compilation across calls.
    k:
        Per-pattern speculation width; clamped to each pattern's state
        count (ragged groups simply get ragged lane widths). ``None``
        enumerates every pattern's states.
    num_chunks:
        Chunk count of the shared plan. ``None`` (default) applies the
        engine's CPU rule, :func:`repro.core.plan.cpu_chunks` for the
        input length and ``backend`` (64 chunks for a long native call).
        Ignored when ``plan`` is given.
    route:
        ``"batched"``, ``"product"``, or ``"auto"`` — auto tries the
        product when the group is small enough (``product_max_patterns``)
        and the reachable product stays under ``product_budget`` states
        after parallel minimisation; otherwise batched.
    product_budget:
        Max product states "auto" will accept (construction aborts at the
        budget, so a hopeless group costs only a prefix of the product).
    collect:
        ``("match_positions",)`` (default) recovers per-pattern match
        positions; ``()`` skips it. On the batched route with a native
        kernel and lane collapse on, the stepping pass records the
        matches after each chunk's collapse, and the shared truth pass
        replays only the prefixes before the collapses plus the chunks
        whose speculation missed. Otherwise the truth pass replays the
        whole stream, one pass for the whole group.
    backend:
        ``"vectorized"`` or ``"native"``. Batched-route native execution
        compiles the union machine with the pattern count baked in
        (:mod:`repro.core.native`); the product route rides the ordinary
        single-DFA native path. Falls back to vectorized silently.

    Returns
    -------
    MultiPatternResult
        Per-pattern outcomes plus group-level stats and route metadata.
    """
    if trace is not None:
        with trace.activate():
            return run_multipattern(
                machines, inputs, k=k, num_chunks=num_chunks, merge=merge,
                check=check, lookback=lookback, kernel=kernel,
                collapse=collapse, backend=backend, route=route,
                product_budget=product_budget,
                product_max_patterns=product_max_patterns, collect=collect,
                plan=plan, table_budget_bytes=table_budget_bytes, stack=stack,
            )
    check_in_set("merge", merge, ("sequential", "parallel"))
    check_in_set("check", check, ("auto", "nested", "hash"))
    check_in_set("backend", backend, ("vectorized", "native"))
    check_in_set("route", route, ("auto", "batched", "product"))
    check_in_set("kernel", kernel, ("auto",) + tuple(sorted(KERNELS)))
    for item in collect:
        check_in_set("collect item", item, ("match_positions",))

    inputs = np.ascontiguousarray(np.asarray(inputs))
    if inputs.ndim != 1:
        raise ValueError(f"inputs must be 1-D, got shape {inputs.shape}")
    if stack is None:
        stack = stack_machines(list(machines))
    check_symbols(inputs, stack.joint.num_symbols)
    P = stack.num_patterns

    if plan is None:
        if num_chunks is None:
            num_chunks = cpu_chunks(inputs.size, backend)
        plan = plan_chunks(inputs.size, max(1, min(num_chunks, max(1, inputs.size))))
    elif plan.num_items != inputs.size:
        raise ValueError(
            f"plan covers {plan.num_items} items but inputs has {inputs.size}"
        )
    if plan.max_len - plan.min_len > 1:
        raise ValueError("multi-pattern execution requires a near-equal plan")

    with trace_span(
        "mp.run", patterns=P, items=int(inputs.size), route=route,
        merge=merge,
    ) as sp:
        cls = stack.joint.remap(inputs)

        if route == "auto":
            route = _select_route(
                stack, product_budget=product_budget,
                product_max_patterns=product_max_patterns,
            )
        if route == "product":
            prod = _build_product(stack, budget=None)
            result = _run_product_route(
                stack, prod, cls, plan, k=k, merge=merge, check=check,
                lookback=lookback, kernel=kernel, collapse=collapse,
                backend=backend, collect=collect,
                table_budget_bytes=table_budget_bytes,
            )
        else:
            result = _run_batched_route(
                stack, cls, plan, k=k, merge=merge, check=check,
                lookback=lookback, kernel=kernel, collapse=collapse,
                backend=backend, collect=collect,
                table_budget_bytes=table_budget_bytes,
            )
        sp.set(route=result.route)
    obs = current_trace()
    if obs is not None:
        obs.count("mp.runs", 1)
        obs.count("mp.patterns", P)
        obs.count(f"mp.route.{result.route}", 1)
        if result.product is not None:
            obs.count("mp.product_states", result.product.dfa.num_states)
    return result


# Cache of route probes: the reachable-product attempt is pure function of
# the group's tables, so repeat calls (serving rounds, benchmarks) skip it.
_route_cache: dict[tuple, str] = {}


def _group_key(stack: MachineStack) -> tuple:
    return tuple(
        (d.num_states, d.table.tobytes(), d.accepting.tobytes())
        for d in stack.class_dfas
    )


def _select_route(
    stack: MachineStack, *, product_budget: int, product_max_patterns: int
) -> str:
    """Static route selection: product iff it is small enough to win.

    The batched pass is ``sum_p min(k, S_p)`` lanes wide; the product pass
    is ``min(k, S_prod)`` lanes wide. With the construction budget-gated,
    the rule reduces to: try the product for small groups, accept it when
    the minimised machine stays under ``product_budget`` states.
    """
    if stack.num_patterns > product_max_patterns:
        return "batched"
    key = (_group_key(stack), int(product_budget))
    hit = _route_cache.get(key)
    if hit is not None:
        return hit
    with trace_span(
        "mp.route_probe", patterns=stack.num_patterns, budget=product_budget
    ) as sp:
        try:
            prod = _build_product(stack, budget=int(product_budget))
        except ProductStateBudget:
            route = "batched"
            sp.set(route=route, reason="budget")
        else:
            route = "product"
            sp.set(route=route, product_states=prod.dfa.num_states)
    _route_cache[key] = route
    return route


# Minimised products are cached alongside route decisions — serving rounds
# run repeatedly on identical groups.
_product_cache: dict[tuple, ProductDFA] = {}


def _build_product(stack: MachineStack, *, budget: int | None) -> ProductDFA:
    """Reachable product of the group's class machines, minimised.

    The raw reachable construction is budget-gated *before* minimisation
    (an oversized intermediate is the expensive part); minimisation then
    runs the parallel refinement and must land under the budget too.
    """
    key = (_group_key(stack), budget)
    hit = _product_cache.get(key)
    if hit is not None:
        return hit
    raw_budget = None if budget is None else max(4 * budget, budget + 64)
    prod = product_dfa(
        list(stack.class_dfas), name="product:" + (stack.union_dfa.name or ""),
        max_states=raw_budget,
    )
    mini = minimize_product(prod, parallel=True)
    if budget is not None and mini.dfa.num_states > budget:
        raise ProductStateBudget(budget, mini.dfa.num_states)
    _product_cache[key] = mini
    return mini


def _run_product_route(
    stack: MachineStack,
    prod: ProductDFA,
    cls: np.ndarray,
    plan: ChunkPlan,
    *,
    k,
    merge: str,
    check: str,
    lookback: int,
    kernel: str,
    collapse,
    backend: str,
    collect: tuple[str, ...],
    table_budget_bytes: int,
) -> MultiPatternResult:
    """One single-DFA speculative pass over the minimised product."""
    from repro.core.engine import run_speculative

    res = run_speculative(
        prod.dfa,
        cls,
        k=k,
        merge=merge,
        check=check,
        lookback=lookback,
        kernel=kernel,
        collapse=collapse,
        backend=backend,
        plan=plan,
        measure_success=True,
        collect=(),
        price=False,
    )
    matches = None
    if "match_positions" in collect:
        with trace_span(
            "mp.recover", route="product", patterns=stack.num_patterns,
            replay="native" if res.native is not None else "vectorized",
            replayed_chunks=plan.num_chunks, prefix_items=0,
        ):
            accept_matrix = np.stack(prod.accept_masks, axis=1)
            matches = _group_matches(
                res.native, prod.dfa.table, accept_matrix, cls, plan,
                res.true_starts[:, None], shared_trajectory=True,
            )
    final = int(res.final_state)
    return MultiPatternResult(
        route="product",
        patterns=_pattern_results(
            stack, [mask[final] for mask in prod.accept_masks], matches
        ),
        stats=res.stats,
        plan=plan,
        product=prod,
        product_true_starts=res.true_starts,
        trace=current_trace(),
    )


# --------------------------------------------------------------------------- #
# the lane stages: every in-process pass, P >= 1 patterns
# --------------------------------------------------------------------------- #


def _widths(dfas, k) -> tuple:
    """Per-pattern speculation widths (``k`` clamped to each state count)."""
    if k is not None and int(k) < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return tuple(d.num_states if k is None else min(int(k), d.num_states) for d in dfas)


class Lanes(NamedTuple):
    """The lane layout of one pass: ``P >= 1`` machines in one union table.

    Pattern ``p`` steps as ``dfas[p]`` on union states ``offsets[p] ..
    offsets[p+1] - 1`` and owns the next ``widths[p]`` lane columns;
    ``prior(p, sample)`` ranks its speculation. A single DFA is a group
    of one over its raw symbols, with no ``compaction`` to plan from.
    """

    dfas: tuple
    offsets: np.ndarray
    widths: tuple
    union: DFA
    prior: Callable
    compaction: AlphabetCompaction | None = None

    @property
    def k_total(self) -> int:
        """Lane tensor width ``sum_p widths[p]``."""
        return int(sum(self.widths))

    def new_stats(self, num_items: int, num_chunks: int) -> ExecStats:
        """A fresh event count for a pass over these lanes."""
        return ExecStats(
            num_items=int(num_items), num_chunks=int(num_chunks),
            k=self.k_total, num_states=self.union.num_states,
            num_inputs=self.union.num_inputs,
        )


def group_lanes(stack: MachineStack, k) -> Lanes:
    """A pattern group's lanes: per-pattern width ``k`` over the union."""
    return Lanes(
        stack.class_dfas, stack.offsets, _widths(stack.class_dfas, k),
        stack.union_dfa, stack.pattern_prior, stack.identity_compaction(),
    )


def single_lanes(dfa: DFA, k, prior: np.ndarray | None = None) -> Lanes:
    """One DFA as a group of one; ``prior`` (None: sampled) ranks its lanes."""

    def prior_of(p: int, sample: np.ndarray) -> np.ndarray:
        return state_prior(dfa, sample=sample) if prior is None else prior

    offsets = np.array([0, dfa.num_states], dtype=np.int64)
    return Lanes((dfa,), offsets, _widths((dfa,), k), dfa, prior_of)


class RequestBatch(NamedTuple):
    """Independent requests coalesced into one chunk plan by :func:`coalesce`.

    Request ``r`` enters pattern ``p`` at ``starts[r, p]``; ``plan``
    (None when every segment is empty) partitions ``symbols``. Request
    ``head_requests[i]`` begins at chunk ``heads[i]``; request ``r`` ends
    at chunk ``tails[r]``, or -1 when empty (it keeps its start state).
    """

    starts: np.ndarray
    symbols: np.ndarray
    plan: ChunkPlan | None
    heads: np.ndarray
    head_requests: np.ndarray
    tails: np.ndarray

    def seeds(self, p: int) -> dict:
        """``{head chunk: known incoming state}`` of pattern ``p``."""
        states = self.starts[self.head_requests, p]
        return dict(zip(self.heads.tolist(), states.tolist()))


def coalesce(
    segments, starts, dfas, *, chunk_items: int, num_symbols: int | None = None
) -> RequestBatch:
    """Validate a request batch and concatenate it into one chunk plan.

    The one validator of every batch entry point: ``starts`` is None,
    ``(R,)`` for one machine or ``(R, P)``, and a wrong shape or state
    raises one ``ValueError`` before anything runs. ``num_symbols``
    range-checks the segments (None: the caller does). A request
    contributes ``ceil(len / chunk_items)`` near-equal chunks.
    """
    R, P = len(segments), len(dfas)
    if starts is None:
        starts = np.tile([d.start for d in dfas], (R, 1))
    starts = np.asarray(starts, dtype=np.int64)
    want = (R,) if starts.ndim == 1 and P == 1 else (R, P)
    if starts.shape != want:
        raise ValueError(f"starts must have shape {want}, got {starts.shape}")
    starts = starts.reshape(R, P)
    bound = np.array([d.num_states for d in dfas])
    bad = np.flatnonzero(((starts < 0) | (starts >= bound)).any(axis=0))
    if bad.size:
        p = int(bad[0])
        raise ValueError(f"starts out of range: machine {p} has states [0, {bound[p]})")
    if chunk_items < 1:
        raise ValueError(f"chunk_items must be >= 1, got {chunk_items}")
    segs = [np.ascontiguousarray(np.asarray(seg)) for seg in segments]
    for i, seg in enumerate(segs):
        if seg.ndim != 1:
            raise ValueError(f"segment {i} must be 1-D, got shape {seg.shape}")
        if num_symbols is not None:
            check_symbols(seg, num_symbols)
    live = [r for r, seg in enumerate(segs) if seg.size]
    parts = [plan_chunks(segs[r].size, -(-segs[r].size // chunk_items)) for r in live]
    counts = np.array([part.num_chunks for part in parts], dtype=np.int64)
    tails = np.full(R, -1, dtype=np.int64)
    tails[live] = np.cumsum(counts) - 1
    return RequestBatch(
        starts=starts,
        symbols=np.concatenate([segs[r] for r in live]) if live else np.zeros(0),
        plan=(
            plan_from_lengths(np.concatenate([part.lengths for part in parts]))
            if live else None
        ),
        heads=np.cumsum(counts) - counts,
        head_requests=np.asarray(live, dtype=np.int64),
        tails=tails,
    )


def speculate_lanes(
    lanes: Lanes, symbols: np.ndarray, plan: ChunkPlan, *, lookback: int,
    stats: ExecStats | None = None, pins=None, coverage: bool = False,
):
    """Per-pattern look-back speculation, stacked into the union lanes.

    Returns ``(cols, spec, covered)``: each pattern's rows in its own
    states, the ``(chunks, k_total)`` union-state tensor, and with
    ``coverage`` each pattern's coverage mask. ``pins=(chunks, states)``
    with ``(len(chunks), P)`` states pins known incoming states
    (:func:`repro.core.lookback.pin_states`).
    """
    n = plan.num_chunks
    sample = symbols[: 1 << 14]
    cols, covered = [], []
    for p, dfa in enumerate(lanes.dfas):
        if lanes.widths[p] >= dfa.num_states:
            spec_p, cov = enumerative_spec(dfa, n), np.ones(n, dtype=bool)
        else:
            out = speculate(
                dfa, symbols, plan, lanes.widths[p], lookback=lookback,
                prior=lanes.prior(p, sample) if symbols.size else None,
                stats=stats, return_coverage=coverage,
            )
            spec_p, cov = out if coverage else (out, None)
        if pins is not None:
            pin_states(spec_p, pins[0], np.asarray(pins[1])[:, p])
        cols.append(spec_p)
        covered.append(cov if coverage else None)
    shifted = [s + int(lanes.offsets[p]) for p, s in enumerate(cols)]
    return cols, np.concatenate(shifted, axis=1), covered


def _shifted_run(run, offset: int, symbols: np.ndarray, state: int) -> int:
    """Run a pattern-local ``state`` on a union-table stepper."""
    return run(symbols, state + offset) - offset


def resolve_pattern(
    lanes: Lanes, p: int, symbols: np.ndarray, plan: ChunkPlan,
    spec_p: np.ndarray, end: np.ndarray, *, check: str, stats: ExecStats,
    replay: ChunkReplay | None = None, merge: str = "parallel",
    seeds: dict | None = None, covered: np.ndarray | None = None,
    truth: bool = True,
):
    """Resolve pattern ``p`` of one pass: ``(final, true_starts)``.

    Shifts the pattern's columns of ``end`` back into its own states;
    misses replay on the union hook ``replay`` shifted into the
    pattern's block (closed under transition). With ``seeds`` (a request
    batch's heads) the chunks resolve on the sequential walk restarting
    at each seeded chunk, and ``final`` is every chunk's out-state
    (:func:`repro.core.merge_seq.merge_sequential`); otherwise they merge
    with ``merge``. ``truth`` recovers skipped chunk entry states.
    """
    lo, off, dfa = sum(lanes.widths[:p]), int(lanes.offsets[p]), lanes.dfas[p]
    end_p = end[:, lo : lo + lanes.widths[p]] - off
    if replay is not None and off:
        replay = replace(replay, run=partial(_shifted_run, replay.run, off))
    converged = None
    if covered is not None:
        converged = converged_chunks(end_p, covered)
        stats.chunks_converged += int(converged.sum())
    results = ChunkResults(
        spec=spec_p, end=end_p, valid=np.ones_like(spec_p, dtype=bool),
        converged=converged,
    )
    if seeds is not None or merge == "sequential":
        final, true_starts = merge_sequential(
            dfa, symbols, plan, results, check=check, stats=stats,
            replay=replay, seeds=seeds,
        )
    else:
        final, _ = merge_parallel(
            dfa, symbols, plan, results, check=check, stats=stats, replay=replay
        )
        true_starts = None
    if truth and true_starts is None:
        _, true_starts = true_boundary_walk(
            dfa, symbols, plan, results, replay=replay
        )
    return final, true_starts


def run_lane_batch(
    lanes: Lanes, batch: RequestBatch, symbols: np.ndarray, *, lookback: int,
    check: str, stats: ExecStats, kernel_plan: KernelPlan | None = None,
    native=None,
) -> np.ndarray:
    """The one in-process batch pass: ``(R, P)`` final states of ``batch``.

    ``symbols`` is ``batch.symbols`` in the lanes' alphabet. Request
    heads are pinned; all lanes step at once (compiled loop with a
    ``native`` kernel of width ``k_total``, kernel layer on a near-equal
    plan, live-chunk ragged pass otherwise); each pattern resolves on a
    sequential walk that restarts at every request head, so resolution
    never crosses a request, and each request's final state is its tail
    chunk's out-state. Misses replay natively, on the caller's
    ``kernel_plan``, or on the table.
    """
    plan, k_total = batch.plan, lanes.k_total
    cols, spec, _ = speculate_lanes(
        lanes, symbols, plan, lookback=lookback, stats=stats,
        pins=(batch.heads, batch.starts[batch.head_requests]),
    )
    replay = None
    if native is not None and native.spec.k == k_total:
        end = native.process_chunks(symbols, plan, spec, stats=stats)
        replay = ChunkReplay(native.run_segment, symbols, plan, path="native")
    elif plan.max_len - plan.min_len > 1:
        # Mixed request sizes skew the plan; the ragged pass advances the
        # lanes of every chunk still running in one fused gather per step.
        end = process_chunks_ragged(lanes.union, symbols, plan, spec, stats=stats)
    else:
        kplan = kernel_plan or plan_kernel(
            lanes.union, chunk_len=plan.max_len, num_chunks=plan.num_chunks,
            k=k_total, kernel="auto", compaction=lanes.compaction,
        )
        end = process_chunks_kernel(
            lanes.union, symbols, plan, spec, kplan, stats=stats
        )
    if replay is None and kernel_plan is not None:
        replay = ChunkReplay(partial(run_segment_kernel, kernel_plan), symbols, plan)
    finals = batch.starts.astype(np.int32)
    live = batch.tails >= 0
    for p in range(len(lanes.dfas)):
        exits, _ = resolve_pattern(
            lanes, p, symbols, plan, cols[p], end, check=check, stats=stats,
            replay=replay, seeds=batch.seeds(p), truth=False,
        )
        finals[live, p] = exits[batch.tails[live]]
    return finals


# --------------------------------------------------------------------------- #
# the batched route and the serving adapter
# --------------------------------------------------------------------------- #


def _run_batched_route(
    stack: MachineStack, cls: np.ndarray, plan: ChunkPlan, *, k, merge: str,
    check: str, lookback: int, kernel: str, collapse, backend: str,
    collect: tuple[str, ...], table_budget_bytes: int,
) -> MultiPatternResult:
    """Batched multi-DFA stepping over the block-diagonal union table."""
    P, n, union = stack.num_patterns, plan.num_chunks, stack.union_dfa
    lanes = group_lanes(stack, k)
    K_total = lanes.k_total
    stats = lanes.new_stats(cls.size, n)

    collapse_requested = not (
        collapse is None
        or collapse == "off"
        or (isinstance(collapse, CollapseConfig) and not collapse.enabled)
    )
    collapse_cfg = None
    if collapse_requested:
        with trace_span("mp.collapse_resolve", k=K_total) as sp:
            collapse_cfg, cadences = resolve_group_collapse(
                collapse, lanes.dfas, cls, widths=lanes.widths
            )
            sp.set(
                resolved=collapse_cfg.label if collapse_cfg else "off",
                cadences=list(cadences),
            )

    with trace_span("mp.speculate", patterns=P, chunks=n, k=K_total):
        cols, spec_all, covered = speculate_lanes(
            lanes, cls, plan, lookback=lookback, stats=stats,
            coverage=collapse_requested,
        )

    kplan = stack.kernel_plan(
        chunk_len=plan.max_len, num_chunks=n, k=K_total,
        kernel=kernel, table_budget_bytes=table_budget_bytes,
    )
    nplan = None
    if backend == "native":
        from repro.core.native import load_native_plan

        nplan = load_native_plan(
            union, k=K_total, kernel=kplan.kernel, kplan=kplan,
            collapse=collapse_cfg, chunk_len=plan.max_len, num_chunks=n,
            patterns=P, group_widths=lanes.widths,
        )

    # A recording kernel takes the matches after each collapse in this pass.
    record = (
        nplan is not None and nplan.spec.records and "match_positions" in collect
    )
    records = None
    with trace_span(
        "mp.local_exec", chunks=n, k=K_total, kernel=kplan.kernel,
        backend="native" if nplan is not None else "vectorized",
    ):
        if record:
            end_all, records = nplan.process_chunks_recording(
                cls, plan, spec_all, union.accepting, stats=stats
            )
        else:
            transformed = transform_layout(cls, plan) if nplan is None else None
            end_all = process_chunks_kernel(
                union, cls, plan, spec_all, kplan,
                transformed=transformed, stats=stats, collapse=collapse_cfg,
                native=nplan,
            )

    finals = np.empty(P, dtype=np.int64)
    boundary = np.empty((n, P), dtype=np.int32)
    replay = None
    if nplan is not None:
        replay = ChunkReplay(nplan.run_segment, cls, plan, path="native")
    with trace_span("mp.resolve", patterns=P, merge=merge):
        for p in range(P):
            finals[p], boundary[:, p] = resolve_pattern(
                lanes, p, cls, plan, cols[p], end_all, check=check,
                stats=stats, replay=replay, merge=merge, covered=covered[p],
            )

    matches = None
    if "match_positions" in collect:
        with trace_span(
            "mp.recover", route="batched", patterns=P,
            replay="native" if nplan is not None else "vectorized",
        ) as sp:
            lengths, recorded = None, None
            replayed, prefix_items = n, 0
            if records is not None:
                lengths, recorded, clean = _clean_replay(
                    records, plan, cols, boundary
                )
                replayed = n - int(clean.sum())
                prefix_items = int(lengths[clean].sum())
            sp.set(replayed_chunks=replayed, prefix_items=prefix_items)
            matches = _group_matches(
                nplan, union.table, _batched_accept_matrix(stack), cls, plan,
                boundary + stack.offsets[:-1].astype(np.int32),
                lengths=lengths, recorded=recorded,
            )

    accepted = union.accepting[finals + stack.offsets[:-1]]
    return MultiPatternResult(
        route="batched", stats=stats, plan=plan, stack=stack,
        patterns=_pattern_results(stack, accepted, matches, finals, boundary),
        trace=current_trace(),
    )


def run_multipattern_batch(
    stack: MachineStack,
    segments: list[np.ndarray],
    *,
    k: int | None = 4,
    lookback: int = 8,
    check: str = "auto",
    chunk_items: int = 1 << 13,
    starts: np.ndarray | None = None,
    stats: ExecStats | None = None,
):
    """Coalesce many requests against one pattern group into one pass.

    The serving layer's multi-pattern primitive: every request's raw
    segment is checked against **all** patterns of the group. A thin
    adapter over the one batch pass, :func:`run_lane_batch`: the
    coalesced segments are remapped through the joint alphabet once, all
    patterns' lanes advance in one fused pass, and each pattern resolves
    on its own sequential walk restarting at the request heads.

    ``starts`` (optional, ``(num_requests, P)`` pattern-local states)
    carries each request's per-pattern state into the round — the serving
    layer's continuous batching threads a carved request's state through
    successive rounds this way. Defaults to every pattern's start state.

    Returns ``(final_states, accepted)`` where both are
    ``(num_requests, P)`` — per-request, per-pattern outcomes in the
    patterns' own state spaces.
    """
    lanes = group_lanes(stack, k)
    batch = coalesce(
        segments, starts, lanes.dfas, chunk_items=chunk_items,
        num_symbols=stack.joint.num_symbols,
    )
    finals = batch.starts.astype(np.int32)
    if batch.plan is not None:
        n = batch.plan.num_chunks
        cls = stack.joint.remap(batch.symbols)
        if stats is None:
            stats = lanes.new_stats(cls.size, n)
        with trace_span(
            "mp.batch", requests=len(segments), patterns=len(lanes.dfas),
            chunks=n, k=lanes.k_total,
        ):
            finals = run_lane_batch(
                lanes, batch, cls, lookback=lookback, check=check, stats=stats,
            )
    accepted = lanes.union.accepting[finals + lanes.offsets[:-1]].astype(bool)
    return finals, accepted

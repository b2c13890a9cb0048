"""Multi-symbol stepping kernels: alphabet compaction + table powers.

The lock-step kernel (:func:`repro.core.local.process_chunks`) advances one
symbol per NumPy gather, so a length-``L`` chunk costs ``L`` Python-level
dispatches — the reproduction's analog of the paper's memory-bound inner
loop. Transition *functions* compose associatively (the data-parallel
formulation of Mytkowicz et al., the paper's [18]), which permits a
different trade: precompose the transition tables of every ``m``-symbol
string **once**, then step the input ``m`` symbols per gather. The stride
table over the raw alphabet would be ``num_inputs**m`` rows; alphabet
equivalence-class compaction (:func:`repro.fsm.alphabet.compact_alphabet`)
first collapses identical transition rows into ``C`` classes (HTML/regex
machines collapse 128-256 symbols to ~5-20 classes), making ``C**m`` rows
affordable.

Three cooperating pieces:

* **Stride tables** — :func:`build_stride_tables` produces
  ``T_m[c1*C**(m-1) + ... + cm, q]`` = the state reached from ``q`` after
  consuming classes ``c1 .. cm`` in order.
* **Packed inputs** — :func:`pack_stride` radix-packs the class-mapped
  input into one stride index per ``m`` symbols, step-major (the stride
  analog of :func:`repro.workloads.chunking.transform_layout`), with
  leftover rows and the ragged tail kept as single-class steps.
* **Kernel registry + cost model** — :data:`KERNELS` names the available
  kernels (``lockstep``, ``stride2``, ``stride4``);
  :func:`select_kernel` picks one from class count, state count, chunk
  length, chunk count, speculation width, and a table-memory budget.

Every kernel computes exactly the same ``spec -> end`` maps as the
lock-step kernel; property tests cross-check all of them against
:func:`repro.fsm.run.run_reference` on randomized machines, strides, and
ragged tails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.convergence import CollapseConfig, LaneCollapser
from repro.fsm.alphabet import AlphabetCompaction, compact_alphabet
from repro.fsm.dfa import DFA
from repro.obs.trace import add_count, current_trace, trace_span
from repro.workloads.chunking import ChunkPlan, TransformedInput

__all__ = [
    "KernelSpec",
    "KERNELS",
    "StrideTables",
    "KernelPlan",
    "PackedInput",
    "build_stride_tables",
    "stride_table_bytes",
    "pack_stride",
    "select_kernel",
    "plan_kernel",
    "process_chunks_kernel",
    "advance_matrix",
    "run_segment_kernel",
    "DEFAULT_TABLE_BUDGET_BYTES",
]

# Stride tables above this footprint are never built automatically; the
# budget caps C**m * num_states * 4 bytes (plus the build pass that writes
# it), keeping "auto" selection safe for byte alphabets that fail to
# compact. Callers with known reuse can raise it per call.
DEFAULT_TABLE_BUDGET_BYTES = 16 << 20

# Cost-model constants, calibrated to the NumPy substrate on commodity
# x86: a Python-level dispatch of one fancy-index gather costs ~ALPHA
# seconds regardless of size, plus ~BETA per gathered element; building a
# stride table writes C**m * num_states entries at ~GAMMA each. Exact
# values matter little — selection only needs the dispatch-vs-element
# crossover to land in the right decade.
_ALPHA_DISPATCH_S = 4e-6
_BETA_ELEMENT_S = 1.2e-9
_GAMMA_BUILD_S = 4e-9


@dataclass(frozen=True)
class KernelSpec:
    """One registered stepping kernel.

    ``stride`` is the number of input symbols consumed per table gather
    (1 for ``lockstep``).
    """

    name: str
    stride: int
    description: str


KERNELS: dict[str, KernelSpec] = {
    "lockstep": KernelSpec(
        "lockstep", 1,
        "one (chunks x k) gather per symbol — the paper's Algorithm 3",
    ),
    "stride2": KernelSpec(
        "stride2", 2,
        "one gather per 2 symbols via the C^2 composed table",
    ),
    "stride4": KernelSpec(
        "stride4", 4,
        "one gather per 4 symbols via the C^4 composed table",
    ),
}


@dataclass(frozen=True)
class StrideTables:
    """The composed ``m``-symbol transition table over a compacted alphabet.

    ``table_m[idx, q]`` with ``idx = c1*C**(m-1) + ... + cm`` is the state
    reached from ``q`` after consuming classes ``c1 .. cm`` in input order.
    ``build_s`` is the wall-clock cost of composing the table — recorded so
    benchmarks and the pool can report amortization honestly.
    """

    m: int
    table_m: np.ndarray  # (C**m, num_states) int32
    build_s: float

    @property
    def nbytes(self) -> int:
        """Footprint of the composed table."""
        return int(self.table_m.nbytes)


def stride_table_bytes(num_classes: int, num_states: int, m: int) -> int:
    """Footprint of the ``m``-power table: ``C**m * num_states * 4`` bytes."""
    return (num_classes ** m) * num_states * 4


def build_stride_tables(class_table: np.ndarray, m: int) -> StrideTables:
    """Compose the ``m``-symbol stride table from a ``(C, N)`` class table.

    Built by repeated composition: ``T_{j+1}[i*C + c] = Tc[c][T_j[i]]`` —
    ``m - 1`` vectorized gathers over the growing table, so build cost is
    ``O(C**m * N)`` writes, not ``O(m)`` passes over the input.
    """
    if m < 1:
        raise ValueError(f"stride m must be >= 1, got {m}")
    class_table = np.ascontiguousarray(np.asarray(class_table, dtype=np.int32))
    C, _ = class_table.shape
    t0 = time.perf_counter()
    T = class_table
    for _ in range(m - 1):
        # T_next.reshape(prev, C, N)[i, c] = Tc[c, T[i]]
        T = class_table[
            np.arange(C, dtype=np.intp)[None, :, None], T[:, None, :]
        ].reshape(T.shape[0] * C, -1)
    T = np.ascontiguousarray(T)
    return StrideTables(m=m, table_m=T, build_s=time.perf_counter() - t0)


@dataclass(frozen=True)
class KernelPlan:
    """A resolved kernel choice with all tables needed to execute it.

    Produced by :func:`plan_kernel`. ``compaction`` is always present (even
    the lockstep kernel benefits from gathering in the smaller class
    table); ``tables`` is only built for stride kernels. ``build_s`` totals
    compaction plus table composition.
    """

    kernel: str
    compaction: AlphabetCompaction
    tables: StrideTables | None
    build_s: float
    predicted_cost_s: dict[str, float]

    @property
    def m(self) -> int:
        """Symbols consumed per gather."""
        return KERNELS[self.kernel].stride

    @property
    def table_bytes(self) -> int:
        """Footprint of the kernel's tables (class table + stride table)."""
        total = int(self.compaction.table.nbytes)
        if self.tables is not None:
            total += self.tables.nbytes
        return total


def _predict_costs(
    num_classes: int,
    num_states: int,
    chunk_len: int,
    num_chunks: int,
    k: int,
    *,
    table_budget_bytes: int,
    amortize_builds: int = 1,
) -> dict[str, float]:
    """Modeled wall-clock cost (seconds) of each kernel on one run.

    ``amortize_builds`` divides the one-time stride-table build across the
    number of runs expected to reuse it (the pool passes its expected call
    count; single-shot callers leave it at 1).
    """
    L = max(0, chunk_len)
    width = num_chunks * max(1, k)
    costs: dict[str, float] = {}
    costs["lockstep"] = L * (_ALPHA_DISPATCH_S + width * _BETA_ELEMENT_S)
    for name, spec in KERNELS.items():
        if spec.stride <= 1:
            continue
        m = spec.stride
        tbytes = stride_table_bytes(num_classes, num_states, m)
        if tbytes > table_budget_bytes:
            continue
        steps = L // m + (L % m)  # packed steps + leftover single steps
        build = (num_classes ** m) * num_states * _GAMMA_BUILD_S
        costs[name] = (
            build / max(1, amortize_builds)
            + steps * (_ALPHA_DISPATCH_S + width * _BETA_ELEMENT_S)
        )
    return costs


def select_kernel(
    num_classes: int,
    num_states: int,
    chunk_len: int,
    num_chunks: int,
    k: int,
    *,
    table_budget_bytes: int = DEFAULT_TABLE_BUDGET_BYTES,
    amortize_builds: int = 1,
) -> str:
    """Pick the cheapest kernel under the cost model.

    Stride tables above ``table_budget_bytes`` are ineligible; the choice
    reduces to whether ``ceil(L/m)`` dispatches plus an amortized
    ``C**m * N`` build beat ``L`` dispatches.
    """
    costs = _predict_costs(
        num_classes, num_states, chunk_len, num_chunks, k,
        table_budget_bytes=table_budget_bytes, amortize_builds=amortize_builds,
    )
    return min(costs, key=costs.get)  # type: ignore[arg-type]


def plan_kernel(
    dfa: DFA,
    *,
    chunk_len: int,
    num_chunks: int,
    k: int,
    kernel: str = "auto",
    table_budget_bytes: int = DEFAULT_TABLE_BUDGET_BYTES,
    amortize_builds: int = 1,
    compaction: AlphabetCompaction | None = None,
) -> KernelPlan:
    """Resolve ``kernel`` (or ``"auto"``) and build its tables.

    Emits a ``kernel.plan`` span with the choice and records the table
    build time under the ``kernel.table_build_s`` counter (milliseconds
    live in the span; the counter carries seconds x 1e6 as integer
    microseconds for exporters that only sum integers).
    """
    if kernel != "auto" and kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; available: {sorted(KERNELS)} or 'auto'"
        )
    t0 = time.perf_counter()
    with trace_span(
        "kernel.plan", requested=kernel, chunks=num_chunks, k=k,
        chunk_len=chunk_len,
    ) as sp:
        if compaction is None:
            compaction = compact_alphabet(dfa.table)
        C, N = compaction.num_classes, compaction.num_states
        costs = _predict_costs(
            C, N, chunk_len, num_chunks, k,
            table_budget_bytes=table_budget_bytes,
            amortize_builds=amortize_builds,
        )
        name = kernel if kernel != "auto" else min(costs, key=costs.get)
        spec = KERNELS[name]
        if spec.stride > 1 and stride_table_bytes(C, N, spec.stride) > table_budget_bytes:
            raise ValueError(
                f"kernel {name!r} needs {stride_table_bytes(C, N, spec.stride)} "
                f"table bytes > budget {table_budget_bytes}; raise "
                f"table_budget_bytes or choose another kernel"
            )
        tables = (
            build_stride_tables(compaction.table, spec.stride)
            if spec.stride > 1
            else None
        )
        build_s = time.perf_counter() - t0
        sp.set(
            selected=name, num_classes=C,
            compression=round(compaction.compression, 2),
            build_ms=round(build_s * 1e3, 3),
        )
        obs = current_trace()
        if obs is not None:
            obs.count(f"kernel.selected.{name}", 1)
            obs.count("kernel.table_build_us", int(build_s * 1e6))
            obs.count("kernel.table_bytes", int(
                compaction.table.nbytes + (tables.nbytes if tables else 0)
            ))
    return KernelPlan(
        kernel=name, compaction=compaction, tables=tables,
        build_s=build_s, predicted_cost_s=costs,
    )


@dataclass(frozen=True)
class PackedInput:
    """Step-major stride packing of the class-mapped input.

    ``packed[t, c]`` is the radix-packed stride index consumed by chunk
    ``c`` at packed step ``t`` (covering symbols ``t*m .. t*m + m - 1`` of
    the lock-step prefix). ``rem`` holds the ``min_len % m`` leftover
    prefix rows as single-class steps; ``tail`` the one ragged extra class
    of each longer chunk. Together they cover exactly the same symbols, in
    the same order, as :class:`repro.workloads.chunking.TransformedInput`.
    ``tail_rows`` are the longer chunks' ids, in the order of ``tail``.
    """

    packed: np.ndarray  # (min_len // m, num_chunks) int64
    rem: np.ndarray  # (min_len % m, num_chunks) int32
    tail: np.ndarray  # (num_long,) int32
    tail_rows: np.ndarray  # (num_long,) intp

    @property
    def nbytes(self) -> int:
        """Footprint of the packed copy."""
        return int(self.packed.nbytes + self.rem.nbytes + self.tail.nbytes)


def pack_stride(
    class_inputs: np.ndarray,
    plan: ChunkPlan,
    m: int,
    num_classes: int,
    *,
    transformed: TransformedInput | None = None,
) -> PackedInput:
    """Radix-pack the class-mapped input for stride-``m`` stepping.

    ``class_inputs`` is the full input already mapped through
    ``compaction.class_of``. When the step-major ``transformed`` layout of
    the *class* input is available its rows are reused directly; otherwise
    the step-major view is gathered here (same cost as
    :func:`repro.workloads.chunking.transform_layout`).
    """
    if m < 1:
        raise ValueError(f"stride m must be >= 1, got {m}")
    q = plan.min_len
    tail_rows = np.flatnonzero(plan.lengths > q)
    if transformed is not None:
        main = transformed.main
        tail = np.asarray(transformed.tail, dtype=np.int32)
    else:
        idx = plan.starts[None, :] + np.arange(q, dtype=np.int64)[:, None]
        main = class_inputs[idx] if q else np.zeros(
            (0, plan.num_chunks), dtype=np.int32
        )
        tail = class_inputs[plan.starts[tail_rows] + q].astype(np.int32)
    T = q // m
    if T:
        blocks = np.asarray(main[: T * m], dtype=np.int64).reshape(T, m, -1)
        packed = np.zeros((T, plan.num_chunks), dtype=np.int64)
        for i in range(m):  # radix combine: first symbol is the high digit
            packed *= num_classes
            packed += blocks[:, i, :]
    else:
        packed = np.zeros((0, plan.num_chunks), dtype=np.int64)
    rem = np.ascontiguousarray(np.asarray(main[T * m:], dtype=np.int32))
    return PackedInput(packed=packed, rem=rem, tail=tail, tail_rows=tail_rows)


def advance_matrix(
    kplan: KernelPlan,
    packed: PackedInput,
    S: np.ndarray,
    *,
    collapse: "CollapseConfig | None" = None,
    stats=None,
) -> np.ndarray:
    """Advance a ``(num_chunks, w)`` state matrix through a packed input.

    ``w`` is arbitrary: ``k`` speculated states per chunk, or all
    ``num_states`` under spec-N. Consumes the packed stride steps, then
    the leftover single-class rows, then the ragged tail (the
    ``tail_rows`` chunks only) — the exact symbol order of the lock-step
    kernel.

    ``collapse`` threads the convergence layer through the stride loop
    (:mod:`repro.core.convergence`): duplicate lanes are deduplicated on
    cadence (a stride-``m`` gather weighs ``m`` steps, keeping the
    cadence calibrated in symbols) and the full matrix is reconstructed
    before returning. ``stats`` (when given)
    accumulates ``local_gathers`` / ``collapse_scans`` /
    ``lanes_collapsed``.
    """
    Tc = kplan.compaction.table
    Tm = kplan.tables.table_m if kplan.tables is not None else Tc
    S = S.copy()
    collapser = None
    if collapse is not None and collapse.enabled and S.shape[1] > 1:
        collapser = LaneCollapser(S.shape[1], collapse)
    gathered = 0
    m = kplan.m
    consumed = 0
    for t in range(packed.packed.shape[0]):
        row = packed.packed[t]
        if collapser is not None and collapser.rowmap is not None:
            # Spill rows carry straggler lanes of specific chunks; route
            # each storage row to its chunk's stride index.
            row = row[collapser.rowmap]
        S = Tm[row[:, None], S]
        gathered += S.size
        if collapser is not None:
            consumed += m
            if consumed >= collapser.next_scan:
                S = collapser.scan(S, consumed)
    for row in packed.rem:
        if collapser is not None and collapser.rowmap is not None:
            row = row[collapser.rowmap]
        S = Tc[row[:, None], S]
        gathered += S.size
        if collapser is not None:
            consumed += 1
            if consumed >= collapser.next_scan:
                S = collapser.scan(S, consumed)
    # The ragged tail addresses chunks by row position — recover the full
    # (num_chunks, w) layout first.
    if collapser is not None:
        S = collapser.expand(S)
    rows = packed.tail_rows
    if rows.size:
        S[rows] = Tc[packed.tail[:, None], S[rows]]
        gathered += rows.size if S.ndim == 1 else S[rows].size
    if stats is not None:
        stats.local_gathers += gathered
        if collapser is not None:
            stats.collapse_scans += collapser.scans
            stats.lanes_collapsed += collapser.lanes_collapsed
    return S


def process_chunks_kernel(
    dfa: DFA,
    inputs: np.ndarray,
    plan: ChunkPlan,
    spec: np.ndarray,
    kplan: KernelPlan,
    *,
    transformed: TransformedInput | None = None,
    stats=None,
    collapse: CollapseConfig | None = None,
    native=None,
) -> np.ndarray:
    """Kernel-dispatched equivalent of :func:`repro.core.local.process_chunks`.

    Returns the ``(num_chunks, k)`` ending-state matrix. Event counters in
    ``stats`` keep the lock-step semantics (transitions = symbols consumed
    x speculation width) so modeled-GPU pricing and projections are
    kernel-independent; the *physical* gather count is what the kernels
    change, and it is visible through wall clock, ``stats.local_gathers``,
    and the ``kernel.*`` observability counters. ``collapse`` threads the
    convergence layer (:mod:`repro.core.convergence`) through the stride
    loop.

    ``native`` is a loaded :class:`repro.core.native.NativeKernel` for the
    same plan; when given, the whole call is dispatched to the compiled
    loop (collapse behaviour is baked into the artifact, so ``collapse``
    is ignored on that path).
    """
    spec = np.asarray(spec, dtype=np.int32)
    if spec.ndim != 2 or spec.shape[0] != plan.num_chunks:
        raise ValueError(
            f"spec must have shape (num_chunks, k), got {spec.shape} for "
            f"{plan.num_chunks} chunks"
        )
    if native is not None:
        return native.process_chunks(inputs, plan, spec, stats=stats)
    cls = kplan.compaction.remap(inputs)
    cls_transformed = None
    if transformed is not None:
        cls_transformed = TransformedInput(
            main=kplan.compaction.class_of[transformed.main],
            tail=kplan.compaction.class_of[transformed.tail],
        )
    packed = pack_stride(
        cls, plan, kplan.m, kplan.compaction.num_classes,
        transformed=cls_transformed,
    )
    end = advance_matrix(kplan, packed, spec, collapse=collapse, stats=stats)
    add_count("kernel.gathers", packed.packed.shape[0] + packed.rem.shape[0])
    if stats is not None:
        stats.local_steps += plan.max_len
        stats.local_transitions += int(plan.lengths.sum()) * spec.shape[1]
        stats.local_input_reads += int(plan.lengths.sum())
    return end


def run_segment_kernel(kplan: KernelPlan, symbols: np.ndarray, start: int) -> int:
    """Run one segment from one state through the planned kernel — the
    re-execution primitive of the scale-out pool.

    A single-state run is inherently sequential, so the win here is
    iteration count: the symbols are class-mapped and radix-packed
    vectorized, then the Python loop takes ``ceil(L/m)`` scalar lookups in
    the stride table instead of ``L`` in the raw table.
    """
    symbols = np.asarray(symbols)
    if symbols.size == 0:
        return int(start)
    cls = kplan.compaction.remap(symbols)
    state = int(start)
    m = kplan.m
    if kplan.tables is not None and symbols.size >= m:
        C = kplan.compaction.num_classes
        T = symbols.size // m
        blocks = cls[: T * m].astype(np.int64).reshape(T, m)
        idx = np.zeros(T, dtype=np.int64)
        for i in range(m):
            idx *= C
            idx += blocks[:, i]
        table_m = kplan.tables.table_m
        for a in idx.tolist():
            state = table_m[a, state]
        cls = cls[T * m:]
    table_c = kplan.compaction.table
    for a in cls.tolist():
        state = table_c[a, state]
    return int(state)

"""Load compiled native kernels and expose them behind a NumPy interface.

The public entry point is :func:`load_native_plan`: resolve (or accept) a
:class:`~repro.core.kernels.KernelPlan`, specialize C source for
``(k, kernel, collapse)``, compile-or-reuse the artifact (see
:mod:`repro.core.native.build`), and return a :class:`NativeKernel` whose
methods take the same arrays as the NumPy path. Every failure mode —
no compiler, compile error, load error, smoke-check mismatch — returns
``None`` (counted as ``native.fallback.*``) so callers degrade to NumPy
without special-casing.

Artifacts are loaded with stdlib ``ctypes`` over the system C compiler's
output; when that fails, :func:`load_native_plan` returns ``None`` and the
caller stays on NumPy. Every loaded kernel is smoke-checked against a
pure-Python table walk on a short random segment; a kernel that disagrees
(or raises) is dropped rather than trusted.
"""

from __future__ import annotations

import ctypes
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ...fsm.dfa import DFA
from ...obs import add_count, trace_span
from ..convergence import CollapseConfig
from ..kernels import DEFAULT_TABLE_BUDGET_BYTES, KernelPlan, plan_kernel
from ..plan import NATIVE_MIN_ITEMS
from ..predictor import dfa_fingerprint
from ...workloads.chunking import plan_chunks
from . import build as _build
from .cgen import (
    NUM_SLOTS,
    SLOT_FOLD_CHECKS_SKIPPED,
    SLOT_FOLD_REEXEC_CHUNKS,
    SLOT_FOLD_REEXEC_ITEMS,
    SLOT_GATHERS,
    SLOT_LANES_COLLAPSED,
    SLOT_RECORDS,
    SLOT_SCANS,
    NativeSpec,
    generate_source,
)

__all__ = [
    "NativeKernel",
    "load_native_plan",
    "load_serial_kernel",
    "load_artifact",
    "native_available",
    "cache_stats",
    "clear_memory_cache",
]

_MEM_CACHE_MAX = 64
# First buffer of the accept pass, in records; an overflow re-runs the pass
# with a buffer of exactly the reported size.
_ACCEPT_CAP = 1 << 12
_mem_lock = threading.Lock()
# A None entry (request keys only) remembers a failed load.
_mem_cache: "OrderedDict[tuple, NativeKernel | None]" = OrderedDict()
_ABSENT = object()


def _i32(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a), dtype=np.int32)


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a), dtype=np.int64)


# --------------------------------------------------------------------------- #
# artifact loaders
# --------------------------------------------------------------------------- #


class _CtypesLib:
    """stdlib loader: raw pointers passed as integers through ``c_void_p``.

    ``records`` binds ``nk_process_chunks_rec``, which only recording
    artifacts export (multi-pattern: collapsing, or one lane per
    pattern). ``tables`` is the kernel's ``(class_of, Tc, Tm)`` addresses,
    bound once when it loads (``class_of`` alone for the accept pass);
    every other array is converted on each call.
    """

    def __init__(self, path: str, records: bool = False) -> None:
        lib = ctypes.CDLL(path)
        P = ctypes.c_void_p
        i32 = ctypes.c_int32
        i64 = ctypes.c_int64
        lib.nk_abi.restype = i32
        lib.nk_abi.argtypes = []
        lib.nk_meta.restype = i32
        lib.nk_meta.argtypes = [i32]
        lib.nk_run_segment.restype = i32
        lib.nk_run_segment.argtypes = [P, i64, i32, P, P, P]
        lib.nk_process_chunks.restype = None
        lib.nk_process_chunks.argtypes = [P, P, P, i64, P, P, P, P, P, P]
        lib.nk_fold_maps.restype = None
        lib.nk_fold_maps.argtypes = [P, P, i64, P, P, P, P, P, P, P, P, P]
        lib.nk_accept_positions.restype = i64
        lib.nk_accept_positions.argtypes = [
            P, P, P, i64, i64, P, P, P, P, P, P, i64,
        ]
        if records:
            lib.nk_process_chunks_rec.restype = None
            lib.nk_process_chunks_rec.argtypes = [
                P, P, P, i64, P, P, P, P, P, P, P, P, P, P, i64, P, P,
            ]
        self._lib = lib

    def abi(self) -> int:
        return int(self._lib.nk_abi())

    def meta(self, which: int) -> int:
        return int(self._lib.nk_meta(which))

    def run_segment(self, inputs, start, tables) -> int:
        return int(
            self._lib.nk_run_segment(
                _ptr(inputs), inputs.size, int(start), *tables
            )
        )

    def process_chunks(
        self, inputs, starts, lengths, spec, end, tables, counters
    ) -> None:
        self._lib.nk_process_chunks(
            _ptr(inputs), _ptr(starts), _ptr(lengths), int(starts.size),
            _ptr(spec), _ptr(end), *tables, _ptr(counters),
        )

    def process_chunks_rec(
        self, inputs, starts, lengths, spec, end, tables, Ta, Tma,
        out_pos, out_pat, out_state, collapse_at, counters,
    ) -> None:
        self._lib.nk_process_chunks_rec(
            _ptr(inputs), _ptr(starts), _ptr(lengths), int(starts.size),
            _ptr(spec), _ptr(end), *tables, _ptr(Ta), _ptr(Tma),
            _ptr(out_pos), _ptr(out_pat), _ptr(out_state), int(out_pos.size),
            _ptr(collapse_at), _ptr(counters),
        )

    def fold_maps(
        self, spec, end, inputs, starts, lengths, converged, tables, row,
        counters,
    ) -> None:
        self._lib.nk_fold_maps(
            _ptr(spec), _ptr(end), int(starts.size), _ptr(inputs),
            _ptr(starts), _ptr(lengths), _ptr(converged), *tables,
            _ptr(row), _ptr(counters),
        )

    def accept_positions(
        self, inputs, starts, lengths, states0, class_of, Ta,
        out_pos, out_lane, out_state,
    ) -> int:
        return int(
            self._lib.nk_accept_positions(
                _ptr(inputs), _ptr(starts), _ptr(lengths), int(starts.size),
                int(states0.shape[1]), _ptr(states0), class_of, _ptr(Ta),
                _ptr(out_pos), _ptr(out_lane), _ptr(out_state),
                int(out_pos.size),
            )
        )


def _ptr(a: np.ndarray | None) -> int | None:
    # As fast as ``a.ctypes.data`` with warm caches and ~25% faster with
    # cold ones (a serving round between event-loop work): the latter
    # builds a helper object per call.
    return None if a is None else a.__array_interface__["data"][0]


# --------------------------------------------------------------------------- #
# the public wrapper
# --------------------------------------------------------------------------- #


class GroupRecords(NamedTuple):
    """What the recording pass of a multi-pattern kernel saw.

    ``positions`` / ``patterns`` / ``states`` are one record per accepting
    step of a collapsed chunk's continuation (union states), chunk by
    chunk and ascending within a pattern; ``collapse_at[c]`` is the
    offset into chunk ``c`` where its lanes collapsed, -1 when they never
    did. Steps before a chunk's collapse position are not recorded.
    """

    positions: np.ndarray
    patterns: np.ndarray
    states: np.ndarray
    collapse_at: np.ndarray


@dataclass
class NativeCounters:
    """Physical-work counters drained from one native call."""

    gathers: int = 0
    collapse_scans: int = 0
    lanes_collapsed: int = 0
    reexec_chunks: int = 0
    reexec_items: int = 0
    checks_skipped: int = 0


class NativeKernel:
    """One loaded, specialized native kernel bound to its tables.

    Holds the resolved :class:`KernelPlan` (class map + stride table),
    the compile :class:`~repro.core.native.cgen.NativeSpec`, and the
    loaded artifact. Methods accept the same arrays as the NumPy path
    and coerce to the contiguous int32/int64 layout the C expects.
    """

    def __init__(
        self,
        lib,
        spec: NativeSpec,
        kplan: KernelPlan,
        *,
        artifact_path: str,
        key: str,
    ) -> None:
        self._lib = lib
        self.spec = spec
        self.kplan = kplan
        self.artifact_path = artifact_path
        self.key = key
        self._class_of = _i32(kplan.compaction.class_of)
        self._Tc = _i32(kplan.compaction.table)
        self._Tm = (
            _i32(kplan.tables.table_m) if kplan.tables is not None else None
        )
        # The tables never change, so their addresses are taken once; the
        # arrays above keep them valid for the kernel's life.
        self._tables = (
            _ptr(self._class_of), _ptr(self._Tc), _ptr(self._Tm)
        )
        # (accept flags, class table with accepting targets as ~state,
        # stride table with accepting steps as ~state or None) of the last
        # accept vector: one kernel serves one accept vector. Built by the
        # first call that needs them (the smoke check's are dropped).
        self._marked: tuple[bytes, np.ndarray, np.ndarray | None] | None = None

    @property
    def meta(self) -> tuple:
        """Shippable artifact metadata.

        ``(k, m, C, N, cadence, backoff, patterns, group_widths)`` — the
        trailing multi-pattern fields are ``(1, ())`` for single-pattern
        kernels, and :func:`load_artifact` tolerates their absence for
        older 6-tuples.
        """
        sp = self.spec
        return (
            sp.k, sp.m, sp.num_classes, sp.num_states, sp.cadence,
            sp.backoff, sp.patterns, sp.group_widths,
        )

    # -- primitives -------------------------------------------------------- #

    def run_segment(self, symbols: np.ndarray, start: int) -> int:
        """Native analog of :func:`repro.core.kernels.run_segment_kernel`."""
        symbols = _i32(symbols)
        if symbols.size == 0:
            return int(start)
        return self._lib.run_segment(symbols, start, self._tables)

    def process_chunks(
        self,
        inputs: np.ndarray,
        plan,
        spec: np.ndarray,
        *,
        stats=None,
    ) -> np.ndarray:
        """Native analog of :func:`repro.core.kernels.process_chunks_kernel`.

        Returns the ``(num_chunks, k)`` ending-state matrix. Event
        counters in ``stats`` keep lock-step semantics (transitions =
        symbols x width) exactly like the NumPy kernels, so modeled
        numbers stay backend-independent; physical counters come from the
        native counter block.
        """
        spec, inputs, starts, lengths = self._chunk_args(inputs, plan, spec)
        end = np.empty_like(spec)
        counters = np.zeros(NUM_SLOTS, dtype=np.int64)
        with trace_span(
            "native.process_chunks", chunks=plan.num_chunks, k=self.spec.k
        ):
            self._lib.process_chunks(
                inputs, starts, lengths, spec, end, self._tables, counters
            )
        self._drain(plan, counters, stats)
        return end

    def process_chunks_recording(
        self,
        inputs: np.ndarray,
        plan,
        spec: np.ndarray,
        accept: np.ndarray,
        *,
        stats=None,
    ) -> tuple[np.ndarray, GroupRecords]:
        """:meth:`process_chunks` that also records matches after collapse.

        Only recording kernels (``spec.records``: several patterns, and
        the collapse fast path or one lane per pattern, whose every chunk
        collapses at 0) have it. Returns the ending-state matrix
        and the :class:`GroupRecords` of every step into a state with
        ``accept[state]`` set, taken on the one-lane-per-pattern
        continuation of each collapsed chunk. The events of a chunk are
        the truth from its collapse position on whenever each pattern's
        true entry state is among that pattern's speculated lanes. A
        record buffer that overflows is never truncated: the pass re-runs
        with a buffer of exactly the reported size.
        """
        if not self.spec.records:
            raise ValueError("this kernel was compiled without match recording")
        spec, inputs, starts, lengths = self._chunk_args(inputs, plan, spec)
        Ta, Tma = self._marked_tables(accept, stride=True)
        cap = _ACCEPT_CAP
        with trace_span(
            "native.process_chunks", chunks=plan.num_chunks, k=self.spec.k,
            record=True,
        ):
            while True:
                end = np.empty_like(spec)
                collapse_at = np.empty(starts.size, dtype=np.int64)
                counters = np.zeros(NUM_SLOTS, dtype=np.int64)
                pos = np.empty(cap, dtype=np.int64)
                pat = np.empty(cap, dtype=np.int32)
                state = np.empty(cap, dtype=np.int32)
                self._lib.process_chunks_rec(
                    inputs, starts, lengths, spec, end, self._tables, Ta,
                    Tma, pos, pat, state, collapse_at, counters,
                )
                total = int(counters[SLOT_RECORDS])
                if total <= cap:
                    break
                cap = total
        self._drain(plan, counters, stats)
        return end, GroupRecords(
            pos[:total], pat[:total], state[:total], collapse_at
        )

    def _chunk_args(self, inputs, plan, spec):
        """Validated contiguous ``(spec, inputs, starts, lengths)``."""
        spec = _i32(spec)
        if spec.ndim != 2 or spec.shape[0] != plan.num_chunks:
            raise ValueError(
                f"spec must have shape (num_chunks, k), got {spec.shape} "
                f"for {plan.num_chunks} chunks"
            )
        if spec.shape[1] != self.spec.k:
            raise ValueError(
                f"native kernel compiled for k={self.spec.k}, got "
                f"k={spec.shape[1]}"
            )
        return spec, _i32(inputs), _i64(plan.starts), _i64(plan.lengths)

    def _drain(self, plan, counters: np.ndarray, stats) -> None:
        """Fold one stepping call's counters into ``stats``."""
        if stats is not None:
            stats.local_steps += plan.max_len
            stats.local_transitions += int(plan.lengths.sum()) * self.spec.k
            stats.local_input_reads += int(plan.lengths.sum())
            stats.local_gathers += int(counters[SLOT_GATHERS])
            stats.collapse_scans += int(counters[SLOT_SCANS])
            stats.lanes_collapsed += int(counters[SLOT_LANES_COLLAPSED])
        add_count("native.chunks", plan.num_chunks)

    def _marked_tables(
        self, accept: np.ndarray, *, stride: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The class (and with ``stride`` the stride) table, accept-marked.

        An entry whose step lands in an accepting state — for the stride
        table, whose ``m`` sub-steps pass through one — is stored as
        ``~state``. Built once per accept vector.
        """
        accept = np.ascontiguousarray(accept, dtype=bool)
        ns = self.spec.num_states
        if accept.shape != (ns,):
            raise ValueError(f"accept must have shape ({ns},), got {accept.shape}")
        key = accept.tobytes()
        if self._marked is None or self._marked[0] != key:
            Tc = self._Tc
            self._marked = (key, np.where(accept[Tc], ~Tc, Tc), None)
        if stride and self._Tm is not None and self._marked[2] is None:
            self._marked = self._marked[:2] + (
                _mark_stride(self._Tc, self._Tm, accept),
            )
        return self._marked[1], self._marked[2]

    def fold_maps(
        self,
        spec: np.ndarray,
        end: np.ndarray,
        inputs: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        *,
        converged: np.ndarray | None = None,
        row: np.ndarray | None = None,
    ) -> tuple[np.ndarray, NativeCounters]:
        """Left fold of per-chunk maps with first-match semi-join semantics.

        The native form of the pool worker's fold: ``row`` (default
        ``end[0]``) carries chunk 0's running ending states; each further
        map is composed via first-match lookup in its speculation row,
        misses re-execute natively, and ``converged`` chunks
        short-circuit to their constant map. Returns the folded row and
        the drained counters.
        """
        spec = _i32(spec)
        end = _i32(end)
        inputs = _i32(inputs)
        starts = _i64(starts)
        lengths = _i64(lengths)
        if row is None:
            row = end[0].copy()
        row = _i32(row).copy()
        conv = (
            np.ascontiguousarray(converged, dtype=np.uint8)
            if converged is not None
            else None
        )
        counters = np.zeros(NUM_SLOTS, dtype=np.int64)
        self._lib.fold_maps(
            spec, end, inputs, starts, lengths, conv, self._tables, row,
            counters,
        )
        return row, NativeCounters(
            gathers=int(counters[SLOT_GATHERS]),
            reexec_chunks=int(counters[SLOT_FOLD_REEXEC_CHUNKS]),
            reexec_items=int(counters[SLOT_FOLD_REEXEC_ITEMS]),
            checks_skipped=int(counters[SLOT_FOLD_CHECKS_SKIPPED]),
        )

    def accept_positions(
        self,
        inputs: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        states0: np.ndarray,
        accept: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """True-start accept pass: ``(positions, lanes, states)``.

        Chunk ``c`` (``inputs[starts[c]:starts[c]+lengths[c]]``) runs
        ``W`` lanes from ``states0[c]`` (a ``(num_chunks, W)`` matrix of
        true entry states), one symbol at a time; every step that lands
        in a state with ``accept[state]`` set is one record. Records come
        chunk by chunk, and within one lane the positions ascend. The
        pass is re-run with an exact-size buffer when the first one
        overflows, so nothing is ever truncated.
        """
        inputs = _i32(inputs)
        starts = _i64(starts)
        lengths = _i64(lengths)
        states0 = _i32(states0)
        ns = self.spec.num_states
        if states0.ndim != 2 or states0.shape[0] != starts.size:
            raise ValueError(
                f"states0 must have shape ({starts.size}, W), got {states0.shape}"
            )
        Ta, _ = self._marked_tables(accept)
        if states0.size and (states0.min() < 0 or states0.max() >= ns):
            raise ValueError(f"states0 holds states outside [0, {ns})")
        if starts.size and (
            starts.min() < 0 or int((starts + lengths).max()) > inputs.size
        ):
            raise ValueError("chunks reach outside the input")
        cap = _ACCEPT_CAP
        with trace_span(
            "native.accept_positions", chunks=int(starts.size),
            lanes=int(states0.shape[1]),
        ):
            while True:
                pos = np.empty(cap, dtype=np.int64)
                lane = np.empty(cap, dtype=np.int32)
                state = np.empty(cap, dtype=np.int32)
                total = self._lib.accept_positions(
                    inputs, starts, lengths, states0, self._tables[0], Ta,
                    pos, lane, state,
                )
                if total <= cap:
                    return pos[:total], lane[:total], state[:total]
                cap = total


def _mark_stride(Tc: np.ndarray, Tm: np.ndarray, accept: np.ndarray) -> np.ndarray:
    """``Tm`` with every entry whose ``m`` sub-steps pass an accepting state
    stored as ``~state``.

    Walks the radix order of :func:`repro.core.kernels.build_stride_tables`
    (first symbol most significant): ``T_{j+1}[i*C + c] = Tc[c][T_j[i]]``,
    and a ``j + 1``-symbol string is marked when its ``j``-prefix is or its
    last step accepts.
    """
    C = Tc.shape[0]
    T, mark = Tc, accept[Tc]
    while T.shape[0] < Tm.shape[0]:
        T = Tc[np.arange(C)[None, :, None], T[:, None, :]].reshape(T.shape[0] * C, -1)
        mark = np.repeat(mark, C, axis=0) | accept[T]
    return np.where(mark, ~Tm, Tm)


# --------------------------------------------------------------------------- #
# loading / smoke check
# --------------------------------------------------------------------------- #


def _smoke_rows(nk: NativeKernel, dfa: DFA, seg: np.ndarray) -> np.ndarray:
    """The rows of ``dfa.table`` that the kernel's input ``seg`` selects.

    The kernel reads symbols of its class map's domain. ``dfa`` reads the
    same symbols when its table has one row per symbol; otherwise it is
    the machine over the classes (a group's union), and each symbol goes
    through the class map first. Classes are numbered by first
    appearance, so the two readings agree whenever the counts match.
    """
    class_of = nk.kplan.compaction.class_of
    return seg if dfa.num_inputs == class_of.size else class_of[seg]


def _smoke_check(nk: NativeKernel, dfa: DFA) -> bool:
    """Cross-check the loaded kernel against a pure-Python table walk.

    Covers both single-state re-execution and the accept pass, over raw
    symbols drawn from the kernel's class map's domain.
    """
    rng = np.random.default_rng(12345)
    n = max(2 * nk.spec.m + 3, 11)
    seg = rng.integers(
        0, nk.kplan.compaction.class_of.size, size=n, dtype=np.int32
    )
    table = dfa.table
    lanes = list(range(min(dfa.num_states, nk.spec.k + 1)))
    expect = []
    rows = _smoke_rows(nk, dfa, seg).tolist()
    for start in lanes:
        s = start
        for t, sym in enumerate(rows):
            s = int(table[sym, s])
            if dfa.accepting[s]:
                expect.append((t, start, s))
        if nk.run_segment(seg, start) != s:
            return False
    pos, lane, state = nk.accept_positions(
        seg, [0], [n], np.array([lanes]), dfa.accepting
    )
    got = sorted(zip(pos.tolist(), lane.tolist(), state.tolist()))
    if got != sorted(expect):
        return False
    return not nk.spec.records or _smoke_records(nk, dfa, rng)


def _smoke_records(nk: NativeKernel, dfa: DFA, rng) -> bool:
    """Cross-check the recording pass on two chunks whose lanes start
    collapsed (every lane of a group on one state), so each collapses at
    its first scan (at position 0 on a one-lane-per-pattern kernel) and
    records the rest of the chunk."""
    sp = nk.spec
    length = sp.cadence + 3 * sp.m + 5
    seg = rng.integers(
        0, nk.kplan.compaction.class_of.size, size=2 * length, dtype=np.int32
    )
    rows = _smoke_rows(nk, dfa, seg)
    plan = plan_chunks(seg.size, 2)
    states = (7 * np.arange(sp.patterns)[None, :] + np.arange(2)[:, None]) % sp.num_states
    spec = np.repeat(states, sp.groups, axis=1)
    end, rec = nk.process_chunks_recording(seg, plan, spec, dfa.accepting)
    if (rec.collapse_at < 0).any():
        return False
    expect = []
    for t in range(length):  # both chunks, every group at once
        pos = plan.starts + t
        states = dfa.table[rows[pos][:, None], states]
        hit = dfa.accepting[states] & (t >= rec.collapse_at)[:, None]
        for c, g in zip(*np.nonzero(hit)):
            expect.append((int(pos[c]), int(g), int(states[c, g])))
    got = zip(rec.positions.tolist(), rec.patterns.tolist(), rec.states.tolist())
    return sorted(got) == sorted(expect) and np.array_equal(
        end[:, list(sp.group_offsets[:-1])], states
    )


def _load_lib(path: str, spec: NativeSpec) -> _CtypesLib:
    """Load a compiled artifact with ctypes; validate its ABI and metadata."""
    lib = _CtypesLib(path, records=spec.records)
    if lib.abi() != _build.ABI_VERSION:
        raise RuntimeError(
            f"artifact {path} has ABI {lib.abi()}, "
            f"expected {_build.ABI_VERSION}"
        )
    expect = (spec.k, spec.m, spec.num_classes, spec.num_states)
    got = tuple(lib.meta(i) for i in range(4))
    if got != expect:
        raise RuntimeError(f"artifact {path} metadata {got} != plan {expect}")
    return lib


def native_available() -> bool:
    """Whether a C compiler is available to build native kernels."""
    return _build.find_compiler() is not None


def _native_spec(
    kplan: KernelPlan,
    k: int,
    collapse: CollapseConfig | None,
    *,
    patterns: int = 1,
    group_widths: tuple = (),
) -> NativeSpec:
    collapsing = collapse is not None and collapse.enabled and k > patterns
    return NativeSpec(
        k=k,
        m=kplan.m,
        num_classes=kplan.compaction.num_classes,
        num_states=kplan.compaction.num_states,
        cadence=collapse.cadence if collapsing else 0,
        backoff=collapse.backoff if collapsing else 2,
        patterns=patterns,
        group_widths=tuple(group_widths),
    )


def _collapse_tag(spec: NativeSpec) -> str:
    if spec.cadence <= 0:
        return "off"
    return f"on(W={spec.cadence},B={spec.backoff})"


def _pattern_tag(spec: NativeSpec) -> str:
    """Cache-key suffix for the multi-pattern lane layout (empty for P=1)."""
    if spec.patterns == 1:
        return ""
    return ":p{}w{}".format(
        spec.patterns, "-".join(str(w) for w in spec.groups)
    )


def load_native_plan(
    dfa: DFA,
    *,
    k: int,
    kernel: str = "auto",
    kplan: KernelPlan | None = None,
    collapse: CollapseConfig | None = None,
    chunk_len: int = 1 << 14,
    num_chunks: int = 256,
    table_budget_bytes: int | None = None,
    cache_dir: str | None = None,
    patterns: int = 1,
    group_widths: tuple = (),
) -> NativeKernel | None:
    """Specialize, compile (or reuse) and load the native kernel for a plan.

    ``patterns`` / ``group_widths`` bake the multi-pattern lane layout in
    as compile-time constants (the stacked-union batched route: ``k`` is
    then the *total* lane count across patterns and ``dfa`` the union
    machine). Returns ``None`` — after counting a ``native.fallback`` —
    whenever native execution is unavailable or untrustworthy; callers
    then use the NumPy path unchanged. A loader-planned request remembers
    its failure, keyed with the compiler probe, so a repeat request with
    the same compiler neither re-plans nor retries the build.
    """
    budget = (
        table_budget_bytes
        if table_budget_bytes is not None
        else DEFAULT_TABLE_BUDGET_BYTES
    )
    fp = dfa_fingerprint(dfa, start=False)
    # Memory-cache keys. A loader-planned kernel is found first by the
    # request that planned it (a repeated call skips planning, loading and
    # the smoke check, or returns its remembered failure), then by its
    # content: the artifact key plus the cache directory, since the
    # loader's tables are a function of the machine and the kernel choice
    # alone. A caller-supplied plan is keyed on its identity (its tables
    # may differ from what the loader builds).
    where = cache_dir or os.environ.get(_build._ENV_CACHE_DIR)
    planned = kplan is None

    def request_key() -> tuple:
        return (
            fp, k, kernel, chunk_len, num_chunks, budget,
            _collapse_key(collapse, k, patterns), patterns,
            tuple(group_widths), where, _build.find_compiler(),
        )

    def failed(reason: str | None) -> None:
        if reason is not None:
            _build.note_fallback(reason)
        if planned:
            # Keyed on the compiler probe as it stands after the attempt:
            # a compiler that just failed a build now probes as absent.
            _mem_put(request_key(), None)

    if planned:
        hit = _mem_get(request_key(), _ABSENT)
        if hit is not _ABSENT:
            return hit
        try:
            kplan = plan_kernel(
                dfa, chunk_len=chunk_len, num_chunks=num_chunks, k=k,
                kernel=kernel, table_budget_bytes=budget,
            )
        except ValueError:
            failed("plan")
            return None

    try:
        spec = _native_spec(
            kplan, k, collapse,
            patterns=patterns, group_widths=tuple(group_widths),
        )
    except ValueError:
        failed("spec")
        return None
    key = _build.cache_key(
        fp, k=k, kernel=f"{kplan.kernel}:m{spec.m}{_pattern_tag(spec)}",
        collapse=_collapse_tag(spec),
    )
    content_key = (key, where) if planned else (key, id(kplan))
    nk = _mem_get(content_key)
    if nk is None:
        with trace_span("native.load", key=key, kernel=kplan.kernel, k=k):
            nk = _materialize(dfa, spec, kplan, key, cache_dir)
        if nk is None:
            failed(None)  # _materialize counted the fallback
            return None
    _mem_put(content_key, nk)
    if planned:
        _mem_put(request_key(), nk)
    return nk


def load_serial_kernel(dfa: DFA, *, kernel: str = "auto") -> NativeKernel | None:
    """The one-lane, no-collapse kernel of the CPU plan's serial rung.

    Planned for one chunk of :data:`repro.core.plan.NATIVE_MIN_ITEMS`
    symbols whatever the call's length, so every call on one machine and
    kernel is the same :func:`load_native_plan` request: a new input
    length never re-plans, and a machine with no usable kernel is tried
    once per compiler rather than on every call.
    """
    return load_native_plan(
        dfa, k=1, kernel=kernel, chunk_len=NATIVE_MIN_ITEMS, num_chunks=1
    )


def _mem_put(mem_key: tuple, nk: NativeKernel | None) -> None:
    with _mem_lock:
        _mem_cache[mem_key] = nk
        _mem_cache.move_to_end(mem_key)
        while len(_mem_cache) > _MEM_CACHE_MAX:
            _mem_cache.popitem(last=False)


def _mem_get(mem_key: tuple, miss=None):
    """Memory-cache lookup (``miss`` when absent); a hit is refreshed in
    LRU order and, when it holds a kernel, counted."""
    with _mem_lock:
        hit = _mem_cache.get(mem_key, _ABSENT)
        if hit is not _ABSENT:
            _mem_cache.move_to_end(mem_key)
    if hit is _ABSENT:
        return miss
    if hit is not None:
        _build.note_mem_hit()
    return hit


def _collapse_key(
    collapse: CollapseConfig | None, k: int, patterns: int
) -> tuple[int, int] | None:
    """The part of ``collapse`` a compiled kernel bakes in (see _native_spec)."""
    if collapse is None or not collapse.enabled or k <= patterns:
        return None
    return (collapse.cadence, collapse.backoff)


def _materialize(
    dfa: DFA,
    spec: NativeSpec,
    kplan: KernelPlan,
    key: str,
    cache_dir: str | None,
) -> NativeKernel | None:
    try:
        path = _build.ensure_artifact(
            key, lambda: generate_source(spec), directory=cache_dir
        )
        lib = _load_lib(path, spec)
    except Exception:
        _build.note_fallback("compile")
        return None
    nk = NativeKernel(lib, spec, kplan, artifact_path=path, key=key)
    try:
        ok = _smoke_check(nk, dfa)
    except Exception:
        ok = False
    # The accept-marked tables the check built are a copy of the stride
    # table (megabytes for a group's): a kernel that never records should
    # not keep them, and the first recording call rebuilds them.
    nk._marked = None
    if not ok:
        _build.note_fallback("smoke")
        return None
    return nk


def load_artifact(
    path: str,
    meta: tuple,
    kplan: KernelPlan,
) -> NativeKernel | None:
    """Load a pre-compiled artifact shipped by path (pool workers).

    ``meta`` is ``(k, m, num_classes, num_states, cadence, backoff[,
    patterns, group_widths])`` as produced by the parent's
    :class:`NativeKernel` — workers never compile; a load failure of any
    kind returns ``None`` so the worker falls back to its NumPy path.
    """
    try:
        spec = NativeSpec(
            k=int(meta[0]), m=int(meta[1]), num_classes=int(meta[2]),
            num_states=int(meta[3]), cadence=int(meta[4]),
            backoff=int(meta[5]),
            patterns=int(meta[6]) if len(meta) > 6 else 1,
            group_widths=tuple(meta[7]) if len(meta) > 7 else (),
        )
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        lib = _load_lib(path, spec)
        return NativeKernel(
            lib, spec, kplan, artifact_path=path,
            key=os.path.splitext(os.path.basename(path))[0],
        )
    except Exception:
        _build.note_fallback("worker_load")
        return None


def cache_stats() -> dict:
    """Compile-cache statistics snapshot (memory + disk + compiler)."""
    snap = _build.build_stats()
    with _mem_lock:
        snap["mem_entries"] = len(_mem_cache)
    return snap


def clear_memory_cache() -> None:
    """Drop in-memory loaded kernels (test hook; disk artifacts remain)."""
    with _mem_lock:
        _mem_cache.clear()

"""Generate specialized C sources for the native hot path.

The paper's speedups come from a *generator* that fixes the speculation
width at compile time so the compiler unrolls the per-state loop and keeps
the lanes in registers. :func:`generate_source` is that generator for the
CPU: given a :class:`NativeSpec` — ``(k, m, C, N, cadence, backoff)`` — it
emits one C translation unit containing

* ``nk_process_chunks`` — the local-processing kernel. One plain loop per
  chunk (ragged lengths are free), ``k`` lanes unrolled into locals for
  small ``k`` (an indexed lane array above :data:`UNROLL_LIMIT`), stride-m
  stepping with the radix index computed inline from the class map, and a
  collapse-aware fast path: on cadence, if every lane agrees, the chunk
  narrows to a single-lane loop for its remaining symbols (bit-exact — a
  chunk's ``spec -> end`` map is deterministic, so equal lanes stay equal).
* ``nk_run_segment`` — the single-state re-execution primitive
  (the native analog of :func:`repro.core.kernels.run_segment_kernel`).
* ``nk_fold_maps`` — the left fold of per-chunk maps with the first-match
  semi-join of :func:`repro.core.merge_par.compose_maps`, re-executing
  misses natively (the worker-side fold of
  :class:`repro.core.mp_executor.ScaleoutPool`, compiled).
* ``nk_accept_positions`` — the true-start output-recovery pass: ``W``
  lanes per chunk step one symbol at a time from a ``(chunks, W)``
  matrix of true entry states, and every step landing in an accepting
  state records ``(position, lane, state)``. Acceptance rides the table:
  the runtime passes the class table with accepting targets stored as
  ``~state``, built once per accept vector from the ``u8`` per-state
  flags. It returns the total count and writes at most ``cap`` records,
  so the caller re-runs with a larger buffer instead of truncating. One
  lane per pattern serves the batched union, one lane over the product
  serves the product route, ``W = 1`` serves a single machine.
* ``nk_process_chunks_rec`` — multi-pattern kernels with the collapse
  fast path, and the serial rung's one-lane-per-pattern kernels
  (``k == patterns``, whose every chunk is that continuation from
  position 0, collapse position 0) only: ``nk_process_chunks`` that also
  reports each chunk's collapse position and records ``(position,
  pattern, state)`` for every accepting step of the collapsed
  one-lane-per-pattern continuation. It
  steps through marked tables: the class table with accepting targets as
  ``~state`` (as in the accept pass) and the stride table with an entry
  stored as ``~state`` when any of its ``m`` sub-steps accepts; a marked
  stride step re-walks its ``m`` symbols one at a time. Like the accept
  pass it counts every record (slot 6) and writes at most ``cap``.
* ``nk_abi`` / ``nk_meta`` — sanity probes so a loader can verify an
  artifact matches the plan it was compiled for.

Transition tables are **not** baked into the artifact — they arrive as
pointers (the compacted class table and the optional stride table), so one
artifact serves every buffer location (shared-memory views included) and
the cache key stays ``(table fingerprint, k, kernel, collapse, dtype, abi)``.

Counter slots written by the kernels (one ``int64[8]`` per call)::

    0  state advances (physical gathers)
    1  collapse scans
    2  lanes collapsed
    3  fold: chunks re-executed on a semi-join miss
    4  fold: items re-executed (segment length x missing lanes)
    5  fold: checks skipped on converged chunks
    6  records counted by nk_process_chunks_rec
"""

from __future__ import annotations

from dataclasses import dataclass

from .build import ABI_VERSION

__all__ = ["NativeSpec", "UNROLL_LIMIT", "generate_source"]

#: Lanes above this count use an indexed local array instead of unrolled
#: scalar locals (the source would otherwise grow quadratically and spill
#: registers anyway).
UNROLL_LIMIT = 8

#: Counter-slot indices (mirrored by the runtime wrapper).
SLOT_GATHERS = 0
SLOT_SCANS = 1
SLOT_LANES_COLLAPSED = 2
SLOT_FOLD_REEXEC_CHUNKS = 3
SLOT_FOLD_REEXEC_ITEMS = 4
SLOT_FOLD_CHECKS_SKIPPED = 5
SLOT_RECORDS = 6
NUM_SLOTS = 8


@dataclass(frozen=True)
class NativeSpec:
    """Everything the generator specializes on.

    ``k`` is the speculation width (lanes per chunk), ``m`` the stride
    (symbols per composed-table step; 1 = per-symbol stepping), ``C`` the
    compacted class count, ``N`` the state count, and ``cadence`` the
    collapse scan interval in symbols (0 disables the collapse fast path;
    ``backoff`` multiplies the interval after an unproductive scan).

    ``patterns`` bakes the multi-pattern lane layout in as a constant
    (``NK_P``): the ``k`` lanes are the concatenation of ``patterns``
    per-pattern lane groups over a block-diagonal stacked-union table
    (``group_widths`` gives each group's lane count; empty means an even
    ``k / patterns`` split). Lane stepping is identical — the union
    table's blocks are closed, so one fused gather still advances every
    pattern — but the collapse fast path becomes group-aware: lanes from
    different blocks can never be equal, so the scan tests *within-group*
    agreement and the collapsed continuation steps one lane per pattern.
    """

    k: int
    m: int
    num_classes: int
    num_states: int
    cadence: int = 0
    backoff: int = 2
    patterns: int = 1
    group_widths: tuple = ()

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.m < 1:
            raise ValueError(f"stride m must be >= 1, got {self.m}")
        if self.num_classes < 1 or self.num_states < 1:
            raise ValueError("num_classes and num_states must be >= 1")
        if self.cadence < 0:
            raise ValueError(f"cadence must be >= 0, got {self.cadence}")
        if self.backoff < 1:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.patterns < 1:
            raise ValueError(f"patterns must be >= 1, got {self.patterns}")
        if self.group_widths:
            widths = tuple(int(w) for w in self.group_widths)
            if len(widths) != self.patterns:
                raise ValueError(
                    f"group_widths has {len(widths)} entries for "
                    f"{self.patterns} patterns"
                )
            if any(w < 1 for w in widths):
                raise ValueError(f"group widths must be >= 1, got {widths}")
            if sum(widths) != self.k:
                raise ValueError(
                    f"group widths {widths} sum to {sum(widths)}, not k={self.k}"
                )
            object.__setattr__(self, "group_widths", widths)
        elif self.patterns > 1:
            if self.k % self.patterns:
                raise ValueError(
                    f"k={self.k} not divisible by patterns={self.patterns} "
                    "and no group_widths given"
                )

    @property
    def groups(self) -> tuple:
        """Per-pattern lane widths (resolved; always sums to ``k``)."""
        if self.group_widths:
            return self.group_widths
        if self.patterns == 1:
            return (self.k,)
        return (self.k // self.patterns,) * self.patterns

    @property
    def group_offsets(self) -> tuple:
        """Lane offset of each group plus the total (``patterns + 1`` ints)."""
        offs = [0]
        for w in self.groups:
            offs.append(offs[-1] + w)
        return tuple(offs)

    @property
    def unrolled(self) -> bool:
        """Whether lanes become scalar locals (vs an indexed array)."""
        return self.k <= UNROLL_LIMIT

    @property
    def collapsing(self) -> bool:
        """Whether the collapse fast path is generated at all."""
        return self.cadence > 0 and self.k > self.patterns

    @property
    def one_lane_per_pattern(self) -> bool:
        """Whether every pattern group is one lane (``k == patterns > 1``):
        the serial rung's group kernel, which steps each pattern from its
        known start and has nothing to collapse."""
        return self.patterns > 1 and self.k == self.patterns

    @property
    def records(self) -> bool:
        """Whether ``nk_process_chunks_rec`` is generated: the kernel has
        the one-lane-per-pattern continuation of a collapsed chunk, or is
        that continuation from position 0."""
        return self.patterns > 1 and (self.collapsing or self.one_lane_per_pattern)


def _stride_index(spec: NativeSpec, base: str) -> list[str]:
    """Lines computing the radix-packed stride index of ``m`` symbols."""
    lines = [f"            i64 idx = class_of[{base}[t]];"]
    for i in range(1, spec.m):
        lines.append(
            f"            idx = idx * NC + (i64)class_of[{base}[t + {i}]];"
        )
    return lines


def _lane_step(spec: NativeSpec, row: str) -> list[str]:
    """Lines advancing every lane through one table row."""
    if spec.unrolled:
        return [
            f"            s{j} = {row}[s{j}];" for j in range(spec.k)
        ]
    return [
        "            for (int j = 0; j < K; j++) st[j] = " + row + "[st[j]];"
    ]


def _lane_equal(spec: NativeSpec) -> str:
    """Boolean expression: every lane group holds one state per group.

    For a single pattern this is plain all-lanes-equal. For ``patterns``
    groups over a stacked union, cross-group equality is impossible (the
    blocks occupy disjoint state ranges), so only within-group agreement
    is tested — collapse then fires exactly when every pattern converged.
    """
    if spec.unrolled:
        terms = []
        offs = spec.group_offsets
        for g in range(spec.patterns):
            lo, hi = offs[g], offs[g + 1]
            terms.extend(f"s{lo} == s{j}" for j in range(lo + 1, hi))
        if not terms:
            return "1"
        return " && ".join(terms)
    return "nk_all_equal(st)"


def _scan_block(spec: NativeSpec) -> list[str]:
    """The cadence-gated collapse scan, or nothing when disabled."""
    if not spec.collapsing:
        return []
    return [
        "            if (t >= next_scan) {",
        f"                counters[{SLOT_SCANS}] += 1;",
        f"                if ({_lane_equal(spec)}) {{",
        f"                    counters[{SLOT_LANES_COLLAPSED}] += K - NK_P;",
        "                    goto collapsed;",
        "                }",
        "                interval *= BACKOFF;",
        "                next_scan = t + interval;",
        "            }",
    ]


def generate_source(spec: NativeSpec) -> str:
    """Emit the full C translation unit for ``spec``."""
    k, m = spec.k, spec.m

    # --- lane storage ----------------------------------------------------- #
    if spec.unrolled:
        lane_load = "\n".join(
            f"    i32 s{j} = lanes[{j}];" for j in range(k)
        )
        lane_store = "\n".join(
            f"    lanes[{j}] = s{j};" for j in range(k)
        )
        lane_broadcast = "\n".join(
            f"    lanes[{j}] = s0;" for j in range(k)
        )
        collapsed_seed = "s0"
    else:
        lane_load = (
            "    i32 st[K];\n"
            "    for (int j = 0; j < K; j++) st[j] = lanes[j];"
        )
        lane_store = "    for (int j = 0; j < K; j++) lanes[j] = st[j];"
        lane_broadcast = "    for (int j = 0; j < K; j++) lanes[j] = st[0];"
        collapsed_seed = "st[0]"

    # --- per-symbol (tail) step ------------------------------------------- #
    tail_step = "\n".join(
        ["            const i32 *row = Tc + (i64)class_of[in[t]] * NS;"]
        + _lane_step(spec, "row")
    )

    # --- stride main loop (only generated when m > 1) ---------------------- #
    if m > 1:
        stride_loop = "\n".join(
            [
                "        while (t + M <= len) {",
                *_stride_index(spec, "in"),
                "            const i32 *row = Tm + idx * NS;",
                *_lane_step(spec, "row"),
                "            t += M;",
                f"            counters[{SLOT_GATHERS}] += K;",
                *_scan_block(spec),
                "        }",
            ]
        )
        one_stride = "\n".join(
            [
                "        while (t + M <= len) {",
                *_stride_index(spec, "in"),
                "            s = Tm[idx * NS + s];",
                "            t += M;",
                "        }",
            ]
        )
    else:
        stride_loop = "        /* m == 1: per-symbol stepping only */"
        one_stride = "        /* m == 1: per-symbol stepping only */"

    scan_tail = "\n".join(_scan_block(spec))
    collapse_decls = (
        "    i64 next_scan = CAD;\n    i64 interval = CAD;"
        if spec.collapsing
        else "    /* collapse fast path disabled */"
    )
    if not spec.collapsing:
        collapsed_label = ""
    elif spec.patterns == 1:
        collapsed_label = f"""
collapsed:
    /* Every lane agrees: finish the chunk single-lane, then broadcast. */
    {{
        i32 s = {collapsed_seed};
        s = nk_advance_one(in + t, len - t, s, class_of, Tc, Tm);
        counters[{SLOT_GATHERS}] += len - t;
{_broadcast_from_s(spec)}
    }}
    return;"""
    else:
        collapsed_label = f"""
collapsed:
    /* Every pattern's lanes agree: finish one lane per pattern. */
    {{
        i32 gs[NK_P];
{_group_seed(spec)}
        nk_advance_group(in + t, len - t, base + t, gs, class_of, Ta, Tma,
                         rec);
        counters[{SLOT_GATHERS}] += (len - t) * NK_P;
{_group_broadcast(spec)}
    }}
    return t;"""

    goff_decl = (
        "static const int GOFF[NK_P + 1] = {"
        + ", ".join(str(o) for o in spec.group_offsets)
        + "};\n"
        if (spec.collapsing and spec.patterns > 1 and not spec.unrolled)
        else ""
    )
    if not (spec.collapsing and not spec.unrolled):
        all_equal_helper = ""
    elif spec.patterns == 1:
        all_equal_helper = """
static int nk_all_equal(const i32 *st) {
    for (int j = 1; j < K; j++)
        if (st[j] != st[0]) return 0;
    return 1;
}
"""
    else:
        all_equal_helper = """
static int nk_all_equal(const i32 *st) {
    for (int g = 0; g < NK_P; g++)
        for (int j = GOFF[g] + 1; j < GOFF[g + 1]; j++)
            if (st[j] != st[GOFF[g]]) return 0;
    return 1;
}
"""
    all_equal_helper = goff_decl + all_equal_helper
    # Multi-pattern kernels with the collapse fast path record matches:
    # the lane loop takes the chunk's base position, the marked tables and
    # the record buffer, and returns the collapse position (-1: the chunk
    # never collapsed). nk_process_chunks then runs the recording loop on
    # the unmarked tables, so the artifact holds one copy of it.
    if spec.records:
        advance_group_helper = _advance_group_helper(spec)
        advance_ret = "i64"
        advance_extra = (
            ",\n                             i64 base, const i32 *Ta,"
            " const i32 *Tma, nk_rec *rec"
        )
        plain_return = "return -1;"
        process_chunks = _process_rec(spec)
    else:
        advance_group_helper = ""
        advance_ret = "void"
        advance_extra = ""
        plain_return = "return;"
        process_chunks = _PROCESS_CHUNKS

    if spec.one_lane_per_pattern:
        # Every lane is its pattern's known start: the chunk is the group
        # continuation from position 0, so it "collapses" there.
        advance_chunk = f"""\
/* Advance one lane per pattern through one chunk. */
static i64 nk_advance_chunk(const i32 *in, i64 len, i32 *lanes,
                            const i32 *class_of, const i32 *Tc,
                            const i32 *Tm, i64 *counters{advance_extra}) {{
    (void)Tc;
    /* One gather per lane per stride step, as the K-lane loop counts. */
    const i64 steps = (M > 1 && Tm) ? len / M + len % M : len;
    nk_advance_group(in, len, base, lanes, class_of, Ta, Tma, rec);
    counters[{SLOT_GATHERS}] += steps * NK_P;
    return 0;
}}
"""
    else:
        advance_chunk = f"""\
/* Advance all K lanes of one chunk. */
static {advance_ret} nk_advance_chunk(const i32 *in, i64 len, i32 *lanes,
                             const i32 *class_of, const i32 *Tc,
                             const i32 *Tm, i64 *counters{advance_extra}) {{
{lane_load}
    i64 t = 0;
{collapse_decls}
    if (M > 1 && Tm) {{
{stride_loop}
    }}
    {{
        while (t < len) {{
{tail_step}
            t += 1;
            counters[{SLOT_GATHERS}] += K;
{scan_tail}
        }}
    }}
{lane_store}
    {plain_return}{collapsed_label}
}}
"""

    return f"""\
/* Generated by repro.core.native.cgen — one artifact per
 * (table fingerprint, k, kernel, collapse, dtype, abi). Do not edit. */
#include <stdint.h>

#define NK_ABI_SOURCE {ABI_VERSION}
#define K {k}
#define M {m}
#define NC {spec.num_classes}
#define NS {spec.num_states}
#define CAD {spec.cadence}
#define BACKOFF {spec.backoff}
#define NK_P {spec.patterns}

typedef int32_t i32;
typedef int64_t i64;
typedef uint8_t u8;

i32 nk_abi(void) {{ return NK_ABI_SOURCE; }}

i32 nk_meta(i32 which) {{
    switch (which) {{
        case 0: return K;
        case 1: return M;
        case 2: return NC;
        case 3: return NS;
        case 4: return CAD;
        case 5: return NK_P;
        default: return -1;
    }}
}}

/* Advance one state through a segment: the re-execution primitive and the
 * single-lane continuation of a collapsed chunk. */
static i32 nk_advance_one(const i32 *in, i64 len, i32 s,
                          const i32 *class_of, const i32 *Tc,
                          const i32 *Tm) {{
    i64 t = 0;
    if (M > 1 && Tm) {{
{one_stride}
    }}
    for (; t < len; t++)
        s = Tc[(i64)class_of[in[t]] * NS + s];
    return s;
}}

i32 nk_run_segment(const i32 *in, i64 len, i32 s, const i32 *class_of,
                   const i32 *Tc, const i32 *Tm) {{
    return nk_advance_one(in, len, s, class_of, Tc, Tm);
}}
{all_equal_helper}{advance_group_helper}
{advance_chunk}
{process_chunks}
/* Left fold of per-chunk maps over chunk 0's speculation row: first-match
 * semi-join (compose_maps semantics), native re-execution on a miss, and
 * converged-chunk short-circuit. `row` carries the K running end states
 * in and out. */
void nk_fold_maps(const i32 *spec, const i32 *end, i64 nmaps,
                  const i32 *inputs, const i64 *starts, const i64 *lengths,
                  const u8 *converged, const i32 *class_of, const i32 *Tc,
                  const i32 *Tm, i32 *row, i64 *counters) {{
    for (i64 c = 1; c < nmaps; c++) {{
        const i32 *sp = spec + c * K;
        const i32 *en = end + c * K;
        if (converged && converged[c]) {{
            /* Constant map over achievable incoming states. */
            for (int j = 0; j < K; j++) row[j] = en[0];
            counters[{SLOT_FOLD_CHECKS_SKIPPED}] += K;
            continue;
        }}
        i32 nxt[K];
        int misses = 0;
        for (int j = 0; j < K; j++) {{
            i32 v = row[j];
            int hit = -1;
            for (int jj = 0; jj < K; jj++) {{
                if (sp[jj] == v) {{ hit = jj; break; }}
            }}
            if (hit >= 0) {{
                nxt[j] = en[hit];
            }} else {{
                nxt[j] = nk_advance_one(inputs + starts[c], lengths[c], v,
                                        class_of, Tc, Tm);
                misses++;
            }}
        }}
        if (misses) {{
            counters[{SLOT_FOLD_REEXEC_CHUNKS}] += 1;
            counters[{SLOT_FOLD_REEXEC_ITEMS}] += lengths[c] * misses;
        }}
        for (int j = 0; j < K; j++) row[j] = nxt[j];
    }}
}}

/* True-start accept pass (output recovery). Chunk c's W lanes enter at
 * states0[c*W ..] and step per symbol through Ta, the class table with
 * every accepting target stored as ~s: the lanes' states are ORed and one
 * sign test per step finds the rare step where some lane accepts, which
 * then records (position, lane, state) for each accepting lane. Lanes
 * step in blocks of ACC_BLOCK sharing each table row, so within one lane
 * the recorded positions ascend. Returns the record count; only the
 * first `cap` records are written. Built at -O1: the loop runs as fast
 * as at -O3, which would add ~20 ms to every kernel compile. */
#define ACC_BLOCK 64
__attribute__((optimize("O1")))
i64 nk_accept_positions(const i32 *inputs, const i64 *starts,
                        const i64 *lengths, i64 nchunks, i64 W,
                        const i32 *states0, const i32 *class_of,
                        const i32 *Ta, i64 *out_pos, i32 *out_lane,
                        i32 *out_state, i64 cap) {{
    i64 count = 0;
    i32 st[ACC_BLOCK];
    for (i64 c = 0; c < nchunks; c++) {{
        const i32 *in = inputs + starts[c];
        for (i64 b = 0; b < W; b += ACC_BLOCK) {{
            const int nb = (int)(W - b < ACC_BLOCK ? W - b : ACC_BLOCK);
            for (int j = 0; j < nb; j++) st[j] = states0[c * W + b + j];
            for (i64 t = 0; t < lengths[c]; t++) {{
                const i32 *row = Ta + (i64)class_of[in[t]] * NS;
                i32 any = 0;
                for (int j = 0; j < nb; j++) {{
                    st[j] = row[st[j]];
                    any |= st[j];
                }}
                if (any >= 0) continue;
                for (int j = 0; j < nb; j++) {{
                    if (st[j] >= 0) continue;
                    st[j] = ~st[j];
                    if (count < cap) {{
                        out_pos[count] = starts[c] + t;
                        out_lane[count] = (i32)(b + j);
                        out_state[count] = st[j];
                    }}
                    count++;
                }}
            }}
        }}
    }}
    return count;
}}
"""


_PROCESS_CHUNKS = """/* The local-processing kernel: spec -> end maps for every chunk. */
void nk_process_chunks(const i32 *inputs, const i64 *starts,
                       const i64 *lengths, i64 nchunks, const i32 *spec,
                       i32 *end, const i32 *class_of, const i32 *Tc,
                       const i32 *Tm, i64 *counters) {
    for (i64 c = 0; c < nchunks; c++) {
        i32 lanes[K];
        for (int j = 0; j < K; j++) lanes[j] = spec[c * K + j];
        nk_advance_chunk(inputs + starts[c], lengths[c], lanes,
                         class_of, Tc, Tm, counters);
        for (int j = 0; j < K; j++) end[c * K + j] = lanes[j];
    }
}
"""


def _broadcast_from_s(spec: NativeSpec) -> str:
    """Store the collapsed single lane ``s`` back into every output lane."""
    if spec.unrolled:
        return "\n".join(
            f"        lanes[{j}] = s;" for j in range(spec.k)
        )
    return "        for (int j = 0; j < K; j++) lanes[j] = s;"


def _group_seed(spec: NativeSpec) -> str:
    """Load the first lane of each pattern group into ``gs``."""
    offs = spec.group_offsets
    if spec.unrolled:
        return "\n".join(
            f"        gs[{g}] = s{offs[g]};" for g in range(spec.patterns)
        )
    return "        for (int g = 0; g < NK_P; g++) gs[g] = st[GOFF[g]];"


def _group_broadcast(spec: NativeSpec) -> str:
    """Store each group's collapsed lane back into all of its lanes."""
    offs = spec.group_offsets
    if spec.unrolled:
        return "\n".join(
            f"        lanes[{j}] = gs[{g}];"
            for g in range(spec.patterns)
            for j in range(offs[g], offs[g + 1])
        )
    return (
        "        for (int g = 0; g < NK_P; g++)\n"
        "            for (int j = GOFF[g]; j < GOFF[g + 1]; j++)\n"
        "                lanes[j] = gs[g];"
    )


def _advance_group_helper(spec: NativeSpec) -> str:
    """Emit ``nk_advance_group``: one lane per pattern, stride-aware.

    The per-pattern continuation of a fully collapsed multi-pattern
    chunk — the same stepping as :func:`nk_advance_one` but over
    ``NK_P`` states sharing each gathered table row — over the marked
    tables, recording ``(position, pattern, state)`` at every accepting
    step (see the module docstring). Given unmarked tables it records
    nothing. Emits the record buffer type and its helpers with it.
    """
    if spec.m > 1:
        rewalk = """
/* Re-walk one marked stride step symbol by symbol, recording each
 * accepting sub-step. */
static i32 nk_rewalk(const i32 *in, i64 pos, int g, i32 s,
                     const i32 *class_of, const i32 *Ta, nk_rec *rec) {
    for (int i = 0; i < M; i++) {
        s = Ta[(i64)class_of[in[i]] * NS + s];
        if (s < 0) { s = ~s; nk_record(rec, pos + i, g, s); }
    }
    return s;
}
"""
        stride = """\
    if (M > 1 && Tma) {
        while (t + M <= len) {
            i64 idx = class_of[in[t]];
            for (int i = 1; i < M; i++)
                idx = idx * NC + (i64)class_of[in[t + i]];
            const i32 *row = Tma + idx * NS;
            for (int g = 0; g < NK_P; g++) {
                i32 s = row[gs[g]];
                if (s < 0)
                    s = nk_rewalk(in + t, base + t, g, gs[g], class_of,
                                  Ta, rec);
                gs[g] = s;
            }
            t += M;
        }
    }
"""
    else:
        rewalk = ""
        stride = "    /* m == 1: per-symbol stepping only */\n"
    return f"""
typedef struct {{
    i64 *pos;
    i32 *pat;
    i32 *state;
    i64 cap;
    i64 count;
}} nk_rec;

static void nk_record(nk_rec *rec, i64 pos, int g, i32 s) {{
    if (rec->count < rec->cap) {{
        rec->pos[rec->count] = pos;
        rec->pat[rec->count] = g;
        rec->state[rec->count] = s;
    }}
    rec->count++;
}}
{rewalk}
/* Advance one lane per pattern group (collapsed-chunk continuation). */
static void nk_advance_group(const i32 *in, i64 len, i64 base, i32 *gs,
                             const i32 *class_of, const i32 *Ta,
                             const i32 *Tma, nk_rec *rec) {{
    i64 t = 0;
{stride}    for (; t < len; t++) {{
        const i32 *row = Ta + (i64)class_of[in[t]] * NS;
        for (int g = 0; g < NK_P; g++) {{
            i32 s = row[gs[g]];
            if (s < 0) {{ s = ~s; nk_record(rec, base + t, g, s); }}
            gs[g] = s;
        }}
    }}
}}
"""


def _process_rec(spec: NativeSpec) -> str:
    """Emit ``nk_process_chunks_rec`` and ``nk_process_chunks`` over it."""
    return f"""\
/* The local-processing kernel that also writes each chunk's collapse
 * position (-1: never collapsed; skipped when collapse_at is NULL) and
 * records the accepting steps of every collapsed continuation;
 * counters[{SLOT_RECORDS}] counts them all, at most `cap` are written.
 * noipa keeps the one copy nk_process_chunks calls. */
__attribute__((noipa))
void nk_process_chunks_rec(const i32 *inputs, const i64 *starts,
                           const i64 *lengths, i64 nchunks, const i32 *spec,
                           i32 *end, const i32 *class_of, const i32 *Tc,
                           const i32 *Tm, const i32 *Ta, const i32 *Tma,
                           i64 *out_pos, i32 *out_pat, i32 *out_state,
                           i64 cap, i64 *collapse_at, i64 *counters) {{
    nk_rec rec = {{out_pos, out_pat, out_state, cap, 0}};
    for (i64 c = 0; c < nchunks; c++) {{
        i32 lanes[K];
        for (int j = 0; j < K; j++) lanes[j] = spec[c * K + j];
        i64 at = nk_advance_chunk(inputs + starts[c], lengths[c], lanes,
                                  class_of, Tc, Tm, counters, starts[c],
                                  Ta, Tma, &rec);
        if (collapse_at) collapse_at[c] = at;
        for (int j = 0; j < K; j++) end[c * K + j] = lanes[j];
    }}
    counters[{SLOT_RECORDS}] = rec.count;
}}

/* The local-processing kernel: spec -> end maps for every chunk (the
 * recording loop over the unmarked tables, which never records). */
void nk_process_chunks(const i32 *inputs, const i64 *starts,
                       const i64 *lengths, i64 nchunks, const i32 *spec,
                       i32 *end, const i32 *class_of, const i32 *Tc,
                       const i32 *Tm, i64 *counters) {{
    nk_process_chunks_rec(inputs, starts, lengths, nchunks, spec, end,
                          class_of, Tc, Tm, Tc, Tm, 0, 0, 0, 0, 0, counters);
}}
"""

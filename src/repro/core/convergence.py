"""Convergence-aware lane collapse: dedupe speculative lanes mid-chunk.

Spec-k execution pays ``k×`` the transitions of a sequential run, yet on
high-convergence machines (HTML, Huffman — the paper's Figures 5/6) most
lanes of a chunk land in the *same* state within a short prefix and stay
identical forever: transition functions can merge states but never split
them, so once two lanes of one chunk coincide they agree for every
remaining symbol. Mytkowicz et al. (the paper's [18]) coalesce converged
enumeration lanes for exactly this reason; the speculative DFA membership
test in PAPERS.md leans on fast convergence for speculation success.

This module makes that observation a runtime optimization:

* :func:`collapse_rows` — one vectorized duplicate scan over the
  ``(num_chunks, w)`` state matrix: each row is compressed to its unique
  representatives (global width = the widest row) plus a reconstruction
  map that recovers the full ``(num_chunks, k)`` ending matrix at the end.
* :class:`LaneCollapser` — the mutable collapse state threaded through an
  advancement loop. Every ``cadence`` steps it re-scans and repacks the
  matrix into *width + spill rows* storage: the width that minimizes
  total elements, with straggler chunks' overflow lanes spilled into
  extra rows routed to their chunk's symbols via a row map — so one
  slow-converging chunk cannot hold all others at full width. When every
  chunk is down to a single distinct lane the run drops to ``(C, 1)``
  advancement. A scan that finds nothing to collapse backs off
  geometrically, bounding the overhead on never-converging machines
  (Div7) to a vanishing fraction of the stepping work.
* :func:`probe_cadence` / :func:`resolve_collapse` — choose the scan
  cadence by simulating ``k`` probe lanes over a mid-input sample until
  they first shrink. :func:`resolve_group_collapse` does the same for a
  pattern group stepping in one union pass, one probe per pattern.
* :func:`converged_chunks` — the downstream contract: a chunk whose
  speculation row *covers* the look-back image (the true boundary state is
  guaranteed to be among the speculated states) and whose ``k`` lanes all
  converged produces a **constant** ``spec -> end`` map, so the merges can
  short-circuit the O(k²) semi-join for that side (any achievable incoming
  state matches) and delayed re-execution can never be triggered by it.

Soundness of the merge short-circuit: a run that reaches a chunk boundary
through the actual input passes through that chunk's look-back window, so
its boundary state lies in the window's image; coverage means every image
state is speculated, convergence means they all map to one ending state —
hence any *achievable* incoming state is a guaranteed hit with a known
answer. Entries composed for non-achievable speculative states may be
fabricated, but the entry consulted for the final answer (and every probe
of the fix-up descent) is always keyed by a true — achievable — state, so
the functional result is bit-identical to the reference. Property tests in
``tests/core/test_convergence.py`` assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fsm.dfa import DFA

__all__ = [
    "CollapseConfig",
    "LaneCollapser",
    "collapse_rows",
    "converged_chunks",
    "coverage_mask",
    "probe_cadence",
    "resolve_collapse",
    "resolve_group_collapse",
    "DEFAULT_CADENCE",
    "CADENCE_BACKOFF",
]

#: Scan cadence used when no probe information is available ("on" mode).
DEFAULT_CADENCE = 32

#: Geometric back-off factor applied after a scan that collapsed nothing.
CADENCE_BACKOFF = 2

#: Cadence bounds for the probe: scanning more often than every 8 steps
#: cannot pay for itself (a scan costs about one step's gather plus a
#: sort); beyond 512 steps the savings of a late collapse are marginal.
_MIN_CADENCE = 8
_MAX_CADENCE = 512


@dataclass(frozen=True)
class CollapseConfig:
    """Resolved configuration of the lane-collapse layer for one run.

    ``cadence`` is the number of advancement steps between duplicate
    scans; ``backoff`` multiplies it after every scan that finds nothing
    to collapse (never-converging machines pay a geometrically vanishing
    scan cost). ``enabled=False`` is the explicit off switch carried by
    the resolved form of ``collapse="off"``.
    """

    enabled: bool = True
    cadence: int = DEFAULT_CADENCE
    backoff: int = CADENCE_BACKOFF

    def __post_init__(self) -> None:
        if self.cadence < 1:
            raise ValueError(f"cadence must be >= 1, got {self.cadence}")
        if self.backoff < 1:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")

    @property
    def label(self) -> str:
        """Human-readable form used by ``EngineConfig``."""
        return f"on(W={self.cadence})" if self.enabled else "off"


def collapse_rows(
    S: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """One duplicate scan over a ``(n, w)`` state matrix.

    Returns ``(compressed, recon)`` where ``compressed`` is ``(n, u)``
    with ``u`` the widest row's distinct-state count and
    ``recon[r, j]`` the compressed column holding row ``r``'s lane ``j``
    (``S[r, j] == compressed[r, recon[r, j]]``). Rows narrower than ``u``
    are padded with their own first representative, so padding lanes
    always hold valid states (they merely duplicate work). Returns None
    when no row has a duplicate (``u == w``) — the caller backs off.
    """
    n, w = S.shape
    if w <= 1:
        return None
    order = np.argsort(S, axis=1, kind="stable")
    sorted_S = np.take_along_axis(S, order, axis=1)
    boundary = np.ones((n, w), dtype=bool)
    boundary[:, 1:] = sorted_S[:, 1:] != sorted_S[:, :-1]
    group = np.cumsum(boundary, axis=1) - 1  # (n, w) compressed column ids
    u = int(group[:, -1].max()) + 1
    if u >= w:
        return None
    rows = np.arange(n)[:, None]
    compressed = np.repeat(sorted_S[:, :1], u, axis=1)
    compressed[rows, group] = sorted_S  # duplicate writes carry equal values
    recon = np.empty((n, w), dtype=np.intp)
    np.put_along_axis(recon, order, group, axis=1)
    return compressed, recon


#: A scan must shrink physical storage by at least this factor to count
#: as progress; smaller improvements trigger the cadence back-off (the
#: rebuild would cost more than it saves).
_SCAN_GAIN = 0.97


class LaneCollapser:
    """Collapse state threaded through one chunk-advancement loop.

    Call :meth:`step` after every symbol (or multi-symbol) advancement
    with the current state matrix; it returns the (possibly smaller)
    storage matrix to continue with. Call :meth:`expand` on the final
    matrix to recover the full ``(n, k)`` ending-state layout.

    Storage layout — *width + spill rows*, so one straggler chunk cannot
    hold the whole matrix at full width (convergence is typically heavily
    skewed: 255 of 256 HTML chunks sit at 3 distinct lanes while one
    keeps all 8 alive for thousands of symbols):

    * the matrix is ``(n + s, w)`` where ``w`` is the storage width that
      minimizes total elements ``(n + spill_rows(w)) * w``;
    * row ``r < n`` holds chunk ``r``'s first ``min(u_r, w)`` distinct
      lanes (padded with its first representative);
    * a chunk with ``u_r > w`` distinct lanes *spills* its overflow into
      ``ceil((u_r - w) / w)`` extra rows appended below — each mapped
      back to its chunk through :attr:`rowmap`, which advancement loops
      apply to the per-step symbol vector (``syms[collapser.rowmap]``).

    Spill rows ride in the same gather as everyone else — no extra
    dispatch — and :meth:`expand` recovers every original lane through a
    flat reconstruction index. :attr:`fully_converged` reports the
    single-lane, zero-spill fast path.

    The hot-loop contract avoids a Python call per step: the loop keeps a
    running count of consumed symbols and calls :meth:`scan` only when it
    reaches :attr:`next_scan` (``inf`` once fully converged, so converged
    runs pay a single integer compare per step)::

        consumed = 0
        for ...:
            S = table[syms[:, None], S]
            consumed += m
            if consumed >= collapser.next_scan:
                S = collapser.scan(S, consumed)

    Counters (read after the loop):

    * ``scans`` — duplicate scans performed;
    * ``lanes_collapsed`` — storage lane slots eliminated, summed over
      scans as ``elements_before - elements_after``.
    """

    def __init__(self, k: int, config: CollapseConfig) -> None:
        self.k = int(k)
        self.config = config
        self._recon: np.ndarray | None = None  # (n, k) flat into storage
        self.rowmap: np.ndarray | None = None  # (n + s,) chunk of each row
        self._cadence = int(config.cadence)
        self.next_scan: float = float(self._cadence)
        self.scans = 0
        self.lanes_collapsed = 0
        self.width = int(k)
        self.spill_rows = 0

    @property
    def fully_converged(self) -> bool:
        """True once every chunk advanced at a single distinct lane."""
        return self.width == 1 and self.spill_rows == 0

    def scan(self, S: np.ndarray, consumed: int) -> np.ndarray:
        """Scan for duplicate lanes and repack; called at :attr:`next_scan`.

        ``consumed`` is the loop's running count of input symbols
        advanced so far — the scan schedule is kept in absolute symbol
        counts so multi-symbol stride kernels stay calibrated.
        """
        self.scans += 1
        full = self.expand(S)
        packed = _pack_lanes(full)
        if packed is None:
            self._cadence *= self.config.backoff
            self.next_scan = consumed + self._cadence
            return S
        storage, rowmap, recon = packed
        if storage.size >= S.size * _SCAN_GAIN:
            # Not enough shrink to pay for the rebuild — keep the current
            # layout and scan less often.
            self._cadence *= self.config.backoff
            self.next_scan = consumed + self._cadence
            return S
        self.lanes_collapsed += S.size - storage.size
        n = full.shape[0]
        self.width = storage.shape[1]
        self.spill_rows = storage.shape[0] - n
        self._recon = recon
        self.rowmap = rowmap if storage.shape[0] > n else None
        self.next_scan = (
            float("inf") if self.fully_converged else consumed + self._cadence
        )
        return storage

    def expand(self, S: np.ndarray) -> np.ndarray:
        """Recover the full ``(n, k)`` matrix from the storage matrix."""
        if self._recon is None:
            return S
        return S.ravel()[self._recon]


def _pack_lanes(
    S: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Pack a full ``(n, k)`` matrix into width-plus-spill storage.

    Returns ``(storage, rowmap, recon)`` — the ``(n + s, w)`` storage
    matrix at the element-count-optimal width ``w``, the chunk index of
    every storage row, and the ``(n, k)`` flat reconstruction index with
    ``S[r, j] == storage.ravel()[recon[r, j]]`` — or None when no row
    has a duplicate lane (nothing to pack).
    """
    n, k = S.shape
    if k <= 1:
        return None
    order = np.argsort(S, axis=1, kind="stable")
    sorted_S = np.take_along_axis(S, order, axis=1)
    boundary = np.ones((n, k), dtype=bool)
    boundary[:, 1:] = sorted_S[:, 1:] != sorted_S[:, :-1]
    group = np.cumsum(boundary, axis=1) - 1  # (n, k) distinct-lane ids
    u_r = group[:, -1] + 1  # distinct lanes per row
    if int(u_r.max()) >= k:
        return None
    # Storage width minimizing total elements (n + spill_rows(w)) * w;
    # a spill row carries up to w overflow lanes of one chunk.
    best_w, best_cost = k, n * k
    for w in range(1, int(u_r.max()) + 1):
        spill = int(((np.maximum(u_r - w, 0) + w - 1) // w).sum())
        cost = (n + spill) * w
        if cost < best_cost:
            best_w, best_cost = w, cost
    w = best_w
    spill_per = (np.maximum(u_r - w, 0) + w - 1) // w
    s = int(spill_per.sum())
    spill_base = np.cumsum(spill_per) - spill_per  # exclusive prefix
    rowmap = np.concatenate(
        [np.arange(n, dtype=np.intp), np.repeat(np.arange(n, dtype=np.intp), spill_per)]
    )
    # Every storage row starts padded with its chunk's first representative
    # (padding lanes duplicate work but always hold valid states).
    storage = np.ascontiguousarray(sorted_S[rowmap, 0:1]).repeat(w, axis=1)
    # Scatter each distinct lane's representative to its storage slot.
    rows = np.repeat(np.arange(n), k)[boundary.ravel()]
    g = group.ravel()[boundary.ravel()]
    main = g < w
    srow = np.where(main, rows, n + spill_base[rows] + (g - w) // w)
    scol = np.where(main, g, (g - w) % w)
    storage[srow, scol] = sorted_S.ravel()[boundary.ravel()]
    # Reconstruction: original lane j of row r lives where its group went.
    g_lane = np.empty((n, k), dtype=np.int64)
    np.put_along_axis(g_lane, order, group, axis=1)
    lane_main = g_lane < w
    rr = np.arange(n, dtype=np.int64)[:, None]
    lrow = np.where(lane_main, rr, n + spill_base[rr] + (g_lane - w) // w)
    lcol = np.where(lane_main, g_lane, (g_lane - w) % w)
    recon = lrow * w + lcol
    return storage, rowmap, recon


def coverage_mask(M: np.ndarray, spec: np.ndarray, num_states: int) -> np.ndarray:
    """Which chunks' speculation rows cover their look-back image.

    ``M`` is the look-back propagation matrix (``M[c, q]`` = boundary
    state reached from pre-window state ``q``); ``spec`` the chosen
    ``(n, k)`` speculation rows. ``covered[c]`` is True when every state
    in ``M[c]``'s image appears in ``spec[c]`` — the true boundary state
    is then *guaranteed* to be speculated, because any run arriving at
    the boundary through the actual input traverses the window.
    """
    n = M.shape[0]
    rows = np.repeat(np.arange(n), M.shape[1])
    image = np.zeros((n, num_states), dtype=bool)
    image[rows, M.ravel()] = True
    spec_mask = np.zeros((n, num_states), dtype=bool)
    spec_mask[np.repeat(np.arange(n), spec.shape[1]), spec.ravel()] = True
    return ~(image & ~spec_mask).any(axis=1)


def converged_chunks(
    end: np.ndarray,
    covered: np.ndarray | None,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """Per-chunk convergence flags for the merge short-circuit.

    A chunk is *converged* when its speculation row covers the look-back
    image (``covered``), every entry is valid, and all ``k`` ending
    states coincide — its map is then a total constant over achievable
    incoming states and the merges may skip the semi-join against it.
    """
    constant = (end == end[:, :1]).all(axis=1)
    if valid is not None:
        constant &= valid.all(axis=1)
    if covered is None:
        return np.zeros(end.shape[0], dtype=bool)
    return covered & constant


#: Longest horizon the cadence probe simulates before declaring the
#: machine non-converging (a scan cadence beyond this cannot pay off).
_PROBE_HORIZON = 512

#: Forward steps used to concentrate the all-states front into the hot
#: set the probe lanes start from (mirrors look-back speculation).
_PROBE_WARMUP = 8


def probe_cadence(
    dfa: DFA,
    inputs: np.ndarray,
    *,
    k: int,
    horizon: int = _PROBE_HORIZON,
) -> int | None:
    """Choose a scan cadence from a cheap lane-convergence probe.

    Simulates exactly what the collapser will see: ``k`` lanes seeded
    from the machine's hot states (the survivors of a short all-states
    warm-up over a mid-input sample, the same concentration look-back
    speculation exploits) are stepped forward, and the cadence is the
    step at which the lane set *first shrinks*. Partial convergence
    counts — an 8-lane matrix that drops to 4 persistent survivors
    (the HTML tokenizer's raw-text modes) halves the gather volume even
    though it never reaches a single lane, so the probe must not wait
    for full convergence. Returns None (collapse not worth enabling)
    when the lanes never shrink within ``horizon`` steps, e.g. the Div7
    permutation machine. Probe cost is one ``O(warmup)`` all-states pass
    plus ``O(horizon)`` gathers of ``k`` elements — preprocessing on the
    scale of the look-back tables, not counted execution work.
    """
    inputs = np.asarray(inputs)
    if inputs.size == 0 or k <= 1:
        return None
    # Probe away from the input start: position-0 prefixes can be
    # unrepresentative (file headers); chunk boundaries live mid-stream.
    lo = min(inputs.size // 2, max(0, inputs.size - (horizon + _PROBE_WARMUP)))
    sample = inputs[lo:]
    table = dfa.table
    front = np.arange(dfa.num_states, dtype=np.int32)
    for a in sample[:_PROBE_WARMUP]:
        front = table[a, front]
    hot = np.unique(front)
    lanes = np.resize(hot, max(1, min(k, dfa.num_states))).astype(np.int32)
    width = np.unique(lanes).size
    if width <= 1:
        return _MIN_CADENCE
    for i, a in enumerate(sample[_PROBE_WARMUP : _PROBE_WARMUP + horizon]):
        lanes = table[a, lanes]
        # Lane sets only shrink, so checking every 4th step loses at most
        # 3 steps of cadence precision and quarters the probe cost.
        if (i & 3) == 3 and len(set(lanes.tolist())) < width:
            return int(min(max(i + 1, _MIN_CADENCE), _MAX_CADENCE))
    return None


def resolve_collapse(
    mode: "str | CollapseConfig | None",
    dfa: DFA,
    inputs: np.ndarray,
    *,
    k: int,
) -> CollapseConfig | None:
    """Resolve the engine-level ``collapse`` argument.

    ``"off"``/None disable the layer; ``"on"`` enables it at the default
    cadence; ``"auto"`` probes the machine first and disables collapse
    when the probe finds no convergence horizon (the scans would be pure
    overhead — the merges still exploit any convergence that happens).
    An explicit :class:`CollapseConfig` passes through unchanged.
    """
    if mode is None:
        return None
    if isinstance(mode, CollapseConfig):
        return mode if mode.enabled else None
    if mode == "off":
        return None
    if mode == "on":
        return CollapseConfig()
    if mode == "auto":
        if k <= 1:
            return None
        cadence = probe_cadence(dfa, inputs, k=k)
        if cadence is None:
            return None
        return CollapseConfig(cadence=cadence)
    raise ValueError(
        f"collapse must be 'auto', 'on', 'off', or a CollapseConfig, got {mode!r}"
    )


def resolve_group_collapse(
    mode: "str | CollapseConfig | None",
    dfas,
    inputs: np.ndarray,
    *,
    widths,
) -> tuple[CollapseConfig | None, tuple]:
    """Resolve ``collapse`` for a pattern group stepping in one union pass.

    Returns ``(config, cadences)``. ``"auto"`` probes each pattern's own
    machine at its own lane width (``cadences[p]``; None when pattern
    ``p`` never shrinks or has a single lane). Probing the block-diagonal
    union instead cannot work: its warm-up already converges every block,
    and lanes of different blocks never merge, so that probe sees nothing
    shrink. The group's collapse fires only once every pattern's lanes
    agree, so it is enabled only when every multi-lane pattern has a
    cadence, at the largest of them. Other modes resolve as in
    :func:`resolve_collapse` and report no cadences.
    """
    if not (isinstance(mode, str) and mode == "auto"):
        return resolve_collapse(mode, None, inputs, k=int(sum(widths))), ()
    cadences = tuple(
        probe_cadence(d, inputs, k=w) if w > 1 else None
        for d, w in zip(dfas, widths)
    )
    probed = [c for c, w in zip(cadences, widths) if w > 1]
    if not probed or any(c is None for c in probed):
        return None, cadences
    return CollapseConfig(cadence=max(probed)), cadences

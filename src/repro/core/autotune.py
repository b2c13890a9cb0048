"""Cost-model-driven selection of the speculation width k.

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

The other automatic choices are rules, not probes: the stepping kernel
comes from :func:`repro.core.kernels.plan_kernel`'s cost model, the lane
collapse cadence from :func:`repro.core.convergence.probe_cadence`, the
multi-pattern route from the backend (batched on the native one) and
:func:`repro.core.multipattern._select_route`'s product-size check, and
the backend from whether
:func:`repro.core.native.load_native_plan` returns a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import run_speculative
from repro.fsm.dfa import DFA
from repro.gpu.cost import CostModel
from repro.gpu.device import TESLA_V100, DeviceSpec, Grid

__all__ = ["KChoice", "candidate_ks", "choose_k"]


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
    grid = Grid(
        num_blocks=num_blocks, threads_per_block=threads_per_block, device=device
    )
    per_k: dict = {}
    best: tuple[int | None, float] = (1, -1.0)
    for k in candidates:
        result = run_speculative(
            dfa, probe, k=k, merge=merge, lookback=lookback, grid=grid,
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

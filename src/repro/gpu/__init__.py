"""GPU execution/cost model — the stand-in for the paper's Tesla V100.

No GPU (or CUDA toolchain) is available in this reproduction, so the
algorithms run functionally in NumPy while this subpackage prices the
counted work in modeled device time:

* :mod:`repro.gpu.device` — device descriptions (Table 2's V100 and
  others), warp/block/grid geometry, persistent-thread residency, and
  :class:`Grid`, the ``grid=`` value that runs
  :func:`repro.core.engine.run_speculative` on the modeled launch.
* :mod:`repro.gpu.memory` — latency/bandwidth model for global (coalesced
  and not), L2, shared memory, and warp shuffles.
* :mod:`repro.gpu.occupancy` — registers/shared-memory occupancy, including
  the register-spill penalty that makes spec-N slow for large FSMs.
* :mod:`repro.gpu.cost` — prices an :class:`repro.core.types.ExecStats`
  into a wall-time breakdown (local / merge / re-execution / fix-up) and a
  speedup versus the modeled single-core CPU baseline.
* :mod:`repro.gpu.calibration` — the handful of latency constants, tuned
  once against the paper's headline magnitudes and then frozen.
"""

from repro.gpu.coalescing import TransactionCount, count_input_transactions
from repro.gpu.cost import CostModel, TimeBreakdown, price_at_scale
from repro.gpu.device import (
    GTX_1080TI,
    TESLA_V100,
    DeviceSpec,
    Grid,
    launch_geometry,
)
from repro.gpu.memory import MemoryModel
from repro.gpu.occupancy import occupancy_report, spill_factor
from repro.gpu.simulate import SimCounters, simulate_hierarchical_merge

__all__ = [
    "CostModel",
    "DeviceSpec",
    "GTX_1080TI",
    "Grid",
    "MemoryModel",
    "SimCounters",
    "TESLA_V100",
    "TimeBreakdown",
    "TransactionCount",
    "count_input_transactions",
    "launch_geometry",
    "occupancy_report",
    "price_at_scale",
    "simulate_hierarchical_merge",
    "spill_factor",
]

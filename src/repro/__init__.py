"""repro — Speculative execution of FSMs with parallel merge (PPoPP'20).

A from-scratch Python reproduction of Xia, Jiang & Agrawal, *Scaling Out
Speculative Execution of Finite-State Machines with Parallel Merge*
(PPoPP 2020). The package provides:

* a DFA/NFA/regex substrate (:mod:`repro.fsm`, :mod:`repro.regex`);
* the paper's applications — Huffman decoding, regex matching, HTML
  tokenization, Div7 (:mod:`repro.apps`) — with workload generators
  (:mod:`repro.workloads`);
* the spec-k speculative engine with sequential and parallel merge
  (:mod:`repro.core`), the central entry point being
  :func:`repro.run_speculative`;
* a V100-shaped cost model that prices the counted execution events into
  modeled GPU time (:mod:`repro.gpu`; pass ``grid=repro.gpu.Grid(...)`` to
  :func:`repro.run_speculative` to run the paper's modeled launch), plus
  the hot-state transition-table cache (:mod:`repro.cache`);
* the per-figure experiment harness (:mod:`repro.bench`);
* unified observability — per-stage wall-clock tracing, speculation
  metrics, JSON/Chrome-trace export (:mod:`repro.obs`; see
  ``python -m repro.bench --profile``).

Quick start::

    import repro
    from repro.apps import div7_dfa
    from repro.gpu import Grid
    from repro.workloads import random_bits

    dfa = div7_dfa()
    bits = random_bits(1_000_000, rng=0)
    result = repro.run_speculative(dfa, bits, k=None, grid=Grid(num_blocks=20))
    assert result.final_state == dfa.run(bits)
    print(result.timing.speedup)
"""

from repro.core.engine import (
    BatchExecutionResult,
    EngineConfig,
    SpecExecutionResult,
    run_speculative,
    run_speculative_batch,
)
from repro.core.multipattern import (
    MachineStack,
    MultiPatternResult,
    PatternResult,
    run_multipattern,
    run_multipattern_batch,
    stack_machines,
)
from repro.core.types import ExecStats
from repro.fsm.dfa import DFA
from repro.gpu.cost import CostModel, TimeBreakdown
from repro.gpu.device import DeviceSpec, TESLA_V100
from repro.obs.trace import RunTrace, trace_span

__version__ = "1.1.0"

__all__ = [
    "BatchExecutionResult",
    "CostModel",
    "DFA",
    "DeviceSpec",
    "EngineConfig",
    "ExecStats",
    "MachineStack",
    "MultiPatternResult",
    "PatternResult",
    "RunTrace",
    "SpecExecutionResult",
    "TESLA_V100",
    "TimeBreakdown",
    "__version__",
    "run_multipattern",
    "run_multipattern_batch",
    "run_speculative",
    "run_speculative_batch",
    "stack_machines",
    "trace_span",
]

"""The paper's contribution: speculative FSM execution with parallel merge.

Pipeline (one call to :func:`repro.core.engine.run_speculative`):

1. resolve the execution plan (:mod:`repro.core.plan`) and partition
   the input (:mod:`repro.workloads.chunking`): one chunk per simulated
   GPU thread on the GPU plan, at most 64 input-sized chunks on the CPU
   plan that calls with default arguments get;
2. speculate ``k`` starting states per chunk by look-back
   (:mod:`repro.core.lookback`);
3. process all chunks in lock-step, vectorized across threads and
   speculated states (:mod:`repro.core.local`), or — when the kernel layer
   (:mod:`repro.core.kernels`) selects a stride kernel — ``m`` symbols per
   gather over alphabet-compacted, precomposed tables;
4. merge the per-chunk ``speculated -> ending`` maps — sequentially
   (:mod:`repro.core.merge_seq`, the baseline whose cost grows linearly in
   thread count) or with the paper's hierarchical parallel merge
   (:mod:`repro.core.merge_par`), using nested-loop or hash runtime checks
   (:mod:`repro.core.checks`) and eager or delayed re-execution;
5. recover outputs (final state, match counts/positions, decoded symbols).

``backend="native"`` (:mod:`repro.core.native`) runs steps 3-4's hot loops
through C specialized per machine and compiled at first use, with a
fingerprint-keyed JIT cache for warm restarts; the NumPy path remains the
bit-exact fallback whenever no C compiler is available.

Every step increments :class:`repro.core.types.ExecStats` counters that the
GPU cost model (:mod:`repro.gpu.cost`) prices into modeled V100 time.
"""

from repro.core.autotune import KChoice, choose_k
from repro.core.engine import (
    BatchExecutionResult,
    EngineConfig,
    SpecExecutionResult,
    run_inprocess_fallback,
    run_speculative,
    run_speculative_batch,
)
from repro.core.faultinject import (
    FaultPlan,
    FaultSpec,
    chaos_plan_from_env,
    corrupt_result_map,
    delay_task,
    kill_worker,
    shm_unlink_race,
)
from repro.core.kernels import (
    KERNELS,
    KernelPlan,
    KernelSpec,
    StrideTables,
    build_stride_tables,
    plan_kernel,
    select_kernel,
)
from repro.core.mp_executor import (
    MultiprocessResult,
    PoolRunTiming,
    ScaleoutPool,
    WorkerTiming,
)
from repro.core.native import (
    NativeKernel,
    load_native_plan,
    native_available,
)
from repro.core.predictor import HistoryPredictor, dfa_fingerprint
from repro.core.resilience import (
    DEFAULT_RESILIENCE,
    DeadlineModel,
    DegradedExecution,
    PoolClosedError,
    ResilienceConfig,
    RetryPolicy,
    SupervisionReport,
)
from repro.core.streaming import FeedCursor, StreamingExecutor
from repro.core.types import ChunkResults, ExecStats, SegmentMaps

__all__ = [
    "BatchExecutionResult",
    "ChunkResults",
    "DEFAULT_RESILIENCE",
    "DeadlineModel",
    "DegradedExecution",
    "EngineConfig",
    "ExecStats",
    "FaultPlan",
    "FaultSpec",
    "FeedCursor",
    "HistoryPredictor",
    "KChoice",
    "KERNELS",
    "KernelPlan",
    "KernelSpec",
    "MultiprocessResult",
    "NativeKernel",
    "PoolClosedError",
    "PoolRunTiming",
    "ResilienceConfig",
    "RetryPolicy",
    "ScaleoutPool",
    "SegmentMaps",
    "SpecExecutionResult",
    "StreamingExecutor",
    "StrideTables",
    "SupervisionReport",
    "WorkerTiming",
    "build_stride_tables",
    "chaos_plan_from_env",
    "choose_k",
    "corrupt_result_map",
    "delay_task",
    "dfa_fingerprint",
    "kill_worker",
    "load_native_plan",
    "native_available",
    "plan_kernel",
    "run_inprocess_fallback",
    "run_speculative",
    "run_speculative_batch",
    "select_kernel",
    "shm_unlink_race",
]

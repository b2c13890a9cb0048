"""Async multi-tenant serving layer with continuous chunk-level batching.

``repro.serve`` turns the batch engine into a service: tenants register
their DFA once (machines are shared by fingerprint — the one-lane native
kernel is built once per distinct DFA), then submit match jobs
concurrently. A single round loop continuously coalesces in-flight
requests that share a DFA into one batch
(:func:`repro.core.engine.run_speculative_batch`: one pass per request
from its carried state, compiled or on the reference loop), with per-tenant
weighted-fair queueing, bounded-depth admission control (explicit shed
responses), and deadline-aware EDF priority. See ``docs/SERVING.md`` for the architecture and
``python -m repro.serve --demo`` for a runnable walkthrough.
"""

from repro.serve.batcher import RoundPlan, carve_round
from repro.serve.client import (
    ServeClient,
    ServeTimeoutError,
    WorkloadRequest,
    zipf_workload,
)
from repro.serve.scheduler import (
    QueuedRequest,
    TenantQueue,
    WeightedFairScheduler,
)
from repro.serve.server import FSMServer, ServeConfig, ServeResponse, Tenant

__all__ = [
    "FSMServer",
    "QueuedRequest",
    "RoundPlan",
    "ServeClient",
    "ServeConfig",
    "ServeResponse",
    "ServeTimeoutError",
    "Tenant",
    "TenantQueue",
    "WeightedFairScheduler",
    "WorkloadRequest",
    "carve_round",
    "zipf_workload",
]

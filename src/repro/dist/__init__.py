"""Cross-host scale-out: shard, run per-host pools, tree-merge the maps.

The paper's title promise — *scaling out* speculative FSM execution —
generalizes past one machine because the merge is an associative
semi-join composition (:func:`repro.core.merge_par.compose_maps`): each
host returns its shard's ``speculated -> ending`` map and the merge
topology (worker tree inside a host, host tree across the cluster) is
invisible to the result. This package adds the cross-host level:

* :mod:`repro.dist.transport` — a length-prefixed JSON+binary TCP frame
  protocol reusing the pool's publish-once/dispatch-names discipline
  (tables ship once per coordinator lifetime, dispatches ship names and
  a ``k``-entry boundary row);
* :mod:`repro.dist.agent` — :class:`HostAgent`, one per host, embedding
  the existing :class:`repro.core.mp_executor.ScaleoutPool` (native
  backend included) behind the wire protocol, plus
  :class:`LocalCluster` for N-agent localhost topologies;
* :mod:`repro.dist.coordinator` — :class:`ShardCoordinator`, which
  shards the input across hosts, supervises them with heartbeats and
  EWMA per-shard deadlines (host-level reuse of PR 4's
  :class:`repro.core.resilience.DeadlineModel` / ``RetryPolicy``),
  hedges late shards to spare hosts, and walks a quorum-gated degrade
  ladder (dead host -> re-shard to survivors -> local pool ->
  in-process engine, flagged ``degraded=True``);
* :mod:`repro.dist.netfaults` — deterministic network failure drills
  (drop/delay/duplicate/truncate/partition/crash) with the same
  exactly-once discipline as :mod:`repro.core.faultinject`, armed in CI
  via ``REPRO_CHAOS``.

Everything is observable under ``dist.*`` spans and counters on the
ambient :mod:`repro.obs` trace; see ``docs/DISTRIBUTED.md``.
"""

from repro.dist.agent import HostAgent, LocalCluster
from repro.dist.coordinator import (
    DistConfig,
    DistResult,
    ShardCoordinator,
    run_distributed,
)
from repro.dist.netfaults import (
    NetFaultPlan,
    NetFaultSpec,
    chaos_net_plan_from_env,
    crash_host,
    delay_message,
    drop_message,
    duplicate_message,
    partition_host,
    truncate_frame,
)
from repro.dist.transport import Channel, TransportClosed, TransportError

__all__ = [
    "Channel",
    "DistConfig",
    "DistResult",
    "HostAgent",
    "LocalCluster",
    "NetFaultPlan",
    "NetFaultSpec",
    "ShardCoordinator",
    "TransportClosed",
    "TransportError",
    "chaos_net_plan_from_env",
    "crash_host",
    "delay_message",
    "drop_message",
    "duplicate_message",
    "partition_host",
    "run_distributed",
    "truncate_frame",
]

"""Shard coordinator: cross-host scale-out with hierarchical merge.

:class:`ShardCoordinator` makes the paper's "scaling out" title literal:
the input is sharded across N hosts, each host's
:class:`~repro.dist.agent.HostAgent` runs the existing per-machine
:class:`~repro.core.mp_executor.ScaleoutPool` over its shard and streams
back the shard's ``speculated -> ending`` map, and the coordinator
composes the host-level maps with the *same* binary tree merge
(:func:`repro.core.merge_par.merge_parallel` — delayed invalidation
plus fix-up descent) the pool applies to its workers and the simulated
GPU applies to its blocks. The merge is associative semi-join
composition, so the three-level hierarchy (chunk -> worker -> host) is
invisible to the result: bit-exact against the sequential reference.

Host supervision generalizes PR 4's worker supervision one level up,
reusing its policy objects verbatim:

* **heartbeats** — agents answer pings from their connection reader even
  while a shard computes, so the coordinator can tell slow from dead;
* **EWMA per-shard deadlines** — :class:`repro.core.resilience.DeadlineModel`
  over each host's measured bytes/sec;
* **hedged re-dispatch** — a shard past its deadline is speculatively
  re-dispatched to the least-loaded live spare; first result wins,
  stale and duplicate results are dropped by dispatch sequence number;
* **bounded retry with seeded backoff** — :class:`repro.core.resilience.RetryPolicy`
  with a deterministic jitter RNG;
* **quorum-gated degrade ladder** — a dead host's shards are re-sharded
  to survivors; below quorum (or past the run's wall-clock guard, or
  out of retries) the run degrades to a local
  :class:`~repro.core.mp_executor.ScaleoutPool` and finally to the
  in-process engine, always exact, flagged ``degraded=True``.

Network failure drills come from :mod:`repro.dist.netfaults`; every
decision is visible under ``dist.*`` spans and counters.
"""

from __future__ import annotations

import math
import queue
import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import run_inprocess_fallback
from repro.core.lookback import speculate, state_prior
from repro.core.merge_par import merge_parallel
from repro.core.mp_executor import ScaleoutPool
from repro.core.predictor import dfa_fingerprint
from repro.core.resilience import (
    DeadlineModel,
    RecoveryEvent,
    RetryPolicy,
    SupervisionReport,
)
from repro.core.types import ChunkResults, ExecStats
from repro.dist import transport
from repro.dist.netfaults import NetFaultPlan, chaos_net_plan_from_env
from repro.dist.transport import TransportError, TransportTimeout
from repro.fsm.dfa import DFA
from repro.obs.trace import add_count, observe, trace_span
from repro.workloads.chunking import plan_chunks

__all__ = ["DistConfig", "DistResult", "ShardCoordinator", "run_distributed"]


@dataclass(frozen=True)
class DistConfig:
    """Everything the coordinator needs to shard, supervise, and degrade.

    ``k`` is the speculation width of the *host boundary* rows (and of
    every host's pool — the lane count must agree across the hierarchy);
    ``None`` is spec-N: exact maps, zero cross-host re-execution, the
    right default for modest machines. ``shards_per_host`` > 1 carves
    more shards than hosts so recovery moves smaller pieces.
    ``local_fallback_workers`` >= 2 inserts the degrade-to-local-pool
    rung before the in-process engine. ``run_timeout_s`` is the
    never-hang guard: a run that cannot finish over the network inside
    it degrades instead. ``seed`` makes retry backoff jitter
    reproducible.

    ``reuse_staged_inputs`` keeps the last staged input generation on
    the agents, so re-running the *same array object* over the same
    shard plan ships only boundary rows (the host got its shard once).
    Staging is keyed on array identity: disable this if a caller
    mutates the input array in place between runs.
    """

    k: int | None = None
    sub_chunks_per_worker: int = 16
    lookback: int = 8
    kernel: str = "auto"
    shards_per_host: int = 1
    heartbeat_interval_s: float = 0.5
    heartbeat_timeout_s: float = 3.0
    connect_timeout_s: float = 5.0
    poll_interval_s: float = 0.02
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    deadline: DeadlineModel = field(
        default_factory=lambda: DeadlineModel(
            floor_s=2.0, bytes_per_sec_floor=1e6, safety_factor=8.0
        )
    )
    quorum_fraction: float = 0.5
    hedge: bool = True
    local_fallback_workers: int = 0
    run_timeout_s: float = 60.0
    seed: int = 0
    reuse_staged_inputs: bool = True


@dataclass
class DistResult:
    """One distributed run's outcome.

    ``degraded`` is True only when the degrade ladder left the network
    (local pool or in-process engine); ``ladder`` names the rung that
    produced the result (``""`` — fully distributed, ``"reshard"`` —
    distributed after re-sharding around failures, ``"local_pool"``,
    ``"inprocess"``). ``report`` is the host-level supervision log, the
    same shape workers produce.
    """

    final_state: int
    num_hosts: int
    num_shards: int
    stats: ExecStats
    degraded: bool = False
    ladder: str = ""
    report: SupervisionReport | None = None
    reexec_shards: tuple[int, ...] = ()

    @property
    def recovery_events(self) -> list[RecoveryEvent]:
        """The supervision action log (empty on a fault-free run)."""
        return [] if self.report is None else self.report.events


class _Host:
    """Coordinator-side state of one agent link."""

    def __init__(self, idx: int, address: tuple[str, int]) -> None:
        self.idx = idx
        self.address = address
        self.channel: transport.Channel | None = None
        self.reader: threading.Thread | None = None
        self.alive = False
        self.last_seen = 0.0
        self.bps: float | None = None
        self.inflight = 0


class _Shard:
    """Coordinator-side state of one shard of one run."""

    def __init__(self, sid: int, lo: int, hi: int, boundary: np.ndarray) -> None:
        self.sid = sid
        self.lo = lo
        self.hi = hi
        self.boundary = boundary
        self.end_row: np.ndarray | None = None
        self.attempts = 0
        self.hedged = False
        self.host: int = -1
        self.deadline_ts = 0.0
        self.dispatch_ts = 0.0
        self.valid_seqs: set[int] = set()
        self.retry_ready_ts: float | None = None

    @property
    def resolved(self) -> bool:
        return self.end_row is not None

    @property
    def nbytes(self) -> int:
        return (self.hi - self.lo) * 4


class ShardCoordinator:
    """Shard input across hosts, supervise them, tree-merge their maps.

    Construction connects to every address, performs the ``hello``
    handshake, and publishes the machine (table + accepting mask + run
    parameters) **once** — every later :meth:`run` ships only shard
    data, boundary rows, and ids. Hosts that die stay dead for this
    coordinator's lifetime (callers needing fresh topology build a new
    coordinator); as long as one host lives the runs stay distributed,
    and below that every run still completes exactly via the degrade
    ladder.

    Close the coordinator when done — it owns sockets, reader threads,
    and (after a local-pool degrade) pool resources. The agents and
    their lifetimes belong to the caller.
    """

    def __init__(
        self,
        dfa: DFA,
        addresses: list[tuple[str, int]],
        *,
        config: DistConfig | None = None,
        net_faults: NetFaultPlan | None = None,
    ) -> None:
        if not addresses:
            raise ValueError("at least one host address is required")
        self.dfa = dfa
        self.config = config if config is not None else DistConfig()
        if net_faults is None:
            net_faults = chaos_net_plan_from_env(len(addresses))
        self.net_faults = (
            net_faults if net_faults is not None else NetFaultPlan()
        )
        self._prior = state_prior(dfa)
        self._rng = random.Random(self.config.seed)
        self._fingerprint = dfa_fingerprint(dfa)
        k = self.config.k
        self.k_eff = (
            dfa.num_states
            if (k is None or k >= dfa.num_states)
            else int(k)
        )
        self._events: queue.Queue = queue.Queue()
        self._runs = 0
        self._seq = 0
        self._closed = False
        # Staged-input generation (see DistConfig.reuse_staged_inputs).
        self._staged: set[tuple[int, int]] = set()
        self._staged_ref: np.ndarray | None = None
        self._staged_spans: tuple[tuple[int, int], ...] | None = None
        self._staged_gen = -1
        self._local_pool: ScaleoutPool | None = None
        self.hosts = [
            _Host(i, tuple(addr)) for i, addr in enumerate(addresses)
        ]
        with trace_span("dist.connect", hosts=len(self.hosts)):
            for host in self.hosts:
                self._connect_host(host)
        add_count("dist.hosts", self.live_count)
        with trace_span("dist.publish", hosts=self.live_count):
            self._publish_machine()

    # ------------------------------------------------------------------ #
    # link management
    # ------------------------------------------------------------------ #

    def _connect_host(self, host: _Host) -> None:
        """Open one agent link and start its reader thread."""
        try:
            host.channel = transport.connect(
                host.address,
                timeout=self.config.connect_timeout_s,
                host=host.idx,
                faults=self.net_faults,
            )
            host.channel.send({"type": "hello"})
        except TransportError:
            host.alive = False
            return
        host.alive = True
        host.last_seen = time.monotonic()
        host.reader = threading.Thread(
            target=self._reader_loop,
            args=(host,),
            name=f"repro-dist-reader-{host.idx}",
            daemon=True,
        )
        host.reader.start()

    def _reader_loop(self, host: _Host) -> None:
        """Pump one host's messages into the event queue until EOF."""
        ch = host.channel
        while not self._closed and ch is not None and not ch.closed:
            try:
                header, arrays = ch.recv(timeout=0.2)
            except TransportTimeout:
                continue
            except TransportError:
                break
            self._events.put(("msg", host.idx, header, arrays))
        self._events.put(("closed", host.idx, None, None))

    def _mark_dead(
        self, host: _Host, report: SupervisionReport | None, reason: str
    ) -> None:
        """Transition one host to dead (idempotent) and log it."""
        if not host.alive:
            return
        host.alive = False
        if host.channel is not None:
            host.channel.close()
        add_count("dist.host_deaths")
        if report is not None:
            report.worker_deaths += 1
            report.record("host_death", worker=host.idx, detail=reason)

    @property
    def live_count(self) -> int:
        """Hosts currently believed alive."""
        return sum(1 for h in self.hosts if h.alive)

    def _live_hosts(self) -> list[_Host]:
        return [h for h in self.hosts if h.alive]

    def _send(
        self,
        host: _Host,
        header: dict,
        arrays: dict | None = None,
        report: SupervisionReport | None = None,
    ) -> bool:
        """Send on one link; a severed link marks the host dead."""
        if not host.alive or host.channel is None:
            return False
        try:
            return host.channel.send(header, arrays)
        except TransportError as exc:
            self._mark_dead(host, report, f"send failed: {exc}")
            return False

    def _publish_machine(self) -> None:
        """Ship the machine to every live host, once per coordinator."""
        cfg = self.config
        header = {
            "type": "publish_machine",
            "fingerprint": self._fingerprint,
            "start": int(self.dfa.start),
            "k": cfg.k,
            "sub_chunks": cfg.sub_chunks_per_worker,
            "lookback": cfg.lookback,
            "kernel": cfg.kernel,
        }
        arrays = {
            "table": self.dfa.table,
            "accepting": self.dfa.accepting,
        }
        nbytes = int(self.dfa.table.nbytes + self.dfa.accepting.nbytes)
        for host in self._live_hosts():
            if self._send(host, header, arrays):
                add_count("dist.publish_bytes", nbytes)
        # Handshake replies (hello_ok / machine_ok) drain through the
        # event queue during the first run's wait loop; nothing blocks.

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(
        self, inputs: np.ndarray, *, start: int | None = None
    ) -> DistResult:
        """Run the machine over ``inputs`` across the cluster.

        Bit-exact against :func:`repro.fsm.run.run_reference` under any
        combination of host deaths, partitions, duplicated or dropped
        messages, and slow links — failures resolve through re-dispatch,
        hedging, re-sharding, and finally the local degrade ladder.
        Never hangs: every network wait is bounded by deadlines,
        heartbeat timeouts, and the run's wall-clock guard.
        """
        if self._closed:
            raise RuntimeError("ShardCoordinator is closed")
        dfa = self.dfa
        start = dfa.start if start is None else int(start)
        if not 0 <= start < dfa.num_states:
            raise ValueError(
                f"start state {start} out of range [0, {dfa.num_states})"
            )
        inputs = np.ascontiguousarray(np.asarray(inputs, dtype=np.int32))
        if inputs.ndim != 1:
            raise ValueError(f"inputs must be 1-D, got shape {inputs.shape}")
        n = int(inputs.size)
        self._runs += 1
        stats = ExecStats(
            num_items=n, k=self.k_eff,
            num_states=dfa.num_states, num_inputs=dfa.num_inputs,
        )
        report = SupervisionReport()
        if n == 0:
            return DistResult(
                start, self.live_count, 0, stats, report=report
            )
        with trace_span(
            "dist.run", items=n, hosts=self.live_count, run=self._runs
        ):
            return self._run_supervised(inputs, start, stats, report)

    def _run_supervised(
        self,
        inputs: np.ndarray,
        start: int,
        stats: ExecStats,
        report: SupervisionReport,
    ) -> DistResult:
        dfa = self.dfa
        cfg = self.config
        n = int(inputs.size)
        t0 = time.monotonic()
        live = self._live_hosts()
        initial_hosts = len(self.hosts)
        quorum = max(1, math.ceil(cfg.quorum_fraction * initial_hosts))
        if not live:
            return self._degraded_result(
                inputs, start, stats, report, "no live hosts"
            )

        num_shards = max(
            1, min(len(live) * max(1, cfg.shards_per_host), n)
        )
        plan = plan_chunks(n, num_shards)
        stats.num_chunks = num_shards
        add_count("dist.shards", num_shards)
        run_dfa = dfa if start == dfa.start else dfa.with_start(start)

        # Shard-boundary speculation: look-back over the global input,
        # exactly the pool's segment-boundary logic one level up. Shard
        # 0 always carries the true start pinned.
        with trace_span("dist.speculate", shards=num_shards, k=self.k_eff):
            if cfg.k is not None and self.k_eff < dfa.num_states:
                boundary = speculate(
                    run_dfa, inputs, plan, self.k_eff,
                    lookback=cfg.lookback, prior=self._prior, stats=stats,
                )
                if not (boundary[0] == start).any():
                    boundary[0, 0] = start
            else:
                boundary = np.tile(
                    np.arange(dfa.num_states, dtype=np.int32),
                    (num_shards, 1),
                )

        rid = self._runs
        shards = [
            _Shard(
                sid,
                int(plan.starts[sid]),
                int(plan.starts[sid] + plan.lengths[sid]),
                boundary[sid],
            )
            for sid in range(num_shards)
        ]
        # Input staging is *generational*: agents keep shard bytes until
        # the coordinator stages a new generation, so re-running the same
        # (identical) input array ships only boundary rows over the wire
        # — the host received its shard once. Identity-keyed: a caller
        # that mutates the array in place must pass a fresh array (or
        # set ``reuse_staged_inputs=False``).
        spans = tuple((s.lo, s.hi) for s in shards)
        if not (
            cfg.reuse_staged_inputs
            and inputs is self._staged_ref
            and spans == self._staged_spans
        ):
            if self._staged:
                for host in self._live_hosts():
                    self._send(
                        host,
                        {"type": "drop_input", "run_id": self._staged_gen},
                        None,
                        report,
                    )
            self._staged = set()
            self._staged_ref = inputs
            self._staged_spans = spans
            self._staged_gen = rid
        staged = self._staged  # (host_idx, sid) with data
        gen = self._staged_gen

        # Stage each primary host's shards in one frame, then dispatch.
        with trace_span("dist.dispatch", shards=num_shards):
            for j, shard in enumerate(shards):
                host = live[j % len(live)]
                if (host.idx, shard.sid) in staged:
                    continue
                payload = {
                    f"shard_{shard.sid}": inputs[shard.lo:shard.hi]
                }
                if self._send(
                    host,
                    {
                        "type": "put_input",
                        "run_id": gen,
                        "shards": [[shard.sid, shard.hi - shard.lo]],
                    },
                    payload,
                    report,
                ):
                    staged.add((host.idx, shard.sid))
                    add_count("dist.publish_bytes", int(shard.nbytes))
            for j, shard in enumerate(shards):
                host = live[j % len(live)]
                self._dispatch(
                    rid, shard, host, inputs, staged, report, hedge=False
                )

        resharded = False
        last_ping = time.monotonic()
        # ------------------------------------------------------------- #
        # the supervision loop: PR 4's structure, hosts for workers
        # ------------------------------------------------------------- #
        with trace_span("dist.wait", shards=num_shards):
            while any(not s.resolved for s in shards):
                now = time.monotonic()
                if now - t0 > cfg.run_timeout_s:
                    return self._degraded_result(
                        inputs, start, stats, report,
                        f"run exceeded {cfg.run_timeout_s}s wall-clock guard",
                    )
                if self.live_count < quorum:
                    return self._degraded_result(
                        inputs, start, stats, report,
                        f"below quorum ({self.live_count}/{initial_hosts} "
                        f"hosts live, need {quorum})",
                    )

                # Heartbeats: ping live hosts; expire the silent ones.
                if now - last_ping >= cfg.heartbeat_interval_s:
                    last_ping = now
                    for host in self._live_hosts():
                        if self._send(
                            host, {"type": "ping", "t": now}, None, report
                        ):
                            add_count("dist.heartbeats")
                        if now - host.last_seen > cfg.heartbeat_timeout_s:
                            add_count("dist.heartbeat_timeouts")
                            self._mark_dead(
                                host, report,
                                f"no traffic for {cfg.heartbeat_timeout_s}s",
                            )
                            resharded |= self._reassign_shards(
                                rid, host, shards, inputs, staged, report
                            )

                # Deadline sweep: hedge first, then bounded retry.
                for shard in shards:
                    if shard.resolved:
                        continue
                    if (
                        shard.retry_ready_ts is not None
                        and now >= shard.retry_ready_ts
                    ):
                        shard.retry_ready_ts = None
                        target = self._pick_host(exclude=shard.host)
                        if target is None:
                            return self._degraded_result(
                                inputs, start, stats, report,
                                "no live host for retry",
                            )
                        self._dispatch(
                            rid, shard, target, inputs, staged, report,
                            hedge=False,
                        )
                        continue
                    if shard.retry_ready_ts is None and now > shard.deadline_ts:
                        self._on_deadline(
                            rid, shard, shards, inputs, staged, report, now
                        )
                        if shard.attempts > cfg.retry.max_retries:
                            return self._degraded_result(
                                inputs, start, stats, report,
                                f"shard {shard.sid} out of retries",
                            )

                # Drain the event queue (bounded block = the poll tick).
                try:
                    kind, idx, header, arrays = self._events.get(
                        timeout=cfg.poll_interval_s
                    )
                except queue.Empty:
                    continue
                host = self.hosts[idx]
                if kind == "closed":
                    self._mark_dead(host, report, "connection closed")
                    resharded |= self._reassign_shards(
                        rid, host, shards, inputs, staged, report
                    )
                    continue
                host.last_seen = time.monotonic()
                self._on_message(host, header, arrays, shards, report)

            # Late deliveries: a message that raced the final resolve (an
            # injected duplicate, a hedge's second copy, a close event)
            # must still be folded into host state and the counter trail.
            # Under an armed fault plan the drain grants one poll tick so
            # a duplicate the reader queued a moment ago lands
            # deterministically; the production path stays non-blocking.
            grace = (
                0.0 if self.net_faults.empty else cfg.poll_interval_s
            )
            while True:
                try:
                    kind, idx, header, arrays = self._events.get(
                        timeout=grace
                    )
                except queue.Empty:
                    break
                host = self.hosts[idx]
                if kind == "closed":
                    self._mark_dead(host, report, "connection closed")
                    continue
                host.last_seen = time.monotonic()
                self._on_message(host, header, arrays, shards, report)

        # ------------------------------------------------------------- #
        # hierarchical merge: the paper's tree, host maps for leaves
        # ------------------------------------------------------------- #
        with trace_span("dist.merge", shards=num_shards):
            end_rows = np.stack([s.end_row for s in shards])
            spec_rows = np.stack([s.boundary for s in shards])
            if num_shards == 1:
                lane = int(np.flatnonzero(spec_rows[0] == start)[0])
                final = int(end_rows[0][lane])
                reexec: tuple[int, ...] = ()
            else:
                results = ChunkResults(
                    spec=spec_rows,
                    end=end_rows,
                    valid=np.ones_like(spec_rows, dtype=bool),
                )
                final_state, tree = merge_parallel(
                    run_dfa, inputs, plan, results,
                    reexec="delayed", stats=stats,
                )
                final = int(final_state)
                reexec = tuple(tree.reexecuted)
                stats.success_total += num_shards - 1
                stats.success_hits += (num_shards - 1) - sum(
                    1 for c in reexec if c > 0
                )
            if reexec:
                add_count("dist.merge.reexecs", len(reexec))
            add_count("dist.merge.shard_maps", num_shards)
        observe("dist.run_s", time.monotonic() - t0)
        if resharded:
            add_count("dist.resharded_runs")
        return DistResult(
            final,
            self.live_count,
            num_shards,
            stats,
            degraded=False,
            ladder="reshard" if resharded else "",
            report=report if report.events else None,
            reexec_shards=reexec,
        )

    # ------------------------------------------------------------------ #
    # supervision actions
    # ------------------------------------------------------------------ #

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _pick_host(self, exclude: int = -1) -> _Host | None:
        """The least-loaded live host, preferring one not excluded."""
        live = self._live_hosts()
        if not live:
            return None
        preferred = [h for h in live if h.idx != exclude] or live
        return min(preferred, key=lambda h: (h.inflight, h.idx))

    def _dispatch(
        self,
        rid: int,
        shard: _Shard,
        host: _Host,
        inputs: np.ndarray,
        staged: set[tuple[int, int]],
        report: SupervisionReport,
        *,
        hedge: bool,
    ) -> None:
        """Send one shard dispatch; inline the data if never staged there.

        A dispatch swallowed by a drop or partition drill is *not*
        special-cased: its deadline simply expires and the sweep
        recovers it — the same path a genuinely lossy network takes.
        """
        seq = self._next_seq()
        header = {
            "type": "run_shard",
            "run_id": rid,
            "sid": shard.sid,
            "seq": seq,
            "gen": self._staged_gen,
        }
        arrays: dict = {"boundary": shard.boundary}
        if (host.idx, shard.sid) not in staged:
            arrays["data"] = inputs[shard.lo:shard.hi]
            staged.add((host.idx, shard.sid))
        shard.valid_seqs.add(seq)
        if not hedge:
            shard.host = host.idx
            shard.attempts += 1
        shard.dispatch_ts = time.monotonic()
        shard.deadline_ts = shard.dispatch_ts + self.config.deadline.deadline_s(
            shard.nbytes, host.bps
        )
        host.inflight += 1
        add_count("dist.dispatches")
        self._send(host, header, arrays, report)

    def _on_deadline(
        self,
        rid: int,
        shard: _Shard,
        shards: list[_Shard],
        inputs: np.ndarray,
        staged: set[tuple[int, int]],
        report: SupervisionReport,
        now: float,
    ) -> None:
        """One shard blew its deadline: hedge once, then retry with backoff."""
        report.deadline_expirations += 1
        add_count("dist.deadline_expirations")
        report.record(
            "deadline_expired", worker=shard.host, task=shard.sid,
            attempt=shard.attempts,
        )
        spare = self._pick_host(exclude=shard.host)
        if (
            self.config.hedge
            and not shard.hedged
            and spare is not None
            and spare.idx != shard.host
        ):
            # Hedge: race a spare against the original; both results
            # stay valid and the first one back wins.
            shard.hedged = True
            add_count("dist.hedges")
            report.record(
                "hedged", worker=spare.idx, task=shard.sid,
                attempt=shard.attempts,
            )
            self._dispatch(
                rid, shard, spare, inputs, staged, report, hedge=True
            )
            return
        if shard.attempts > self.config.retry.max_retries:
            return  # the caller degrades
        report.retries += 1
        add_count("dist.retries")
        delay = self.config.retry.delay_s(shard.attempts, self._rng)
        shard.retry_ready_ts = now + delay
        report.record(
            "retry_scheduled", task=shard.sid, attempt=shard.attempts,
            detail=f"backoff {delay:.3f}s",
        )

    def _reassign_shards(
        self,
        rid: int,
        dead: _Host,
        shards: list[_Shard],
        inputs: np.ndarray,
        staged: set[tuple[int, int]],
        report: SupervisionReport,
    ) -> bool:
        """Re-shard a dead host's unresolved shards onto survivors."""
        moved = False
        for shard in shards:
            if shard.resolved or shard.host != dead.idx:
                continue
            target = self._pick_host(exclude=dead.idx)
            if target is None:
                continue  # quorum check in the main loop will degrade
            add_count("dist.redispatches")
            report.record(
                "reshard", worker=target.idx, task=shard.sid,
                detail=f"host {dead.idx} died",
            )
            self._dispatch(
                rid, shard, target, inputs, staged, report, hedge=False
            )
            moved = True
        return moved

    def _on_message(
        self,
        host: _Host,
        header: dict,
        arrays: dict,
        shards: list[_Shard],
        report: SupervisionReport,
    ) -> None:
        """Fold one agent message into run state."""
        msg = str(header.get("type", ""))
        if msg == "shard_map":
            sid = int(header.get("sid", -1))
            seq = int(header.get("seq", -1))
            if not 0 <= sid < len(shards):
                return
            shard = shards[sid]
            if shard.resolved or seq not in shard.valid_seqs:
                add_count("dist.duplicates_dropped")
                return
            end_row = np.ascontiguousarray(
                arrays.get("end_row"), dtype=np.int32
            )
            if end_row.shape != shard.boundary.shape or not bool(
                ((end_row >= 0) & (end_row < self.dfa.num_states)).all()
            ):
                # A corrupt map is a failed attempt, not a result.
                report.corrupt_results += 1
                add_count("dist.corrupt_maps")
                return
            shard.end_row = end_row
            host.inflight = max(0, host.inflight - 1)
            elapsed = time.monotonic() - shard.dispatch_ts
            if elapsed > 1e-9:
                bps = shard.nbytes / elapsed
                host.bps = (
                    bps if host.bps is None else 0.7 * host.bps + 0.3 * bps
                )
            add_count("dist.shard_maps")
            observe("dist.shard_s", elapsed)
        elif msg == "error":
            report.worker_errors += 1
            add_count("dist.agent_errors")
            sid = int(header.get("sid", -1))
            if 0 <= sid < len(shards) and not shards[sid].resolved:
                # Fail fast: skip the remaining deadline and let the
                # sweep retry it on the backoff schedule.
                shards[sid].deadline_ts = 0.0
            report.record(
                "agent_error", worker=host.idx, task=sid,
                detail=str(header.get("detail", ""))[:200],
            )
        # hello_ok / machine_ok / pong / input_ok need no action beyond
        # the liveness refresh the caller already applied.

    # ------------------------------------------------------------------ #
    # degrade ladder
    # ------------------------------------------------------------------ #

    def _degraded_result(
        self,
        inputs: np.ndarray,
        start: int,
        stats: ExecStats,
        report: SupervisionReport,
        reason: str,
    ) -> DistResult:
        """Walk the local rungs: pool (when configured), then in-process."""
        cfg = self.config
        report.degraded = True
        report.degrade_reason = reason
        add_count("dist.degraded_runs")
        with trace_span("dist.degrade", reason=reason):
            if cfg.local_fallback_workers >= 2:
                try:
                    if self._local_pool is None or self._local_pool.closed:
                        self._local_pool = ScaleoutPool(
                            self.dfa,
                            num_workers=cfg.local_fallback_workers,
                            k=cfg.k,
                            sub_chunks_per_worker=cfg.sub_chunks_per_worker,
                            lookback=cfg.lookback,
                            kernel=cfg.kernel,
                        )
                    res = self._local_pool.run(inputs, start=start)
                    report.record("degrade", detail=f"local_pool: {reason}")
                    return DistResult(
                        int(res.final_state),
                        self.live_count,
                        0,
                        stats.merged_with(res.stats),
                        degraded=True,
                        ladder="local_pool",
                        report=report,
                    )
                except Exception:  # noqa: BLE001 - next rung catches all
                    add_count("dist.local_pool_failed")
            fb = run_inprocess_fallback(self.dfa, inputs, start=start)
            report.record("degrade", detail=f"inprocess: {reason}")
            return DistResult(
                int(fb.final_state),
                self.live_count,
                0,
                stats.merged_with(fb.stats),
                degraded=True,
                ladder="inprocess",
                report=report,
            )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    def close(self) -> None:
        """Say goodbye to live hosts and release every local resource."""
        if self._closed:
            return
        self._closed = True
        for host in self.hosts:
            if host.alive and host.channel is not None:
                try:
                    if self._staged:
                        host.channel.send(
                            {"type": "drop_input", "run_id": self._staged_gen}
                        )
                    host.channel.send({"type": "bye"})
                except TransportError:
                    pass
            if host.channel is not None:
                host.channel.close()
            if host.reader is not None:
                host.reader.join(timeout=2.0)
        if self._local_pool is not None:
            self._local_pool.close()
            self._local_pool = None

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def run_distributed(
    dfa: DFA,
    inputs: np.ndarray,
    *,
    start: int | None = None,
    coordinator: ShardCoordinator | None = None,
    num_agents: int = 2,
    agent_workers: int = 1,
    config: DistConfig | None = None,
    net_faults: NetFaultPlan | None = None,
) -> DistResult:
    """One distributed run, with or without standing infrastructure.

    With ``coordinator``, runs on its cluster (the other keyword
    arguments are then taken from it). Without one, an ephemeral
    :class:`~repro.dist.agent.LocalCluster` of ``num_agents`` loopback
    agents is built and torn down around the call — the zero-setup path
    behind ``run_speculative(backend="dist")``.
    """
    if coordinator is not None:
        return coordinator.run(inputs, start=start)
    from repro.dist.agent import LocalCluster

    with LocalCluster(num_agents, agent_workers=agent_workers) as cluster:
        with ShardCoordinator(
            dfa,
            cluster.addresses,
            config=config,
            net_faults=net_faults,
        ) as coord:
            return coord.run(inputs, start=start)

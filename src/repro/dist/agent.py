"""Host agents: one per machine, a :class:`ScaleoutPool` behind TCP.

A :class:`HostAgent` is the per-host half of the cross-host topology:
it accepts one coordinator connection at a time, receives the DFA table
**once** (``publish_machine``), receives its input shard **once** per
run (``put_input``), and answers ``run_shard`` dispatches — which carry
only ids and a ``k``-entry boundary row — with the shard's
``speculated -> ending`` segment map, computed on the embedded
:class:`repro.core.mp_executor.ScaleoutPool` (native backend, worker
supervision, and chaos drills included, exactly as on a single
machine). The same publish-once/dispatch-names discipline the pool uses
over shared memory, over a socket.

Shard execution runs on a dedicated worker thread so the agent keeps
answering heartbeat pings while a shard computes — the coordinator can
tell *slow* from *dead*. Replies are serialized by a send lock.

:class:`LocalCluster` spins up N agents on daemon threads bound to
``127.0.0.1`` (real TCP through the loopback) — the topology the tests,
the benchmark, and the CI dist job drive. ``python -m repro.dist agent``
runs one agent standalone for a real multi-host deployment.
"""

from __future__ import annotations

import os
import queue
import socket
import threading

import numpy as np

from repro.core.faultinject import FaultPlan
from repro.core.mp_executor import POOL_BACKENDS, ScaleoutPool
from repro.dist.transport import (
    Channel,
    TransportError,
    TransportTimeout,
)
from repro.fsm.dfa import DFA
from repro.obs.trace import add_count
from repro.util.validation import check_in_set

__all__ = ["HostAgent", "LocalCluster"]

#: Messages the pool worker thread executes (everything else is answered
#: inline by the connection reader, so liveness probes never queue
#: behind a computing shard).
_POOL_MESSAGES = ("run_shard", "run_exact")


class HostAgent:
    """One host's agent: the wire protocol around a local pool.

    Parameters
    ----------
    host, port:
        Bind address; port 0 (the default) picks a free port, exposed
        via :attr:`address` once constructed.
    agent_workers:
        Worker-process count of the embedded pool. ``1`` keeps shard
        maps in-process (no subprocess spawn) — the cheap topology for
        tests and small hosts.
    backend:
        Pool hot-path backend, ``"vectorized"`` or ``"native"``
        (checked here, before the agent binds its port).
    fault_plan:
        Deterministic worker-fault drills forwarded to the embedded
        pool (:class:`repro.core.faultinject.FaultPlan`); the pool's
        own ``REPRO_CHAOS`` arming applies when omitted, so the chaos
        CI job shakes host-internal recovery and cross-host recovery at
        once.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        agent_workers: int = 1,
        backend: str = "vectorized",
        fault_plan: FaultPlan | None = None,
    ) -> None:
        check_in_set("backend", backend, POOL_BACKENDS)
        self.agent_workers = int(agent_workers)
        self.backend = backend
        self.fault_plan = fault_plan
        self.pool: ScaleoutPool | None = None
        self.dfa: DFA | None = None
        self.machine_key: tuple | None = None
        self._shards: dict[tuple[int, int], np.ndarray] = {}
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(2)
        self._listener.settimeout(0.2)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._conn: Channel | None = None

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def serve_forever(self) -> None:
        """Accept coordinator connections until :meth:`close` (or ``die``)."""
        try:
            while not self._stop.is_set():
                try:
                    sock, _addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._conn = Channel(sock)
                try:
                    self._serve_connection(self._conn)
                finally:
                    self._conn.close()
                    self._conn = None
        finally:
            self.close()

    def _serve_connection(self, ch: Channel) -> None:
        """Drive one coordinator conversation to ``bye``/``die``/EOF."""
        send_lock = threading.Lock()
        work: queue.Queue = queue.Queue()

        def pool_worker() -> None:
            while True:
                item = work.get()
                if item is None:
                    return
                header, arrays = item
                try:
                    reply, reply_arrays = self._handle_pool(header, arrays)
                except Exception as exc:  # noqa: BLE001 - reported to peer
                    reply = {
                        "type": "error",
                        "detail": repr(exc),
                        "sid": header.get("sid", -1),
                        "seq": header.get("seq", -1),
                        "run_id": header.get("run_id", -1),
                    }
                    reply_arrays = None
                try:
                    with send_lock:
                        ch.send(reply, reply_arrays)
                except TransportError:
                    return

        worker = threading.Thread(
            target=pool_worker, name="repro-dist-agent-pool", daemon=True
        )
        worker.start()
        try:
            while not self._stop.is_set():
                try:
                    header, arrays = ch.recv(timeout=0.25)
                except TransportTimeout:
                    continue
                except TransportError:
                    return
                msg = str(header.get("type", ""))
                if msg == "bye":
                    return
                if msg == "die":
                    # The crash drill: this host is dead from here on.
                    self._stop.set()
                    return
                if msg in _POOL_MESSAGES:
                    work.put((header, arrays))
                    continue
                try:
                    reply, reply_arrays = self._handle_inline(header, arrays)
                except Exception as exc:  # noqa: BLE001 - reported to peer
                    reply = {"type": "error", "detail": repr(exc)}
                    reply_arrays = None
                try:
                    with send_lock:
                        ch.send(reply, reply_arrays)
                except TransportError:
                    return
        finally:
            work.put(None)
            worker.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # message handlers
    # ------------------------------------------------------------------ #

    def _handle_inline(
        self, header: dict, arrays: dict[str, np.ndarray]
    ) -> tuple[dict, dict | None]:
        """Fast-path messages: hello, ping, publish, input staging."""
        msg = str(header.get("type", ""))
        if msg == "hello":
            return {
                "type": "hello_ok",
                "pid": os.getpid(),
                "agent_workers": self.agent_workers,
            }, None
        if msg == "ping":
            return {"type": "pong", "t": header.get("t", 0.0)}, None
        if msg == "publish_machine":
            return self._publish_machine(header, arrays), None
        if msg == "put_input":
            run_id = int(header["run_id"])
            for sid, _n in header.get("shards", []):
                self._shards[(run_id, int(sid))] = np.ascontiguousarray(
                    arrays[f"shard_{int(sid)}"], dtype=np.int32
                )
            add_count("dist.agent.inputs_staged", len(header.get("shards", [])))
            return {"type": "input_ok", "run_id": run_id}, None
        if msg == "drop_input":
            run_id = int(header["run_id"])
            for key in [k for k in self._shards if k[0] == run_id]:
                del self._shards[key]
            return {"type": "input_dropped", "run_id": run_id}, None
        raise ValueError(f"unknown message type {msg!r}")

    def _publish_machine(
        self, header: dict, arrays: dict[str, np.ndarray]
    ) -> dict:
        """Build (or reuse) the DFA and its pool from a publish frame."""
        fp = str(header.get("fingerprint", ""))
        # Reuse requires the *whole* run configuration to match, not just
        # the machine: a pool built for one speculation width cannot fold
        # boundary rows of another.
        key = (
            fp,
            header.get("k"),
            int(header.get("sub_chunks", 16)),
            int(header.get("lookback", 8)),
            str(header.get("kernel", "auto")),
        )
        if self.pool is not None and key == self.machine_key:
            return {"type": "machine_ok", "fingerprint": fp, "reused": True}
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        table = np.ascontiguousarray(arrays["table"], dtype=np.int32)
        accepting = np.ascontiguousarray(arrays["accepting"], dtype=np.bool_)
        self.dfa = DFA(
            table=table, start=int(header["start"]), accepting=accepting
        )
        self.machine_key = key
        self.pool = ScaleoutPool(
            self.dfa,
            num_workers=self.agent_workers,
            k=header.get("k"),
            sub_chunks_per_worker=int(header.get("sub_chunks", 16)),
            lookback=int(header.get("lookback", 8)),
            kernel=str(header.get("kernel", "auto")),
            backend=self.backend,
            fault_plan=self.fault_plan,
        )
        add_count("dist.agent.machines_published")
        return {"type": "machine_ok", "fingerprint": fp, "reused": False}

    def _handle_pool(
        self, header: dict, arrays: dict[str, np.ndarray]
    ) -> tuple[dict, dict | None]:
        """Pool-thread messages: shard maps and exact shard runs."""
        if self.pool is None:
            raise RuntimeError("no machine published to this agent")
        msg = str(header.get("type", ""))
        run_id = int(header["run_id"])
        sid = int(header["sid"])
        seq = int(header.get("seq", 0))
        # Shard data is keyed by the coordinator's staging *generation*
        # (``gen``), not the run id: repeat runs over the same staged
        # input name the bytes instead of re-shipping them.
        gen = int(header.get("gen", run_id))
        if "data" in arrays:
            # A re-dispatch/hedge to a host that never staged this shard
            # ships the data inline, once; later dispatches name it.
            self._shards[(gen, sid)] = np.ascontiguousarray(
                arrays["data"], dtype=np.int32
            )
        data = self._shards.get((gen, sid))
        if data is None:
            raise KeyError(f"shard {sid} of run {run_id} was never staged")
        if msg == "run_shard":
            end_row = self.pool.run_map(data, arrays["boundary"])
            add_count("dist.agent.shards_run")
            return (
                {"type": "shard_map", "run_id": run_id, "sid": sid, "seq": seq},
                {"end_row": end_row},
            )
        if msg == "run_exact":
            res = self.pool.run(data, start=int(header["start"]))
            return {
                "type": "shard_final",
                "run_id": run_id,
                "sid": sid,
                "seq": seq,
                "final": int(res.final_state),
            }, None
        raise ValueError(f"unknown pool message type {msg!r}")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def stopped(self) -> bool:
        """True once the agent left (or will leave) its serve loop."""
        return self._stop.is_set()

    def kill(self) -> None:
        """Hard-stop: sever the live connection and stop serving.

        The host-death drill — the coordinator sees an abrupt EOF, not a
        polite ``bye``.
        """
        self._stop.set()
        conn = self._conn
        if conn is not None:
            conn.close()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def close(self) -> None:
        """Stop serving and release the pool and sockets (idempotent)."""
        self._stop.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - best effort
            pass
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        self._shards.clear()


class LocalCluster:
    """N host agents on daemon threads, bound to the loopback.

    The standard test/benchmark topology: real TCP framing and real
    per-host pools without needing N machines. Use as a context
    manager; :attr:`addresses` feeds
    :class:`repro.dist.coordinator.ShardCoordinator`.
    """

    def __init__(
        self,
        num_agents: int = 3,
        *,
        agent_workers: int = 1,
        backend: str = "vectorized",
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if num_agents < 1:
            raise ValueError(f"num_agents must be >= 1, got {num_agents}")
        self.agents: list[HostAgent] = []
        self.threads: list[threading.Thread] = []
        try:
            for i in range(num_agents):
                agent = HostAgent(
                    agent_workers=agent_workers,
                    backend=backend,
                    fault_plan=fault_plan,
                )
                thread = threading.Thread(
                    target=agent.serve_forever,
                    name=f"repro-dist-agent-{i}",
                    daemon=True,
                )
                thread.start()
                self.agents.append(agent)
                self.threads.append(thread)
        except BaseException:
            self.close()
            raise

    @property
    def addresses(self) -> list[tuple[str, int]]:
        """The ``(host, port)`` endpoints, agent order."""
        return [a.address for a in self.agents]

    def kill(self, index: int) -> None:
        """Hard-kill agent ``index`` (the host-death drill)."""
        self.agents[index].kill()

    def close(self) -> None:
        """Stop every agent and join their threads (idempotent)."""
        for agent in self.agents:
            agent.close()
        for thread in self.threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

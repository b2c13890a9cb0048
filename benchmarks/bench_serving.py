"""Serving throughput: continuous chunk-level batching vs per-request runs.

The serving claim is that coalescing concurrent requests which share a
DFA into one seeded chunk batch sustains materially higher request
throughput than executing each request's own ``run_speculative`` call in
arrival order — same machine, same speculation width, bit-identical
results. This benchmark drives a Zipf-skewed multi-tenant workload
(three tenants, two distinct machines, skewed popularity, variable
request sizes) through both paths:

* ``sequential`` — each request runs alone via
  :func:`repro.core.engine.run_speculative` (one chunk-parallel call per
  request, back to back), the natural baseline a service without
  batching would implement;
* ``served`` — the same requests submitted concurrently to an in-process
  :class:`repro.serve.FSMServer`, which continuously
  re-batches whatever is in flight per machine.

Every served response is verified bit-exact against the sequential
reference runner before any timing is reported. Under ``--check`` the
run becomes a CI gate: served sustained req/s must beat sequential by
``SERVE_WIN`` (and verification must pass). The JSON report
(``BENCH_serving.json``) follows the repo's ``BENCH_*.json`` convention
documented in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

import numpy as np

from repro.apps.registry import get_application
from repro.core.engine import run_speculative
from repro.fsm.run import run_segment
from repro.gpu.device import Grid
from repro.serve.client import ServeClient, zipf_workload
from repro.serve.server import FSMServer, ServeConfig

# Served sustained req/s must exceed sequential per-request req/s by this
# factor under --check. The measured margin is ~5-10x (one shared
# speculation + wide gathers per round vs per-request planning overhead);
# 2.0 keeps the gate robust on noisy CI runners.
SERVE_WIN = 2.0


def _percentile(xs: list[float], q: float) -> float:
    """Percentile of a non-empty sample."""
    return float(np.percentile(np.asarray(xs), q))


def build_workload(args: argparse.Namespace):
    """Build tenants (two machines, one shared) and the Zipf request mix."""
    div7_dfa, div7_corpus = get_application("div7").build_instance(
        args.items, seed=1
    )
    regex_dfa, regex_corpus = get_application("regex1").build_instance(
        args.items, seed=2
    )
    machines = {
        "alpha": div7_dfa,
        "beta": regex_dfa,
        "gamma": div7_dfa,  # shares alpha's machine state by fingerprint
    }
    corpora = {
        "alpha": div7_corpus,
        "beta": regex_corpus,
        "gamma": div7_corpus,
    }
    workload = zipf_workload(
        corpora,
        num_requests=args.requests,
        mean_items=args.mean_items,
        alpha=args.alpha,
        seed=args.seed,
    )
    return machines, workload


def bench_sequential(machines, workload, *, k: int, lookback: int):
    """Per-request ``run_speculative`` in arrival order; finals + timing."""
    finals = []
    lat = []
    t0 = time.perf_counter()
    for w in workload:
        s = time.perf_counter()
        res = run_speculative(
            machines[w.tenant],
            w.symbols,
            k=k,
            lookback=lookback,
            measure_success=False,
            collapse="off",
            grid=Grid(num_blocks=1, threads_per_block=32),
        )
        lat.append(time.perf_counter() - s)
        finals.append(int(res.final_state))
    return finals, time.perf_counter() - t0, lat


def bench_served(machines, workload, args) -> tuple[list[int], float, list[float], dict]:
    """Concurrent submission to an FSMServer."""

    async def drive():
        """Start a server, submit the whole workload concurrently, drain it."""
        server = FSMServer(
            ServeConfig(
                max_queue_depth=max(1024, 2 * args.requests),
                max_batch_requests=128,
                round_budget_items=args.round_budget,
                chunk_items=args.chunk_items,
            )
        )
        tenants = {}
        for name, dfa in machines.items():
            tenants[name] = server.register_tenant(name, dfa)
        clients = {n: ServeClient(server, t) for n, t in tenants.items()}
        await server.start()
        t0 = time.perf_counter()
        responses = await asyncio.gather(
            *(clients[w.tenant].match(w.symbols) for w in workload)
        )
        elapsed = time.perf_counter() - t0
        counters = dict(server.trace.counters_with_prefix("serve."))
        await server.close()
        return responses, elapsed, counters

    responses, elapsed, counters = asyncio.run(drive())
    shed = [r for r in responses if r.status != "ok"]
    if shed:
        raise AssertionError(f"{len(shed)} responses shed with ample queue depth")
    finals = [int(r.final_state) for r in responses]
    lat = [r.queue_wait_s + r.service_s for r in responses]
    return finals, elapsed, lat, counters


def main(argv: list[str] | None = None) -> int:
    """Run the serving benchmark; returns a process exit code."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", type=int, default=256)
    ap.add_argument("--items", type=int, default=1 << 17, help="corpus items")
    ap.add_argument("--mean-items", type=int, default=2048)
    ap.add_argument("--alpha", type=float, default=1.2, help="Zipf skew")
    ap.add_argument(
        "--k", type=int, default=4, help="the sequential baseline's speculation width"
    )
    ap.add_argument(
        "--lookback", type=int, default=8,
        help="the sequential baseline's look-back window",
    )
    ap.add_argument("--round-budget", type=int, default=1 << 16)
    ap.add_argument("--chunk-items", type=int, default=1 << 12)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true", help="small CI sizing")
    ap.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero unless served/sequential >= {SERVE_WIN}",
    )
    ap.add_argument("--out", default=None, help="write JSON report here")
    args = ap.parse_args(argv)
    if args.quick:
        args.requests = min(args.requests, 96)
        args.items = min(args.items, 1 << 16)
        args.mean_items = min(args.mean_items, 1024)

    machines, workload = build_workload(args)
    total_items = int(sum(w.symbols.size for w in workload))
    print(
        f"serving bench: {args.requests} requests, {total_items} items, "
        f"3 tenants / 2 machines, zipf alpha={args.alpha}"
    )

    # Reference finals (plain sequential automaton) for verification.
    reference = [
        run_segment(machines[w.tenant], w.symbols, machines[w.tenant].start)
        for w in workload
    ]

    seq_finals, seq_s, seq_lat = bench_sequential(
        machines, workload, k=args.k, lookback=args.lookback
    )
    srv_finals, srv_s, srv_lat, counters = bench_served(
        machines, workload, args
    )

    bad = sum(
        1
        for ref, a, b in zip(reference, seq_finals, srv_finals)
        if a != ref or b != ref
    )
    seq_rps = args.requests / seq_s
    srv_rps = args.requests / srv_s
    win = srv_rps / seq_rps
    report = {
        "bench": "serving",
        "requests": args.requests,
        "total_items": total_items,
        "zipf_alpha": args.alpha,
        "k": args.k,
        "verified": bad == 0,
        "sequential": {
            "seconds": seq_s,
            "req_per_s": seq_rps,
            "p50_ms": _percentile(seq_lat, 50) * 1e3,
            "p99_ms": _percentile(seq_lat, 99) * 1e3,
        },
        "served": {
            "seconds": srv_s,
            "req_per_s": srv_rps,
            "p50_ms": _percentile(srv_lat, 50) * 1e3,
            "p99_ms": _percentile(srv_lat, 99) * 1e3,
            "rounds": counters.get("serve.rounds", 0),
            "coalesced": counters.get("serve.coalesced", 0),
        },
        "win": win,
        "gate": {"serve_win": SERVE_WIN, "checked": bool(args.check)},
    }
    print(
        f"  sequential: {seq_rps:8.1f} req/s   "
        f"p50={report['sequential']['p50_ms']:.2f}ms "
        f"p99={report['sequential']['p99_ms']:.2f}ms"
    )
    print(
        f"  served:     {srv_rps:8.1f} req/s   "
        f"p50={report['served']['p50_ms']:.2f}ms "
        f"p99={report['served']['p99_ms']:.2f}ms   "
        f"rounds={report['served']['rounds']} "
        f"coalesced={report['served']['coalesced']}"
    )
    print(f"  win: {win:.2f}x  (gate {SERVE_WIN}x)  verified={bad == 0}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
        print(f"  wrote {args.out}")

    if bad:
        print(f"FAIL: {bad} finals mismatch the reference")
        return 1
    if args.check and win < SERVE_WIN:
        print(f"FAIL: served win {win:.2f}x below gate {SERVE_WIN}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

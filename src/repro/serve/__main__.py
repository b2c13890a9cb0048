"""Runnable serving demo: ``python -m repro.serve --demo``.

Spins up an in-process :class:`repro.serve.FSMServer`, registers three
tenants over two distinct machines (``alpha`` and ``gamma`` share the
``div7`` DFA — one machine state serves both), fires a Zipf-skewed burst
of concurrent requests through :class:`repro.serve.ServeClient`, verifies
every response bit-exactly against the sequential reference runner, and
prints throughput, latency percentiles, and the ``serve.*`` counter
catalog. The walkthrough in ``docs/SERVING.md`` narrates the output.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

import numpy as np

from repro.apps.registry import get_application
from repro.fsm.run import run_segment
from repro.serve.client import ServeClient, zipf_workload
from repro.serve.server import FSMServer, ServeConfig


def _percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    return float(np.percentile(np.asarray(xs), q))


async def _demo(args: argparse.Namespace) -> int:
    """Run the demo; returns a process exit code (0 = verified)."""
    div7_dfa, div7_corpus = get_application("div7").build_instance(
        args.items, seed=1
    )
    regex_dfa, regex_corpus = get_application("regex1").build_instance(
        args.items, seed=2
    )

    server = FSMServer(
        ServeConfig(
            max_queue_depth=max(1024, 2 * args.requests),
            round_budget_items=1 << 16,
            chunk_items=1 << 12,
        )
    )
    # alpha and gamma share the div7 machine: registering both builds its
    # one-lane kernel exactly once.
    tenants = {
        "alpha": server.register_tenant("alpha", div7_dfa, weight=2.0),
        "beta": server.register_tenant("beta", regex_dfa),
        "gamma": server.register_tenant("gamma", div7_dfa),
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
        seed=args.seed,
    )

    await server.start()
    clients = {n: ServeClient(server, t) for n, t in tenants.items()}
    t0 = time.perf_counter()
    responses = await asyncio.gather(
        *(clients[w.tenant].match(w.symbols) for w in workload)
    )
    elapsed = time.perf_counter() - t0
    await server.close()

    bad = 0
    for w, r in zip(workload, responses):
        if r.status != "ok":
            bad += 1
            continue
        dfa = div7_dfa if w.tenant in ("alpha", "gamma") else regex_dfa
        if r.final_state != run_segment(dfa, w.symbols, dfa.start):
            bad += 1
    ok = [r for r in responses if r.status == "ok"]
    total_items = sum(r.items for r in ok)
    lat = [r.queue_wait_s + r.service_s for r in ok]

    print("serving demo")
    print(
        f"  {len(ok)}/{len(responses)} requests ok, "
        f"{total_items} items in {elapsed:.3f}s "
        f"({len(ok) / elapsed:.0f} req/s, {total_items / elapsed / 1e6:.1f} Mitems/s)"
    )
    if lat:
        print(
            f"  latency p50={_percentile(lat, 50) * 1e3:.1f}ms "
            f"p99={_percentile(lat, 99) * 1e3:.1f}ms"
        )
    print("  serve.* counters:")
    for name, value in sorted(server.trace.counters_with_prefix("serve.").items()):
        print(f"    {name} = {value}")
    if bad:
        print(f"  VERIFY FAILED: {bad} mismatching/shed responses")
        return 1
    print("  verified: every response bit-exact vs the reference runner")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="multi-tenant FSM serving demo",
    )
    ap.add_argument(
        "--demo", action="store_true", help="run the serving walkthrough"
    )
    ap.add_argument("--requests", type=int, default=200)
    ap.add_argument("--items", type=int, default=1 << 17, help="corpus size")
    ap.add_argument("--mean-items", type=int, default=4096)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if not args.demo:
        ap.print_help()
        return 2
    return asyncio.run(_demo(args))


if __name__ == "__main__":
    sys.exit(main())

"""``serve_open``: open-loop Poisson traffic into the serving layer at defaults.

``FSMServer(ServeConfig())``: inline executor, ``backend="auto"``.
Tenants: div7 twice (the two share one machine by fingerprint), regex1,
huffman and html, plus a ``GROUP_SHARE`` of traffic to a five-rule
``register_group``. Popularity is Zipf over the single tenants; request
sizes are log-uniform over 2^10-2^16 symbols, rounded to whole reference
blocks. Each request is timed from the moment it was due, so a stalled
generator shows up as latency (and as ``serve.gen_lag_p99_ms``).

An untraced run offers ``LO_RATE`` for its whole time: ``p50_ms`` is the
median latency and ``items_per_s`` the symbols served per second of
round-loop busy time. (At ``HI_RATE`` queueing amplifies every host
slowdown, and its median moved by a third between runs of the same
code.) The traced run offers ``LO_RATE`` and ``HI_RATE`` untraced (the
fixed-rate percentiles), climbs ``LADDER`` one rung at a time until a
rung misses ``LIMIT_MS`` at ``LADDER_Q``, sheds, or builds a backlog
(``serve.max_rps``), and offers ``HI_RATE`` again traced (the layer
split), in the shares of ``TRACED_SHARES``.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

import bulk
import refs
import stats
from layers import first_span_total, span_total

# Fixed absolute load levels (requests/second), set at about 25% and 60%
# of the knee of this mix on a 2-vCPU host (near 500 requests/second).
LO_RATE = 125.0
HI_RATE = 300.0
# The ladder starts below the knee and climbs in 50 req/s steps. A rung of
# RUNG_SECONDS holds a few hundred requests, so it is judged at LADDER_Q
# (the p99 would have fewer than ten samples beyond it).
LADDER = tuple(float(r) for r in range(350, 1001, 50))
LIMIT_MS = 50.0
LADDER_Q = 95.0
RUNG_SECONDS = 0.6
# Shares of --seconds in the traced run: the hi phase is long enough for
# ten samples beyond its p99 at the default run length.
TRACED_SHARES = {"lo": 0.2, "hi": 0.35, "ladder": 0.25, "traced": 0.2}

CORPUS_ITEMS = 1 << 18
BLOCK = 256
MIN_LOG2, MAX_LOG2 = 10, 16
ZIPF_ALPHA = 1.0
SINGLE = ("div7-a", "regex1", "huffman", "div7-b", "html")
APP_OF = {"div7-a": "div7", "div7-b": "div7", "regex1": "regex1", "huffman": "huffman", "html": "html"}
GROUP = tuple(f"rule-{i}" for i in range(5))
GROUP_SHARE = 0.05
GROUP_RULE_SEED = 5
SETUP_REPEATS = 3


@dataclass
class Request:
    tenant: str
    symbols: np.ndarray
    expect: int
    due: float  # seconds after the phase starts


# --------------------------------------------------------------------------- #
# inputs and references
# --------------------------------------------------------------------------- #


def _machines(seed: int) -> dict:
    """Every tenant's machine (deterministic in ``seed``)."""
    from nids_stream import compile_rules, make_literals
    from repro.apps.registry import get_application

    out = {
        t: get_application(APP_OF[t]).build_instance(1 << 10, seed=seed + i)[0]
        for i, t in enumerate(SINGLE)
    }
    rules = compile_rules(make_literals(len(GROUP), GROUP_RULE_SEED))
    out.update(zip(GROUP, rules))
    return out


def prepare(seed: int) -> dict:
    from repro.apps.registry import get_application
    from nids_stream import ALPHABET

    corpora = {}
    for i, t in enumerate(SINGLE):
        corpora[t] = get_application(APP_OF[t]).build_instance(CORPUS_ITEMS, seed=seed + i)[1]
    group_corpus = np.random.default_rng(seed + 99).integers(
        0, len(ALPHABET), size=CORPUS_ITEMS
    ).astype(np.int32)
    for t in GROUP:
        corpora[t] = group_corpus
    machines = _machines(seed)
    maps = {t: refs.BlockMaps(machines[t].table, corpora[t], BLOCK) for t in corpora}
    starts = {t: int(m.start) for t, m in machines.items()}
    rng = np.random.default_rng(seed)
    tenants = list(SINGLE) + list(GROUP)
    pop = 1.0 / np.arange(1, len(SINGLE) + 1) ** ZIPF_ALPHA
    pop = np.concatenate([pop / pop.sum() * (1 - GROUP_SHARE), np.full(len(GROUP), GROUP_SHARE / len(GROUP))])

    def phase(rate: float, seconds: float) -> list:
        n = max(1, int(rng.poisson(rate * seconds)))
        dues = np.sort(rng.uniform(0.0, seconds, size=n))
        picks = rng.choice(len(tenants), size=n, p=pop)
        sizes = np.exp2(rng.uniform(MIN_LOG2, MAX_LOG2, size=n)).astype(np.int64) // BLOCK * BLOCK
        out = []
        for due, pick, size in zip(dues.tolist(), picks.tolist(), sizes.tolist()):
            t = tenants[pick]
            off = int(rng.integers(0, (CORPUS_ITEMS - size) // BLOCK + 1)) * BLOCK
            out.append(Request(t, corpora[t][off : off + size], maps[t].final_state(starts[t], off, size), due))
        return out

    return {
        "seed": seed,
        "phase": phase,
        "warm": [
            Request(t, corpora[t][: 1 << 12], maps[t].final_state(starts[t], 0, 1 << 12), 0.0)
            for t in tenants
        ],
        "corpora": corpora,
    }


# --------------------------------------------------------------------------- #
# the open loop
# --------------------------------------------------------------------------- #


@dataclass
class PhaseResult:
    rate: float
    latency_s: list  # from due time to response; shed and errors excluded
    lag_s: list  # how late the generator sent each request
    outstanding: list  # requests in flight, sampled at each arrival
    queue_wait_s: list
    service_s: list
    items: int = 0
    shed: int = 0
    errors: int = 0
    error_text: str = ""  # the first error a request raised
    wrong: int = 0
    busy_s: float = 0.0

    @property
    def offered(self) -> int:
        return len(self.lag_s)

    def miss_latencies(self) -> list:
        """Latencies with shed and failed requests counted as infinitely late."""
        return self.latency_s + [math.inf] * (self.shed + self.errors)


async def offer(server, reqs: list, rate: float) -> PhaseResult:
    """Send ``reqs`` at their due times; wait for every response."""
    res = PhaseResult(rate, [], [], [], [], [])
    inflight = 0
    hist = server.trace.histograms.get("serve.round_s")
    busy0 = hist.total if hist is not None else 0.0

    async def one(req: Request, due: float):
        nonlocal inflight
        try:
            resp = await server.submit(req.tenant, req.symbols)
        except Exception as exc:  # a failed request is counted, not fatal
            res.errors += 1
            res.error_text = res.error_text or f"{type(exc).__name__}: {exc}"
            return
        finally:
            inflight -= 1
        if resp.status != "ok":
            res.shed += 1
            return
        res.latency_s.append(time.perf_counter() - due)
        res.queue_wait_s.append(resp.queue_wait_s)
        res.service_s.append(resp.service_s)
        res.items += resp.items
        if resp.final_state != req.expect:
            res.wrong += 1

    tasks = []
    t0 = time.perf_counter() + 0.01
    for req in reqs:
        due = t0 + req.due
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        res.lag_s.append(max(0.0, time.perf_counter() - due))
        res.outstanding.append(inflight)
        inflight += 1
        tasks.append(asyncio.ensure_future(one(req, due)))
    await asyncio.gather(*tasks)
    hist = server.trace.histograms.get("serve.round_s")
    res.busy_s = (hist.total if hist is not None else 0.0) - busy0
    return res


async def ladder(server, ctx: dict, budget_s: float, counts: list, failures: list) -> list:
    """Climb :data:`LADDER` until a rung fails or ``budget_s`` is spent."""
    rungs = []
    for rate in LADDER:
        if budget_s < RUNG_SECONDS / 2:
            break
        res = await offer(server, ctx["phase"](rate, RUNG_SECONDS), rate)
        budget_s -= RUNG_SECONDS
        rungs.append(rung(res))
        fold([res], counts, failures, count_shed=False)  # rungs may pass the knee
        if not stats.rung_passes(rungs[-1], LIMIT_MS):
            break
    return rungs


def rung(res: PhaseResult) -> dict:
    lat = res.miss_latencies()
    p = stats.tail(lat, LADDER_Q) if lat else None
    return {
        "rate": res.rate,
        "p_ms": None if p is None else p * 1e3,
        "growing": stats.backlog_growing(res.outstanding),
        "shed": res.shed + res.errors,
        "n": len(lat),
    }


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #


async def build_server(ctx: dict, failures: list, *, wrapped: bool):
    """Construct, register and warm up a server; return it running.

    Also returns the registration time. ``wrapped`` installs the layer
    wrappers while tenants register.
    """
    from layers import Wrappers
    from repro.serve.server import FSMServer, ServeConfig

    server = FSMServer(ServeConfig())
    t0 = time.perf_counter()
    # The server keeps its own trace; making it ambient while tenants
    # register records which machines the backend probe put on native code.
    with Wrappers() if wrapped else contextlib.nullcontext(), server.trace.activate():
        machines = _machines(ctx["seed"])
        for t in SINGLE:
            server.register_tenant(t, machines[t])
        server.register_group([(t, machines[t]) for t in GROUP])
    register_s = time.perf_counter() - t0
    await server.start()
    warm = await offer(server, ctx["warm"], 0.0)
    if warm.wrong or warm.shed or warm.errors:
        failures.append("serve warm-up answered wrongly or shed")
    return server, register_s


def backend_choices(server) -> dict:
    """Per machine: did the ``backend="auto"`` probe keep native code?"""
    trace = server.trace
    out = {}
    for sp in trace.find("serve.machine_build"):
        native = any(
            c.name == "native.load" for c in trace.spans if c.parent == sp.index
        )
        out[sp.attrs.get("machine", str(sp.index))] = "native" if native else "numpy"
    return out


# --------------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------------- #


def _ms(xs, q):
    return stats.percentile(xs, q) * 1e3 if xs else 0.0


def fold(results, attempted_failed, failures: list, *, count_shed: bool = True):
    """Add phase outcomes to ``[attempted, failed]`` and ``failures``."""
    for r in results:
        shed = r.shed if count_shed else 0
        attempted_failed[0] += r.offered
        attempted_failed[1] += shed + r.errors + r.wrong
        if r.wrong:
            failures.append(f"{r.wrong} responses at {r.rate:g} req/s differ from reference")
        if shed:
            failures.append(f"{shed} requests shed at {r.rate:g} req/s")
        if r.error_text:
            failures.append(f"requests at {r.rate:g} req/s raised: {r.error_text}")


async def _run(args, scratch, record: dict):
    from host import PeakRss
    from repro.core.native import build_stats, clear_memory_cache

    ctx = prepare(args.seed)
    failures: list = []
    counts = [0, 0]  # requests attempted, failed
    server = None
    with PeakRss() as rss:
        try:
            setups, register = [], []
            compile0 = build_stats()["compile_s"]
            for _ in range(1 if args.trace else SETUP_REPEATS):
                if server is not None:
                    await server.close()
                    server = None
                scratch.fresh_native_cache()
                clear_memory_cache()
                t0 = time.perf_counter()
                server, reg = await build_server(ctx, failures, wrapped=bool(args.trace))
                setups.append(time.perf_counter() - t0)
                register.append(reg)
            compile_s = build_stats()["compile_s"] - compile0
            record["decisions"] = {
                "backend": backend_choices(server),
                "group_share": GROUP_SHARE,
                "rates": {"lo": LO_RATE, "hi": HI_RATE, "ladder": LADDER},
                "limit_ms": LIMIT_MS,
                "ladder_q": LADDER_Q,
            }
            record["setup_s_samples"] = setups
            if args.trace:
                metrics = await _traced(server, ctx, args.seconds, counts, failures, record)
                metrics["serve.register_s"] = statistics.median(register)
                metrics["native.compile_s"] = compile_s
            else:
                lo = await offer(server, ctx["phase"](LO_RATE, args.seconds), LO_RATE)
                fold([lo], counts, failures)
                record["lo_requests"] = len(lo.latency_s)
                record["lo_gen_lag_p99_ms"] = _ms(lo.lag_s, 99)
                metrics = {
                    "items_per_s": lo.items / lo.busy_s,
                    "setup_s": statistics.median(setups),
                    "p50_ms": _ms(lo.latency_s, 50),
                }
        finally:
            if server is not None:
                await server.close()
    if not args.trace:
        metrics["peak_rss_mb"] = rss.peak_mb
    return metrics, counts[0], counts[1], failures


async def _traced(server, ctx: dict, seconds: float, counts: list, failures: list, record: dict) -> dict:
    """Fixed-rate percentiles, the ladder, then the traced layer split."""
    from layers import Wrappers
    from repro.obs.trace import RunTrace

    secs = {k: v * seconds for k, v in TRACED_SHARES.items()}
    lo = await offer(server, ctx["phase"](LO_RATE, secs["lo"]), LO_RATE)
    hi = await offer(server, ctx["phase"](HI_RATE, secs["hi"]), HI_RATE)
    rungs = await ladder(server, ctx, secs["ladder"], counts, failures)
    record["rungs"] = rungs
    reg_trace = server.trace  # holds the registration spans
    trace = RunTrace("traced")
    server.trace = trace
    with Wrappers() as wrappers, trace.activate():
        hi_t = await offer(server, ctx["phase"](HI_RATE, secs["traced"]), HI_RATE)
    record["absent"] = wrappers.absent_metrics()
    record["absent_targets"] = list(wrappers.absent)
    record["samples"] = {"lo": len(lo.latency_s), "hi": len(hi.latency_s)}
    fold([lo, hi, hi_t], counts, failures)
    metrics = layer_metrics(trace, reg_trace, lo, hi, hi_t)
    metrics["serve.max_rps"] = stats.max_rate(rungs, LIMIT_MS)
    metrics["fsm.ref_items_per_s"] = bulk.fsm_ref_items_per_s(
        _machines(ctx["seed"])["huffman"], ctx["corpora"]["huffman"]
    )
    return metrics


def layer_metrics(trace, reg_trace, lo, hi, hi_t) -> dict:
    rounds = [s.duration_s for s in trace.spans if s.name in ("serve.run_speculative_batch", "mp.batch")]
    group_rounds = trace.find("mp.batch")
    requests = max(1, hi_t.offered)
    counters = trace.counters
    n_rounds = counters["serve.rounds"].value if "serve.rounds" in counters else 0
    n_requests = counters["serve.requests"].value if "serve.requests" in counters else 0
    tp_u = hi.items / hi.busy_s if hi.busy_s else 0.0
    tp_t = hi_t.items / hi_t.busy_s if hi_t.busy_s else 0.0
    hi_tail = stats.tail(hi.miss_latencies(), 99)
    return {
        "serve.lo_p50_ms": _ms(lo.latency_s, 50),
        "serve.hi_p50_ms": _ms(hi.latency_s, 50),
        "serve.hi_p99_ms": 0.0 if hi_tail is None else hi_tail * 1e3,
        "serve.queue_wait_p50_ms": _ms(hi_t.queue_wait_s, 50),
        "serve.queue_wait_p99_ms": _ms(hi_t.queue_wait_s, 99),
        "serve.service_p50_ms": _ms(hi_t.service_s, 50),
        "serve.round_ms_p50": _ms(rounds, 50),
        "serve.requests_per_round": n_requests / max(1, n_rounds),
        "serve.shed_frac": (hi_t.shed + hi.shed + lo.shed) / max(1, requests + hi.offered + lo.offered),
        "serve.gen_lag_p99_ms": _ms(hi_t.lag_s, 99),
        "kernels.plan_ms": span_total(trace, "kernels.plan_kernel") / max(1, n_rounds) * 1e3,
        "mp.batch_ms": span_total(trace, "mp.batch") / max(1, len(group_rounds)) * 1e3,
        "mp.stack_s": first_span_total(reg_trace, "mp.stack_machines", "mp.stack"),
        "obs.overhead_frac": 1.0 - tp_t / tp_u if tp_u else 0.0,
    }


def run(args, scratch, record: dict):
    return asyncio.run(_run(args, scratch, record))

#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload inproc_apps --seed 1 --seconds 22 --trace 0

Workloads: ``inproc_apps``, ``pool_apps``, ``nids_stream`` (closed loops
over bulk calls) and ``serve_open`` (open-loop Poisson traffic into the
serving layer). ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` measures the per-layer metrics from a traced
run (plus an untraced half, for the tracing overhead). The metric names
and units come from ``BENCHMARK.json`` at the repository root.

The program is imported from ``src/`` of the checkout; inputs and
reference answers are computed from ``--seed`` before anything is timed.
Earlier lines of standard output carry the run record (host facts,
resolved auto choices, sample counts); the last line is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

Exits non-zero without a result when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 3

BULK = ("inproc_apps", "pool_apps", "nids_stream")
WORKLOADS = BULK + ("serve_open",)


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def warm_up(calls, failures: list) -> None:
    for call in calls:
        if not call.check(call.run()):
            failures.append(f"{call.name}: warm-up output differs from reference")


def timed_setup(wl, ctx, scratch, failures: list):
    """Set the workload up from scratch (fresh native cache); return (state, seconds)."""
    from repro.core.native import clear_memory_cache

    scratch.fresh_native_cache()
    clear_memory_cache()
    t0 = time.perf_counter()
    state = wl.setup(ctx)
    try:
        warm_up(wl.warm_calls(ctx, state), failures)
    except BaseException:
        wl.close(state)
        raise
    return state, time.perf_counter() - t0


def run_bulk(wl, args, scratch, record: dict):
    """Prepare inputs, set up, run the closed loop; return the run's outcome."""
    from host import PeakRss

    ctx = wl.prepare(args.seed)
    failures: list = []
    with PeakRss() as rss:
        measure = _bulk_traced if args.trace else _bulk_untraced
        metrics, loop = measure(wl, ctx, args.seconds, scratch, failures, record)
    if not args.trace:
        metrics["peak_rss_mb"] = rss.peak_mb
    record["call_ms"] = loop.median_call_ms()
    record["cycles_s"] = loop.cycles_s
    failures += loop.errors
    return metrics, loop.attempted, loop.failed, failures


def _bulk_untraced(wl, ctx, seconds, scratch, failures, record):
    import statistics

    import bulk
    from repro.core.native import build_stats

    setups, state = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                wl.close(state)
                state = None
            before = build_stats()
            state, secs = timed_setup(wl, ctx, scratch, failures)
            setups.append(secs)
        after = build_stats()
        record["native_builds"] = {k: after[k] - before[k] for k in ("compiles", "fallbacks")}
        record["setup_s_samples"] = setups
        if hasattr(wl, "kernels"):
            record["kernels"] = wl.kernels(state)
        calls = wl.calls(ctx, state)
        loop = bulk.closed_loop(calls, seconds)
        record["decisions"] = wl.decisions(loop.outputs)
    finally:
        if state is not None:
            wl.close(state)
    return bulk.end_to_end(calls, loop, statistics.median(setups)), loop


def _bulk_traced(wl, ctx, seconds, scratch, failures, record):
    """Half the time untraced, half traced: the layer split and its overhead."""
    import bulk
    from layers import Wrappers, first_span_total
    from repro.core.native import build_stats
    from repro.obs.trace import RunTrace, trace_span

    setup_trace = RunTrace("setup")
    compile0 = build_stats()["compile_s"]
    with Wrappers(), setup_trace.activate():
        state, _ = timed_setup(wl, ctx, scratch, failures)
    compile_s = build_stats()["compile_s"] - compile0
    try:
        calls = wl.calls(ctx, state)
        untraced = bulk.closed_loop(calls, seconds / 2)
        trace = RunTrace("traced")
        with Wrappers() as wrappers, trace.activate():
            loop = bulk.closed_loop(
                calls, seconds / 2, keep=-1, span=lambda: trace_span("bench.call")
            )
        metrics = wl.layers(trace, loop.outputs, state)
    finally:
        wl.close(state)
    record["absent"] = wrappers.absent_metrics()
    record["absent_targets"] = list(wrappers.absent)
    record["decisions"] = wl.decisions(loop.outputs[: len(calls)])
    metrics["native.compile_s"] = compile_s
    metrics["mp.stack_s"] = first_span_total(setup_trace, "mp.stack_machines", "mp.stack")
    metrics["fsm.ref_items_per_s"] = bulk.fsm_ref_items_per_s(*wl.ref_sample(ctx))
    metrics["obs.overhead_frac"] = 1.0 - untraced.median_cycle_s() / loop.median_cycle_s()
    loop.attempted += untraced.attempted
    loop.failed += untraced.failed
    loop.errors += untraced.errors
    return metrics, loop


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    import host

    spec = load_spec()
    host.isolate_env()
    scratch = host.Scratch(SCRATCH)
    shm_before = host.shm_segments()
    cpu0 = host.cpu_times()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        record["host"] = host.host_facts()
        if args.workload in BULK:
            wl = __import__(args.workload)
            metrics, attempted, failed, failures = run_bulk(wl, args, scratch, record)
        else:
            import serve_open

            metrics, attempted, failed, failures = serve_open.run(args, scratch, record)
        # before the helpers stop: the resource tracker unlinks what leaked
        leaked = sorted(host.shm_segments() - shm_before)
    finally:
        scratch.remove()
        stray = host.stop_children()
    record["host"]["steal_frac"] = host.steal_frac(cpu0, host.cpu_times())
    if leaked:
        failures.append(f"shared-memory segments left behind: {leaked}")
    if stray:
        failures.append(f"processes left running after the workload closed: {stray}")
    record["failures"] = failures[:20]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    absent = set(record.get("absent", ()))
    for name, unit in wanted.items():
        value = None if name in absent else metrics.get(name, 0.0)
        out[name] = {"value": value, "unit": unit}
    extra = sorted(set(metrics) - set(wanted))
    if extra:
        failures.append(f"metrics not declared in BENCHMARK.json: {extra}")
    print(json.dumps({"record": record}, default=str))
    correct = not failures and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

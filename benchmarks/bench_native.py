"""Measure the native-compiled hot path and write ``BENCH_native.json``.

For every paper application this script times steady-state local
processing under both backends — ``vectorized`` (the NumPy kernel layer)
and ``native`` (the specialized C loop from :mod:`repro.core.native`) —
on the same speculated chunk plan and the same cost-model kernel, and
reports the native speedup over the NumPy path plus the compile-cache
statistics (compiles, disk/memory hits).

Run standalone (it is an argparse script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_native.py --items 400000
    PYTHONPATH=src python benchmarks/bench_native.py --quick --check

``--check`` exits non-zero unless native is eligible and measured at
least ``1.5x`` faster than the NumPy path on at least two applications —
the CI guard for the compiled hot path. (The fallback leg of CI runs the
test suite with ``CC=/bin/false`` instead; no benchmark gate applies
when no compiler exists.)

``BENCH_native.json`` schema::

    {
      "benchmark": "native",
      "items": int, "chunks": int, "repeats": int,
      "check_min_speedup": float, "check_min_apps": int,
      "cache": {...},            # repro.core.native.cache_stats()
      "rows": [
        {
          "application": str, "num_items": int, "num_states": int,
          "num_classes": int, "k": int, "kernel": str,
          "selected": str,        # backend backend="auto" runs: native
                                  # whenever a kernel loads
          "native_speedup_vs_numpy": float | null,
          "backends": {name: {"measured_s": float,
                               "throughput_items_per_s": float,
                               "build_s": float | null}},
          "bench_wall_s": float
        }, ...
      ]
    }
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.apps.registry import APPLICATIONS, get_application
from repro.core.kernels import plan_kernel, process_chunks_kernel
from repro.core.local import process_chunks
from repro.core.lookback import enumerative_spec, speculate
from repro.core.native import cache_stats, load_native_plan, native_available
from repro.workloads.chunking import plan_chunks, transform_layout

CHECK_MIN_SPEEDUP = 1.5  # native must beat NumPy by this much ...
CHECK_MIN_APPS = 2  # ... on at least this many applications


def best_of(run, repeats: int) -> float:
    """Best wall-clock seconds of ``repeats`` calls of ``run``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_app(
    name: str,
    *,
    num_items: int,
    num_chunks: int,
    k: int | None,
    repeats: int,
    seed: int = 1,
) -> dict:
    """Time both backends on one application; return a JSON-ready row."""
    app = get_application(name)
    dfa, inputs = app.build_instance(num_items, seed=seed)
    inputs = np.ascontiguousarray(inputs)
    k_eff = app.best_k if k is None else k
    k_eff = dfa.num_states if k_eff is None else min(k_eff, dfa.num_states)
    plan = plan_chunks(inputs.size, num_chunks)
    spec = (
        speculate(dfa, inputs, plan, k_eff, lookback=app.default_lookback)
        if k_eff < dfa.num_states
        else enumerative_spec(dfa, plan.num_chunks)
    )
    transformed = transform_layout(inputs, plan)
    kplan = plan_kernel(
        dfa, chunk_len=plan.max_len, num_chunks=plan.num_chunks, k=k_eff,
    )
    t0 = time.perf_counter()
    nk = load_native_plan(dfa, k=k_eff, kplan=kplan)
    load_s = time.perf_counter() - t0

    if kplan.kernel == "lockstep":
        def numpy_run():
            process_chunks(dfa, inputs, plan, spec, transformed=transformed)
    else:
        def numpy_run():
            process_chunks_kernel(
                dfa, inputs, plan, spec, kplan, transformed=transformed
            )
    measured = {"vectorized": best_of(numpy_run, repeats)}
    build = {"vectorized": kplan.build_s}
    if nk is not None:
        measured["native"] = best_of(
            lambda: nk.process_chunks(inputs, plan, spec), repeats
        )
        build["native"] = load_s
    base = measured["vectorized"]
    native = measured.get("native")
    row = {
        "application": name,
        "num_items": int(inputs.size),
        "num_states": dfa.num_states,
        "num_classes": kplan.compaction.num_classes,
        "k": k_eff,
        "kernel": kplan.kernel,
        "selected": "native" if nk is not None else "vectorized",
        "native_speedup_vs_numpy": base / native if native else None,
        "backends": {},
    }
    for bname, t in sorted(measured.items()):
        row["backends"][bname] = {
            "measured_s": t,
            "throughput_items_per_s": inputs.size / t if t else None,
            "build_s": build[bname],
        }
    return row


def check_rows(rows: list[dict]) -> list[str]:
    """Return check violations (empty = the native gate passes)."""
    problems = []
    fast = 0
    for row in rows:
        sp = row["native_speedup_vs_numpy"]
        if sp is None:
            problems.append(
                f"{row['application']}: native ineligible "
                f"(no kernel loaded)"
            )
        elif sp >= CHECK_MIN_SPEEDUP:
            fast += 1
    if fast < CHECK_MIN_APPS:
        problems.append(
            f"native reached >= {CHECK_MIN_SPEEDUP:.1f}x over NumPy on only "
            f"{fast}/{len(rows)} applications (need {CHECK_MIN_APPS})"
        )
    else:
        problems = [p for p in problems if "ineligible" not in p] or []
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--apps", nargs="*", default=sorted(APPLICATIONS),
        choices=sorted(APPLICATIONS), help="applications to bench (default all)",
    )
    ap.add_argument("--items", type=int, default=400_000, help="input symbols")
    ap.add_argument("--chunks", type=int, default=1024, help="chunk count")
    ap.add_argument(
        "--k", type=int, default=None,
        help="speculation width (default: each app's paper-best k)",
    )
    ap.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    ap.add_argument(
        "--quick", action="store_true",
        help="small CI-sized run (128k items, 256 chunks, 2 repeats)",
    )
    ap.add_argument(
        "--check", action="store_true",
        help=(
            f"exit 1 unless native is >= {CHECK_MIN_SPEEDUP}x NumPy on "
            f">= {CHECK_MIN_APPS} apps"
        ),
    )
    ap.add_argument("--out", default="BENCH_native.json", help="output path")
    args = ap.parse_args(argv)
    if args.quick:
        args.items = min(args.items, 128_000)
        args.chunks = min(args.chunks, 256)
        args.repeats = min(args.repeats, 2)

    if not native_available():
        print("native unavailable: no C compiler")
        if args.check:
            return 1

    rows = []
    for name in args.apps:
        t0 = time.perf_counter()
        row = bench_app(
            name,
            num_items=args.items,
            num_chunks=args.chunks,
            k=args.k,
            repeats=args.repeats,
        )
        row["bench_wall_s"] = round(time.perf_counter() - t0, 3)
        rows.append(row)
        sp = row["native_speedup_vs_numpy"]
        print(
            f"{name:8s} k={row['k']:<3d} kernel={row['kernel']:9s} "
            f"selected={row['selected']:10s} "
            + (f"native speedup={sp:.2f}x" if sp else "native ineligible")
        )

    report = {
        "benchmark": "native",
        "items": args.items,
        "chunks": args.chunks,
        "repeats": args.repeats,
        "check_min_speedup": CHECK_MIN_SPEEDUP,
        "check_min_apps": CHECK_MIN_APPS,
        "cache": cache_stats(),
        "rows": rows,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
    print(f"wrote {args.out}")

    if args.check:
        problems = check_rows(rows)
        for p in problems:
            print(f"CHECK FAILED: {p}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"check passed: native >= {CHECK_MIN_SPEEDUP}x NumPy on >= "
            f"{CHECK_MIN_APPS} applications"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

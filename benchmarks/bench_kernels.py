"""Compare stepping kernels per application and write ``BENCH_kernels.json``.

For every paper application this script measures the steady-state local
processing time of each registered stepping kernel on one speculated
chunk plan (lockstep through the incumbent
:func:`repro.core.local.process_chunks`; stride kernels through the
composed-table path in :mod:`repro.core.kernels`) and reports the
measured speedup over lockstep, the kernel production runs
(:func:`repro.core.kernels.plan_kernel` with ``kernel="auto"``), the
measured winner, table build costs, and table footprints.

Run standalone (it is an argparse script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --items 400000
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick --check

``--check`` exits non-zero if the cost model's choice measured more than
10% slower than lockstep on any app — the CI guard against a cost-model
regression.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.apps.registry import APPLICATIONS, get_application
from repro.core.kernels import (
    DEFAULT_TABLE_BUDGET_BYTES,
    KERNELS,
    advance_matrix,
    pack_stride,
    plan_kernel,
    stride_table_bytes,
)
from repro.core.local import process_chunks
from repro.core.lookback import enumerative_spec, speculate
from repro.workloads.chunking import plan_chunks, transform_layout

CHECK_SLACK = 1.10  # selected kernel may be at most 10% slower than lockstep


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
    """Measure every kernel on one application; return a JSON-ready row."""
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
    # The choice production makes for this geometry.
    auto = plan_kernel(
        dfa, chunk_len=plan.max_len, num_chunks=plan.num_chunks, k=k_eff,
    )
    comp = auto.compaction
    cls = comp.remap(inputs)

    measured: dict = {}
    build: dict = {}
    for kname, spec_k in KERNELS.items():
        if spec_k.stride == 1:
            measured[kname] = best_of(
                lambda: process_chunks(
                    dfa, inputs, plan, spec, transformed=transformed
                ),
                repeats,
            )
            continue
        try:
            kplan = plan_kernel(
                dfa, chunk_len=plan.max_len, num_chunks=plan.num_chunks,
                k=k_eff, kernel=kname, compaction=comp,
            )
        except ValueError:
            continue  # stride table over budget: ineligible
        build[kname] = kplan.build_s
        packed = pack_stride(cls, plan, kplan.m, comp.num_classes)
        measured[kname] = best_of(
            lambda: advance_matrix(kplan, packed, spec), repeats
        )

    base = measured["lockstep"]
    row = {
        "application": name,
        "num_items": int(inputs.size),
        "num_states": dfa.num_states,
        "num_inputs": dfa.num_inputs,
        "num_classes": comp.num_classes,
        "compression": round(comp.compression, 2),
        "num_chunks": num_chunks,
        "k": k_eff,
        "selected": auto.kernel,
        "measured_best": min(measured, key=measured.get),
        "kernels": {},
    }
    for kname, t in sorted(measured.items()):
        entry = {
            "measured_s": t,
            "throughput_items_per_s": inputs.size / t if t else None,
            "speedup_vs_lockstep": base / t if t else None,
            "modeled_s": auto.predicted_cost_s.get(kname),
        }
        if kname in build:
            entry["table_build_s"] = build[kname]
        m = KERNELS[kname].stride
        if m > 1:
            entry["table_bytes"] = stride_table_bytes(
                comp.num_classes, dfa.num_states, m
            )
        row["kernels"][kname] = entry
    return row


def check_rows(rows: list[dict]) -> list[str]:
    """Return violations of the selection guarantee (empty = all good)."""
    problems = []
    for row in rows:
        kernels = row["kernels"]
        base = kernels.get("lockstep", {}).get("measured_s")
        sel = kernels.get(row["selected"], {}).get("measured_s")
        if base is None or sel is None:
            continue
        if sel > base * CHECK_SLACK:
            problems.append(
                f"{row['application']}: selected {row['selected']} "
                f"({sel * 1e3:.2f} ms) is {sel / base:.2f}x lockstep "
                f"({base * 1e3:.2f} ms), above the {CHECK_SLACK:.2f}x bound"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--apps", nargs="*", default=sorted(APPLICATIONS),
        choices=sorted(APPLICATIONS), help="applications to bench (default all)",
    )
    ap.add_argument("--items", type=int, default=400_000, help="input symbols")
    ap.add_argument("--chunks", type=int, default=2048, help="chunk count")
    ap.add_argument(
        "--k", type=int, default=None,
        help="speculation width (default: each app's paper-best k)",
    )
    ap.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    ap.add_argument(
        "--quick", action="store_true",
        help="small CI-sized run (64k items, 256 chunks, 2 repeats)",
    )
    ap.add_argument(
        "--check", action="store_true",
        help="exit 1 if any selected kernel is >10%% slower than lockstep",
    )
    ap.add_argument("--out", default="BENCH_kernels.json", help="output path")
    args = ap.parse_args(argv)
    if args.quick:
        args.items = min(args.items, 64_000)
        args.chunks = min(args.chunks, 256)
        args.repeats = min(args.repeats, 2)

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
        s4 = row["kernels"].get("stride4", {}).get("speedup_vs_lockstep")
        print(
            f"{name:8s} C={row['num_classes']:<4d} selected={row['selected']:9s}"
            f" measured best={row['measured_best']:9s}"
            + (f" stride4 speedup={s4:.2f}x" if s4 else "")
        )

    report = {
        "benchmark": "kernels",
        "items": args.items,
        "chunks": args.chunks,
        "table_budget_bytes": DEFAULT_TABLE_BUDGET_BYTES,
        "check_slack": CHECK_SLACK,
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
        print("check passed: every selected kernel within 10% of lockstep")
    return 0


if __name__ == "__main__":
    sys.exit(main())

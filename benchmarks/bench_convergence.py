"""Measure convergence-aware lane collapse and write ``BENCH_convergence.json``.

For every application × speculation width this script times the full
:func:`repro.core.engine.run_speculative` pipeline with the convergence
layer off, forced on, and in probe-driven ``auto`` mode. Repeats are
*interleaved* (off/on/auto/off/on/auto/…) and aggregated min-of-repeats so
a background load spike hits every configuration equally instead of biasing
one label. Alongside wall-clock it records the convergence counters —
physical gathers, collapse scans, converged chunks, skipped merge checks —
and verifies every configuration against the sequential reference.

Run standalone (it is an argparse script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_convergence.py
    PYTHONPATH=src python benchmarks/bench_convergence.py --quick --check

``--check`` is the CI guard: it exits non-zero unless lane collapse wins
on the convergent applications (huffman, html) at k=8, stays within the
noise bound on never-converging Div7 in ``auto`` mode, and the convergence
counters show huffman fully converged with zero merge-check comparisons.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.apps.registry import APPLICATIONS, get_application
from repro.core.engine import run_speculative
from repro.fsm.run import run_reference
from repro.gpu.device import Grid

MODES = ("off", "on", "auto")

# --check bounds. Full scale asserts a regression guard below the measured
# speedups (huffman 2.1x, html 1.5x at k=8 on the reference machine) so CI
# noise does not flap; --quick runs are fixed-cost dominated and only need
# to show collapse is not pessimal.
WIN_APPS = ("huffman", "html")
WIN_FULL = 1.30
WIN_QUICK = 0.95
DIV7_OVERHEAD_FULL = 0.05
DIV7_OVERHEAD_QUICK = 0.25


def bench_case(
    name: str,
    *,
    num_items: int,
    num_blocks: int,
    threads_per_block: int,
    k: int,
    repeats: int,
    seed: int = 7,
) -> dict:
    """Time one application at one speculation width; return a JSON row."""
    app = get_application(name)
    dfa, inputs = app.build(num_items, seed=seed)
    ref = run_reference(dfa, inputs)
    kw = dict(
        k=k,
        lookback=app.default_lookback,
        grid=Grid(num_blocks=num_blocks, threads_per_block=threads_per_block),
    )

    best: dict[str, float] = {m: float("inf") for m in MODES}
    results = {}
    for _ in range(repeats):
        for mode in MODES:
            t0 = time.perf_counter()
            r = run_speculative(dfa, inputs, collapse=mode, **kw)
            dt = time.perf_counter() - t0
            if r.final_state != ref:
                raise AssertionError(
                    f"{name} k={k} collapse={mode}: final state "
                    f"{r.final_state} != reference {ref}"
                )
            best[mode] = min(best[mode], dt)
            results[mode] = r

    row = {
        "application": name,
        "num_items": int(inputs.size),
        "num_chunks": num_blocks * threads_per_block,
        "k": k,
        "lookback": app.default_lookback,
        "modes": {},
    }
    off = best["off"]
    for mode in MODES:
        s = results[mode].stats
        row["modes"][mode] = {
            "resolved": results[mode].config.collapse,
            "measured_s": best[mode],
            "speedup_vs_off": off / best[mode] if best[mode] else None,
            "local_gathers": s.local_gathers,
            "collapse_scans": s.collapse_scans,
            "lanes_collapsed": s.lanes_collapsed,
            "chunks_converged": s.chunks_converged,
            "checks_skipped": s.checks_skipped,
            "check_comparisons": s.check_comparisons,
        }
    return row


def check_rows(rows: list[dict], *, quick: bool) -> list[str]:
    """Return guard violations (empty = all good)."""
    win_bound = WIN_QUICK if quick else WIN_FULL
    overhead_bound = DIV7_OVERHEAD_QUICK if quick else DIV7_OVERHEAD_FULL
    problems = []
    by_key = {(r["application"], r["k"]): r for r in rows}

    # The shipping default is probe-driven auto; that's what the guard
    # protects. Forced `on` (fixed default cadence) is recorded in the
    # JSON but not asserted — the probe exists precisely because one fixed
    # cadence loses on some machines.
    for app in WIN_APPS:
        row = by_key.get((app, 8))
        if row is None:
            continue
        auto = row["modes"]["auto"]
        if auto["speedup_vs_off"] < win_bound:
            problems.append(
                f"{app} k=8: collapse=auto speedup "
                f"{auto['speedup_vs_off']:.2f}x below the "
                f"{win_bound:.2f}x bound"
            )
        if not auto["collapse_scans"] or not auto["lanes_collapsed"]:
            problems.append(f"{app} k=8: collapse=auto never collapsed a lane")
        off_g = row["modes"]["off"]["local_gathers"]
        if auto["local_gathers"] >= off_g:
            problems.append(
                f"{app} k=8: physical gathers did not shrink "
                f"({auto['local_gathers']} >= {off_g})"
            )

    row = by_key.get(("huffman", 8))
    if row is not None:
        auto = row["modes"]["auto"]
        if auto["chunks_converged"] != row["num_chunks"]:
            problems.append(
                f"huffman k=8: only {auto['chunks_converged']}/"
                f"{row['num_chunks']} chunks converged"
            )
        if auto["check_comparisons"] != 0 or not auto["checks_skipped"]:
            problems.append(
                "huffman k=8: converged run still paid merge checks "
                f"(comparisons={auto['check_comparisons']}, "
                f"skipped={auto['checks_skipped']})"
            )

    for (app, k), row in sorted(by_key.items()):
        if app != "div7":
            continue
        auto = row["modes"]["auto"]
        if auto["resolved"] != "off":
            problems.append(
                f"div7 k={k}: auto resolved to {auto['resolved']!r}, "
                "expected the probe to disable collapse"
            )
        overhead = 1.0 / auto["speedup_vs_off"] - 1.0
        if overhead > overhead_bound:
            problems.append(
                f"div7 k={k}: auto overhead {overhead * 100:.1f}% above the "
                f"{overhead_bound * 100:.0f}% bound"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--apps", nargs="*", default=["huffman", "html", "div7", "regex1"],
        choices=sorted(APPLICATIONS), help="applications to bench",
    )
    ap.add_argument(
        "--items", type=int, default=1 << 22,
        help="input symbols (default 2^22: long chunks amortize fixed costs)",
    )
    ap.add_argument("--blocks", type=int, default=8, help="thread blocks")
    ap.add_argument(
        "--threads", type=int, default=32,
        help="threads per block (warp multiple)",
    )
    ap.add_argument(
        "--k", nargs="*", type=int, default=[4, 8, 16],
        help="speculation widths to sweep",
    )
    ap.add_argument("--repeats", type=int, default=5, help="min-of repeats")
    ap.add_argument(
        "--quick", action="store_true",
        help="small CI-sized run (2^19 items, 3 repeats, k=8 only)",
    )
    ap.add_argument(
        "--check", action="store_true",
        help="exit 1 on a collapse win/overhead/counter regression",
    )
    ap.add_argument("--out", default="BENCH_convergence.json", help="output path")
    args = ap.parse_args(argv)
    if args.quick:
        # 2^19 keeps chunks long enough (2048 symbols at 256 chunks) for
        # html's lanes to reach their convergence point mid-chunk.
        args.items = min(args.items, 1 << 19)
        args.repeats = min(args.repeats, 3)
        args.k = [8]

    rows = []
    for name in args.apps:
        for k in args.k:
            t0 = time.perf_counter()
            row = bench_case(
                name,
                num_items=args.items,
                num_blocks=args.blocks,
                threads_per_block=args.threads,
                k=k,
                repeats=args.repeats,
            )
            row["bench_wall_s"] = round(time.perf_counter() - t0, 3)
            rows.append(row)
            on = row["modes"]["on"]
            auto = row["modes"]["auto"]
            print(
                f"{name:8s} k={k:<3d} on={on['speedup_vs_off']:.2f}x "
                f"auto={auto['speedup_vs_off']:.2f}x "
                f"[{auto['resolved']}] conv={on['chunks_converged']}/"
                f"{row['num_chunks']} skipped={on['checks_skipped']}"
            )

    report = {
        "benchmark": "convergence",
        "items": args.items,
        "num_chunks": args.blocks * args.threads,
        "repeats": args.repeats,
        "quick": args.quick,
        "rows": rows,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
    print(f"wrote {args.out}")

    if args.check:
        problems = check_rows(rows, quick=args.quick)
        for p in problems:
            print(f"CHECK FAILED: {p}", file=sys.stderr)
        if problems:
            return 1
        print(
            "check passed: collapse wins on convergent apps, stays in the "
            "noise on div7, and converged chunks skip every merge check"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

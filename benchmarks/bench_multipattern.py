"""Measure the multi-pattern engine and write ``BENCH_multipattern.json``.

The paper's NIDS scenario at rule-set scale: ``P`` Snort-like literal
rules compiled to streaming-search DFAs over one shared alphabet, all
checked against the same traffic stream. Two executions are compared at
each group size:

* **per-pattern baseline** — one speculative pass per rule (the stream is
  re-read and re-encoded ``P`` times; per-pattern input-class
  compression);
* **batched one-pass** — :func:`repro.core.multipattern.run_multipattern`
  with ``route="batched"``: joint cross-pattern alphabet compaction, a
  block-diagonal union table, every pattern's lanes advanced by one
  fused gather per symbol.

The product route is measured too whenever the minimised product fits
the state budget. Group compilation (``stack_machines``) and per-pattern
``compress_inputs`` are both excluded from timing — they are one-time
costs amortized across the stream in either design.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_multipattern.py
    PYTHONPATH=src python benchmarks/bench_multipattern.py --quick --check

``--check`` exits non-zero unless the batched one-pass beats the
per-pattern baseline by at least ``3.0x`` aggregate at ``P = 20`` — the
CI guard for the multi-pattern engine.

``BENCH_multipattern.json`` schema::

    {
      "benchmark": "multipattern",
      "items": int, "repeats": int, "chunks": int, "k": int,
      "check_min_speedup": float, "check_at_patterns": int,
      "rows": [
        {
          "patterns": int,
          "union_states": int, "joint_classes": int,
          "mean_pattern_classes": float,
          "backend": str,          # best backend (headline numbers below)
          "backends": {name: {"baseline_s": float, "batched_s": float,
                               "aggregate_speedup": float}},
          "baseline_s": float, "batched_s": float,
          "product_s": float | null, "product_states": int | null,
          "aggregate_speedup": float,
          "batched_pattern_items_per_s": float,
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

from repro.core.engine import run_speculative
from repro.core.multipattern import (
    DEFAULT_PRODUCT_BUDGET,
    _build_product,
    run_multipattern,
    stack_machines,
)
from repro.fsm.alphabet import Alphabet
from repro.fsm.product import ProductStateBudget
from repro.gpu.device import Grid
from repro.regex import compile_search, compress_inputs
from repro.util.rng import ensure_rng

CHECK_MIN_SPEEDUP = 3.0  # batched must beat the per-pattern loop ...
CHECK_AT_PATTERNS = 20  # ... by this much at this group size

ALPHABET = tuple("abcdefghijklmnop")  # 16-symbol "payload byte" space


def make_rules(num_patterns: int, *, seed: int = 0) -> list:
    """``num_patterns`` literal signatures as streaming-search DFAs."""
    rng = ensure_rng(seed)
    machines = []
    alphabet = Alphabet.from_symbols(ALPHABET)
    seen = set()
    while len(machines) < num_patterns:
        length = int(rng.integers(4, 9))
        lit = "".join(
            ALPHABET[int(c)]
            for c in rng.integers(0, len(ALPHABET), size=length)
        )
        if lit in seen:
            continue
        seen.add(lit)
        machines.append(
            compile_search(lit, alphabet, name=f"sig-{len(machines)}")
        )
    return machines


def make_stream(num_items: int, *, seed: int = 1) -> np.ndarray:
    rng = ensure_rng(seed)
    return rng.integers(0, len(ALPHABET), size=num_items).astype(np.int32)


def bench_group(
    num_patterns: int,
    stream: np.ndarray,
    *,
    k: int,
    num_chunks: int,
    repeats: int,
    verify_items: int = 20_000,
) -> dict:
    """Measure one group size; return a JSON-ready row."""
    machines = make_rules(num_patterns, seed=num_patterns)
    compressed = [compress_inputs(m) for m in machines]
    stack = stack_machines(machines)

    # Sanity: both executions agree with the sequential reference on a
    # prefix before anything is timed.
    from repro.fsm.run import run_reference_trace

    prefix = stream[:verify_items]
    sample = run_multipattern(
        machines, prefix, k=k, num_chunks=max(4, num_chunks // 16),
        route="batched", stack=stack,
    )
    for pr, m in zip(sample.patterns, machines):
        tr = run_reference_trace(m, prefix)
        assert pr.final_state == int(tr[-1]), m.name
        assert np.array_equal(
            pr.match_positions, np.flatnonzero(m.accepting[tr])
        ), m.name

    # Same-backend comparison on every available backend: the native
    # P-loop is where group-aware lane collapse lives (the vectorized
    # union pass cannot collapse across blocks), so the headline speedup
    # is the best backend's — but the vectorized row is always reported.
    from repro.core.native import native_available

    backends = ["vectorized"] + (["native"] if native_available() else [])
    per_backend: dict = {}
    for be in backends:
        baseline = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for comp in compressed:
                run_speculative(
                    comp.dfa, comp.encode_inputs(stream), k=k, collect=(),
                    backend=be,
                    grid=Grid(num_blocks=1, threads_per_block=num_chunks),
                )
            baseline = min(baseline, time.perf_counter() - t0)
        batched = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_multipattern(
                machines, stream, k=k, num_chunks=num_chunks,
                route="batched", collect=(), stack=stack, backend=be,
            )
            batched = min(batched, time.perf_counter() - t0)
        per_backend[be] = {
            "baseline_s": baseline,
            "batched_s": batched,
            "aggregate_speedup": baseline / batched,
        }
    best_backend = max(
        per_backend, key=lambda b: per_backend[b]["aggregate_speedup"]
    )
    baseline = per_backend[best_backend]["baseline_s"]
    batched = per_backend[best_backend]["batched_s"]

    product_s = None
    product_states = None
    try:
        prod = _build_product(stack, budget=DEFAULT_PRODUCT_BUDGET)
    except ProductStateBudget:
        pass
    else:
        product_states = int(prod.dfa.num_states)
        product_s = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_multipattern(
                machines, stream, k=k, num_chunks=num_chunks,
                route="product", collect=(), stack=stack,
            )
            product_s = min(product_s, time.perf_counter() - t0)

    return {
        "patterns": num_patterns,
        "union_states": int(stack.union_dfa.num_states),
        "joint_classes": int(stack.joint.num_classes),
        "mean_pattern_classes": float(
            np.mean([c.num_classes for c in compressed])
        ),
        "backend": best_backend,
        "backends": per_backend,
        "baseline_s": baseline,
        "batched_s": batched,
        "product_s": product_s,
        "product_states": product_states,
        "aggregate_speedup": baseline / batched,
        "batched_pattern_items_per_s": (
            num_patterns * stream.size / batched
        ),
    }


def check_rows(rows: list[dict]) -> list[str]:
    """Return check violations (empty = the multipattern gate passes)."""
    problems = []
    gate = [r for r in rows if r["patterns"] == CHECK_AT_PATTERNS]
    if not gate:
        problems.append(f"no row at P={CHECK_AT_PATTERNS} to gate on")
        return problems
    sp = gate[0]["aggregate_speedup"]
    if sp < CHECK_MIN_SPEEDUP:
        problems.append(
            f"batched one-pass is only {sp:.2f}x the per-pattern baseline "
            f"at P={CHECK_AT_PATTERNS} (need {CHECK_MIN_SPEEDUP:.1f}x)"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--patterns", nargs="*", type=int, default=[5, 20, 100],
        help="group sizes to sweep (default 5 20 100)",
    )
    ap.add_argument("--items", type=int, default=400_000, help="stream symbols")
    ap.add_argument("--chunks", type=int, default=256, help="chunk count")
    ap.add_argument("--k", type=int, default=4, help="per-pattern spec width")
    ap.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    ap.add_argument(
        "--quick", action="store_true",
        help="small CI-sized run (128k items, 2 repeats)",
    )
    ap.add_argument(
        "--check", action="store_true",
        help=(
            f"exit 1 unless batched >= {CHECK_MIN_SPEEDUP}x the per-pattern "
            f"baseline at P={CHECK_AT_PATTERNS}"
        ),
    )
    ap.add_argument(
        "--out", default="BENCH_multipattern.json", help="output path"
    )
    args = ap.parse_args(argv)
    if args.quick:
        args.items = min(args.items, 128_000)
        args.repeats = min(args.repeats, 2)

    stream = make_stream(args.items)
    rows = []
    for p in args.patterns:
        t0 = time.perf_counter()
        row = bench_group(
            p, stream, k=args.k, num_chunks=args.chunks,
            repeats=args.repeats,
        )
        row["bench_wall_s"] = round(time.perf_counter() - t0, 3)
        rows.append(row)
        print(
            f"P={p:<4d} union={row['union_states']:5d} states "
            f"C={row['joint_classes']:3d} "
            f"backend={row['backend']:10s} "
            f"baseline={row['baseline_s']:.3f}s "
            f"one-pass={row['batched_s']:.3f}s "
            f"speedup={row['aggregate_speedup']:.2f}x"
            + (
                f"  product={row['product_s']:.3f}s "
                f"({row['product_states']} states)"
                if row["product_s"] is not None
                else ""
            )
        )

    report = {
        "benchmark": "multipattern",
        "items": args.items,
        "repeats": args.repeats,
        "chunks": args.chunks,
        "k": args.k,
        "check_min_speedup": CHECK_MIN_SPEEDUP,
        "check_at_patterns": CHECK_AT_PATTERNS,
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
            f"check passed: batched one-pass >= {CHECK_MIN_SPEEDUP}x the "
            f"per-pattern baseline at P={CHECK_AT_PATTERNS}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

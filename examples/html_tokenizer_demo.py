#!/usr/bin/env python
"""Parallel HTML tokenization (web-crawler scenario).

Tokenizes a stream of concatenated synthetic pages with the 38-state
tokenizer FSM, recovering token boundaries through the speculative engine,
and cross-checks them against the independent reference tokenizer.

Run:  python examples/html_tokenizer_demo.py
"""

import numpy as np

import repro
from repro.apps import TOKEN_NAMES, build_html_tokenizer, reference_tokenize
from repro.fsm.alphabet import Alphabet
from repro.gpu import Grid
from repro.workloads import synthetic_pages


def main() -> None:
    pages = synthetic_pages(500_000, rng=3)
    print(f"input: {len(pages):,} characters of synthetic HTML")

    dfa = build_html_tokenizer()
    ids = Alphabet.ascii(128).encode_text(pages).astype(np.int32)

    # The paper finds k=1 best for HTML: look-back pins the state reliably.
    result = repro.run_speculative(
        dfa,
        ids,
        k=1,
        lookback=64,
        grid=Grid(num_blocks=40),
        collect=("emissions",),
    )
    positions, kinds = result.emissions
    print(f"tokens: {positions.size:,}   "
          f"speculation success at k=1: {result.success_rate:.4f}")

    counts = np.bincount(kinds, minlength=len(TOKEN_NAMES))
    for tid, name in enumerate(TOKEN_NAMES):
        print(f"  {name:18s} {int(counts[tid]):8,}")

    # Cross-check against the independently written tokenizer.
    expected = reference_tokenize(pages)
    got = list(zip(positions.tolist(), kinds.tolist()))
    assert got == expected, "FSM tokens must equal the reference tokens"
    print("\nverified against the independent reference tokenizer.")
    from repro.gpu.cost import price_at_scale

    tb = price_at_scale(result, 1_060_900_492, cpu_transition_ns=2.26)
    print(f"modeled V100 speedup at paper scale: {tb.speedup:.0f}x "
          "(paper, Fig. 10: 420.74x)")


if __name__ == "__main__":
    main()

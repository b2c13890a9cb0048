#!/usr/bin/env python
"""NIDS-style regular-expression matching over a traffic stream.

The paper's motivating scenario (Snort-like intrusion detection): many
regular expressions checked against the same input stream. The layout
transformation is performed once and amortized across all patterns —
exactly the argument of Section 4.1.

This example compiles several patterns to streaming-search DFAs over one
shared alphabet, then answers "which rules fired, and where" two ways:

1. **per-pattern baseline** — each DFA runs speculatively over the stream
   on its own (one pass per pattern, per-pattern input-class compression);
2. **multi-pattern one-pass** — the whole rule group runs in a single
   pass: joint cross-pattern alphabet compaction, block-diagonal union
   table, every pattern's lanes advanced by one fused gather per step
   (``repro.run_multipattern([dfa, ...], stream)``).

Both are verified bit-exact against the sequential reference trace.

Run:  python examples/nids_regex_matching.py
"""

import time

import numpy as np

import repro
from repro.fsm.alphabet import Alphabet
from repro.fsm.run import run_reference_trace
from repro.gpu import Grid
from repro.regex import compile_search, compress_inputs
from repro.util.rng import ensure_rng

PATTERNS = {
    "subseq-like-or-apple": "(.*l.*i.*k.*e)|(.*a.*p.*p.*l.*e)",
    "attack-literal": "attack",
    "exfil-pattern": "get(x|y)*data",
    "repeated-fields": "(.+;){3}",
    "hex-run": "[abcdef]{6}",
}


def main() -> None:
    rng = ensure_rng(7)
    alphabet = Alphabet.from_symbols(
        tuple("abcdefghijklmnopqrstuvwxyz;")
    )
    # synthetic "traffic": letters with occasional ';' separators
    probs = np.full(27, 0.9 / 26)
    probs[-1] = 0.1
    stream_ids = rng.choice(27, size=1_000_000, p=probs).astype(np.int32)

    print(f"stream: {stream_ids.size:,} characters, "
          f"{len(PATTERNS)} patterns\n")

    machines = {
        name: compile_search(pattern, alphabet, name=name)
        for name, pattern in PATTERNS.items()
    }

    # Ground truth once per pattern: positions where the search DFA sits
    # in an accepting state after consuming the symbol.
    expected = {}
    for name, dfa in machines.items():
        trace = run_reference_trace(dfa, stream_ids)
        expected[name] = np.flatnonzero(dfa.accepting[trace])

    # ---- baseline: one speculative pass per pattern -------------------- #
    print("per-pattern baseline (one pass per rule):")
    t0 = time.perf_counter()
    for name, dfa in machines.items():
        comp = compress_inputs(dfa)
        inputs = comp.encode_inputs(stream_ids)
        result = repro.run_speculative(
            comp.dfa,
            inputs,
            k=4,
            lookback=8,
            collect=("match_positions",),
            grid=Grid(num_blocks=40),
        )
        assert np.array_equal(result.match_positions, expected[name])
        first = (
            f"first at {result.match_positions[0]:,}"
            if result.match_positions.size
            else "no matches"
        )
        print(
            f"  {name:22s} states={comp.dfa.num_states:3d} "
            f"classes={comp.num_classes:2d}  "
            f"matches={result.match_positions.size:7,}  {first}  "
            f"success={result.success_rate:.3f}"
        )
    t_base = time.perf_counter() - t0

    # ---- multi-pattern: the whole group in ONE pass -------------------- #
    # repro.run_multipattern answers the whole group: joint alphabet
    # compaction across the group, a block-diagonal union table, and one
    # fused gather advancing every pattern's lanes per symbol.
    t0 = time.perf_counter()
    mres = repro.run_multipattern(
        list(machines.values()),
        stream_ids,
        k=4,
        num_chunks=256,
        lookback=8,
        collect=("match_positions",),
    )
    t_multi = time.perf_counter() - t0

    print(f"\nmulti-pattern one-pass (route={mres.route!r}):")
    for pr in mres.patterns:
        assert np.array_equal(pr.match_positions, expected[pr.name])
        print(
            f"  {pr.name:22s} matches={pr.match_count:7,}  "
            f"accepted={pr.accepted}"
        )

    print(
        f"\n{len(PATTERNS)} passes -> 1 pass: "
        f"baseline {t_base:.3f}s, one-pass {t_multi:.3f}s "
        f"({t_base / t_multi:.2f}x aggregate)"
    )
    print("all patterns verified against the sequential reference.")


if __name__ == "__main__":
    main()

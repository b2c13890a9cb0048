#!/usr/bin/env python
"""Huffman compression pipeline with parallel speculative decoding.

End to end: generate an English-like 'book', build a Huffman code from its
character frequencies, compress it to a bit stream, then decode the bits
with the speculative FSM engine (the paper's largest-table application) and
verify the round trip. Also demonstrates the hot-state cache plan of
Section 4.2.

Run:  python examples/huffman_pipeline.py
"""

import numpy as np

import repro
from repro.apps import HuffmanCode
from repro.cache import plan_hot_states
from repro.gpu import Grid
from repro.util.bitstream import bits_to_bytes
from repro.workloads import synthetic_book


def main() -> None:
    # 1. A synthetic Gutenberg-style book.
    text = synthetic_book(1_000_000, rng=11)
    print(f"book: {text.size:,} characters, "
          f"{np.unique(text).size} distinct symbols")

    # 2. Build the code and compress.
    code = HuffmanCode.from_data(text, num_symbols=256)
    bits = code.encode(text)
    payload, nbits = bits_to_bytes(bits)
    print(f"compressed: {nbits:,} bits ({len(payload):,} bytes, "
          f"{8 * len(payload) / text.size:.2f} bits/char)")

    # 3. The decoder FSM (Table 3's 205-state machine, ours measured):
    dfa = code.decoder_dfa()
    print(f"decoder FSM: {dfa.num_states} states x {dfa.num_inputs} inputs")

    # 4. Hot-state cache plan: which rows live in simulated shared memory?
    cache = plan_hot_states(dfa, shared_budget_bytes=48 * 1024)
    print(f"hot-state cache: {cache.rows_resident}/{dfa.num_states} rows, "
          f"{cache.shared_bytes:,} B shared memory")

    # 5. Decode in parallel with spec-8 + parallel merge + caching.
    result = repro.run_speculative(
        dfa,
        bits.astype(np.int32),
        k=8,
        lookback=16,
        collect=("emissions",),
        grid=Grid(cache_table=True),
    )
    _, decoded = result.emissions
    assert np.array_equal(decoded, text), "round trip must be exact"
    print(f"\ndecoded {decoded.size:,} characters — round trip exact")
    print(f"speculation success: {result.success_rate:.4f}   "
          f"cache hit rate: {result.stats.cache_hit_rate:.4f}")

    # 6. Speedups at the paper's 1.24e9-bit scale (Fig. 7 / Fig. 15).
    from repro.gpu.cost import price_at_scale

    PAPER_BITS = 1_243_106_627
    on = price_at_scale(result, PAPER_BITS, cpu_transition_ns=2.22)
    off_run = repro.run_speculative(
        dfa, bits.astype(np.int32), k=8, lookback=16, measure_success=False,
        grid=Grid(),
    )
    off = price_at_scale(off_run, PAPER_BITS, cpu_transition_ns=2.22)
    print(f"modeled V100 speedup at paper scale: {on.speedup:.0f}x "
          "(paper, Fig. 7: 407x)")
    print(f"without caching: {off.speedup:.0f}x  ->  caching gain "
          f"{on.speedup / off.speedup:.2f}x (paper: ~1.5x)")


if __name__ == "__main__":
    main()

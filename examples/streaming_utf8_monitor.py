#!/usr/bin/env python
"""Streaming UTF-8 validation — blocks arrive, state carries over.

A long-lived validator session: byte blocks stream in (as from a network
socket), each block is one pass from the carried machine state, and the
exact state carries across block boundaries — even when a boundary splits
a multi-byte sequence. A corrupted block is detected the moment it is
consumed. The session is also priced on the modeled GPU: each block runs
speculatively on a 20-block grid from the state the stream carried into
it, and the blocks' modeled times add up.

Run:  python examples/streaming_utf8_monitor.py
"""

import numpy as np

from repro.apps import encode_utf8_workload, utf8_validator_dfa
from repro.core.engine import run_speculative
from repro.core.streaming import StreamingExecutor
from repro.gpu import Grid


def main() -> None:
    dfa = utf8_validator_dfa()
    print(f"validator: {dfa.num_states} states x {dfa.num_inputs} byte values")

    # A clean 1.2MB stream arriving in uneven blocks.
    stream = encode_utf8_workload(1_200_000, rng=21)
    rng = np.random.default_rng(3)
    cuts = np.sort(rng.choice(stream.size, size=15, replace=False))
    blocks = np.split(stream, cuts)

    ex = StreamingExecutor(dfa)
    grid = Grid(num_blocks=20)
    gpu_s = cpu_s = 0.0
    hits = total = 0
    for i, block in enumerate(blocks):
        # The modeled launch starts from the state the stream carried in.
        sim = run_speculative(
            dfa.with_start(ex.state), block, k=2, lookback=4, grid=grid
        )
        ex.feed(block)
        assert sim.final_state == ex.state
        gpu_s += sim.timing.total_s
        cpu_s += sim.timing.cpu_s
        hits += sim.stats.success_hits
        total += sim.stats.success_total
        status = "valid so far" if ex.accepted else "mid-sequence"
        print(f"block {i:2d}: {block.size:8,} bytes -> {status}")
    assert ex.accepted
    print(f"\nconsumed {ex.items_consumed:,} bytes in {ex.blocks_consumed} "
          f"blocks; speculation success {hits / total:.4f}")
    print(f"session modeled GPU time: {gpu_s * 1e3:.2f} ms "
          f"({cpu_s / gpu_s:.0f}x vs one CPU core)")

    # Now a corrupted stream: the absorbing reject state pins the verdict.
    bad = encode_utf8_workload(300_000, corruption_rate=0.001, rng=22)
    ex.reset()
    for block in np.array_split(bad, 4):
        ex.feed(block)
    print(f"\ncorrupted stream verdict: "
          f"{'valid' if ex.accepted else 'INVALID (reject state reached)'}")


if __name__ == "__main__":
    main()

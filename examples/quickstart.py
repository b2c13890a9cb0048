#!/usr/bin/env python
"""Quickstart: speculative FSM execution in five minutes.

Builds the paper's Div7 machine (is a binary number divisible by 7?),
runs it speculatively across a simulated GPU grid with both merge
strategies, verifies against the sequential reference, and prints the
modeled V100 timing that the paper's figures report.

Run:  python examples/quickstart.py
"""

import repro
from repro.apps import div7_dfa
from repro.fsm.run import run_reference
from repro.gpu import Grid
from repro.workloads import random_bits


def main() -> None:
    # 1. An FSM: 7 states, binary input, state = value mod 7.
    dfa = div7_dfa()
    print(f"machine: {dfa!r}")

    # 2. A workload: 2 million random bits.
    bits = random_bits(2_000_000, rng=42)

    # 3. The trusted baseline: the paper's Figure 1c loop.
    expected = run_reference(dfa, bits)
    print(f"sequential reference final state: {expected}")

    # 4. Speculative execution on a simulated V100: 80 blocks x 256
    #    threads = 20480 chunks, spec-N (Div7 never converges, so the
    #    paper enumerates all 7 states), parallel tree merge.
    result = repro.run_speculative(
        dfa,
        bits,
        k=None,  # spec-N
        merge="parallel",
        grid=Grid(),  # the paper's launch; Grid(num_blocks=20) is smaller
    )
    assert result.final_state == expected, "speculation must be exact"
    print(f"speculative final state:          {result.final_state}  (match)")
    print(f"speculation success rate:         {result.success_rate:.3f}")

    # 5. What did it cost? Counted events, priced on the V100 model.
    s = result.stats
    print(f"\ncounted work: {s.local_transitions:,} transitions over "
          f"{s.num_chunks:,} chunks (k={s.k})")
    t = result.timing
    print("modeled V100 timing: "
          f"local {t.local_s * 1e3:.2f} ms + merge {t.merge_s * 1e3:.3f} ms "
          f"-> speedup {t.speedup:.0f}x over 1 CPU core")

    # 6. The paper's headline: the sequential merge stops scaling.
    print("\nmerge scalability (modeled speedup):")
    for merge in ("sequential", "parallel"):
        speeds = []
        for blocks in (20, 40, 80):
            r = repro.run_speculative(
                dfa, bits, k=None, merge=merge, measure_success=False,
                grid=Grid(num_blocks=blocks),
            )
            # project counted stats to the paper's 2^30-item input
            proj = r.stats.project(2**30)
            model = repro.CostModel(cpu_transition_ns=2.23)
            tb = model.price(
                proj, num_blocks=blocks, threads_per_block=256,
                merge=merge, layout_transformed=True,
            )
            speeds.append(f"{blocks} blocks: {tb.speedup:6.1f}x")
        print(f"  {merge:10s} {'   '.join(speeds)}")
    print("\n(paper, Fig. 11: sequential peaks near 105x and declines; "
          "parallel reaches 397.93x at 80 blocks)")


if __name__ == "__main__":
    main()

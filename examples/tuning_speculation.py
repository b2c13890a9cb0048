#!/usr/bin/env python
"""Choosing k and the merge strategy: the paper's design space, explored.

Sweeps the speculation width k and the merge implementation for regular
expression 1, printing the measured success rate and the modeled V100 time
breakdown for each point — the experiment behind Figures 12/13 and the
"how to choose k" discussion of Section 5.3 / the paper's future work.

Run:  python examples/tuning_speculation.py
"""

import repro
from repro.apps.registry import get_application
from repro.gpu import Grid
from repro.gpu.cost import CostModel


def main() -> None:
    app = get_application("regex1")
    dfa, inputs = app.build_instance(1_000_000, seed=5)
    model = CostModel(cpu_transition_ns=app.paper_cpu_ns_per_item)

    print(f"machine: {dfa.num_states} states x {dfa.num_inputs} input classes")
    print(f"{'k':>4} {'merge':>10} {'success':>8} {'local':>9} {'merge':>9} "
          f"{'reexec':>9} {'fixup':>9} {'speedup':>9}")

    best = (None, 0.0)
    for k in (1, 2, 4, 8, 16, None):
        for merge in ("sequential", "parallel"):
            r = repro.run_speculative(
                dfa, inputs, k=k, merge=merge, lookback=app.default_lookback,
                grid=Grid(),
            )
            tb = model.price(
                r.stats.project(app.paper_num_items),
                num_blocks=80, threads_per_block=256, merge=merge,
                layout_transformed=True,
            )
            label = "N" if k is None else k
            print(f"{label:>4} {merge:>10} {r.success_rate:8.3f} "
                  f"{tb.local_s * 1e3:8.2f}m {tb.merge_s * 1e3:8.3f}m "
                  f"{tb.reexec_s * 1e3:8.3f}m "
                  f"{tb.fixup_s * 1e3:8.3f}m {tb.speedup:8.1f}x")
            if merge == "parallel" and tb.speedup > best[1]:
                best = (label, tb.speedup)

    print(f"\nbest configuration: spec-{best[0]} with parallel merge "
          f"({best[1]:.0f}x modeled)")
    print("paper (Fig. 12): best k for regex 1 is 8; sequential merge "
          "plateaus regardless of k (Fig. 3)")


if __name__ == "__main__":
    main()

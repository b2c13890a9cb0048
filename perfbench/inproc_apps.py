"""``inproc_apps``: the documented central call, in process, on the five paper apps.

Closed loop, one caller: ``repro.run_speculative(dfa, x, k=app.best_k)``
with every other argument at its default (20,480 chunks, vectorized
backend, auto collapse), cycling through huffman, regex1, regex2, html
and div7 at ``ITEMS`` symbols per call. Speculation (``core.lookback``)
dominates; engine, merge and pricing run on every call. No pool, no
native code, no serving layer.
"""

from __future__ import annotations

import bulk
from bulk import Call
from layers import counter, self_time, span_total

ITEMS = 1 << 20
WARM_ITEMS = 1 << 18
APPS = ("huffman", "regex1", "regex2", "html", "div7")


def prepare(seed: int) -> dict:
    return bulk.prepare_apps(APPS, seed, ITEMS, WARM_ITEMS)


def setup(ctx: dict) -> dict:
    return {"machines": bulk.build_machines(ctx)}


def _calls(ctx: dict, state: dict, which: str) -> list:
    import repro

    out = []
    for case in ctx["cases"]:
        dfa = state["machines"][case.name]
        x, ref = case.inputs[which], case.refs[which]
        out.append(
            Call(
                name=case.name,
                items=int(x.size),
                run=lambda dfa=dfa, x=x, k=case.k: repro.run_speculative(dfa, x, k=k),
                check=lambda r, ref=ref: int(r.final_state) == ref,
            )
        )
    return out


def calls(ctx: dict, state: dict) -> list:
    return _calls(ctx, state, "timed")


def warm_calls(ctx: dict, state: dict) -> list:
    return _calls(ctx, state, "warm")


def ref_sample(ctx: dict):
    """A machine and input for the sequential ``DFA.run`` baseline."""
    case = ctx["cases"][0]
    return bulk.build_machines(ctx)[case.name], case.inputs["timed"]


def close(state: dict) -> None:
    pass


def decisions(results) -> dict:
    out = {}
    for name, r in results:
        c = r.config
        out[name] = {"kernel": c.kernel, "collapse": c.collapse, "backend": c.backend}
    return out


def layers(trace, results, state) -> dict:
    """Per-call means over the traced loop (ms unless named otherwise)."""
    n = max(1, len(results))
    engine_self = sum(self_time(trace, s) for s in trace.find("bench.call"))
    stats = [r.stats for _, r in results]
    items = sum(s.num_items for s in stats)
    lanes = sum(s.num_chunks * s.k for s in stats)
    reexec = sum(
        s.reexec_items_seq + s.reexec_items_eager + s.reexec_items_early + s.fixup_items
        for s in stats
    )
    checks = sum(
        counter(trace, f"merge.semijoin.{k}") for k in ("skipped", "match", "miss")
    )
    return {
        "engine.self_ms": engine_self / n * 1e3,
        "engine.truth_ms": span_total(trace, "engine.truth_recovery") / n * 1e3,
        "lookback.speculate_ms": span_total(trace, "lookback.speculate") / n * 1e3,
        "lookback.hit_rate": sum(s.success_hits for s in stats)
        / max(1, sum(s.success_total for s in stats)),
        "kernels.plan_ms": span_total(trace, "kernels.plan_kernel") / n * 1e3,
        "kernels.step_ms": span_total(trace, "engine.local_exec") / n * 1e3,
        "convergence.lanes_collapsed_frac": sum(s.lanes_collapsed for s in stats)
        / max(1, lanes),
        "merge.merge_ms": span_total(trace, "merge.merge_parallel") / n * 1e3,
        "merge.checks_skipped_frac": counter(trace, "merge.semijoin.skipped")
        / max(1, checks),
        "merge.reexec_items_frac": reexec / max(1, items),
        "gpu.price_ms": span_total(trace, "engine.price") / n * 1e3,
    }

"""The closed loop the three bulk workloads share, and their common metrics.

One caller cycles through a fixed list of calls; each call's output is
checked against its precomputed reference as soon as it returns. A cycle
is one pass over the list, so every cycle does the same work and the
median cycle time is the workload's steady figure.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import refs

MIN_CYCLES = 3
BUILD_ITEMS = 1 << 10
REF_SAMPLE = 1 << 16


@dataclass
class AppCase:
    """One paper app: its timed and warm-up inputs with their references."""

    name: str
    k: int | None
    seed: int
    inputs: dict
    refs: dict


def prepare_apps(names, seed: int, items: int, warm_items: int) -> dict:
    """Inputs of ``items`` symbols per app from ``seed``, and their references.

    The warm-up input is a prefix of the timed one.
    """
    from repro.apps.registry import get_application

    cases = []
    for i, name in enumerate(names):
        app = get_application(name)
        app_seed = seed * 101 + i
        dfa, x = app.build_instance(items, seed=app_seed)
        x = np.ascontiguousarray(x)
        inputs = {"timed": x, "warm": x[:warm_items]}
        cases.append(
            AppCase(
                name=name,
                k=app.best_k,
                seed=app_seed,
                inputs=inputs,
                refs={w: refs.final_state(dfa.table, dfa.start, v) for w, v in inputs.items()},
            )
        )
    return {"cases": cases}


def build_machines(ctx: dict) -> dict:
    """Construct every app's machine (deterministic in the app's seed)."""
    from repro.apps.registry import get_application

    return {
        case.name: get_application(case.name).build_instance(BUILD_ITEMS, seed=case.seed)[0]
        for case in ctx["cases"]
    }


@dataclass
class Call:
    """One timed call: a thunk returning the output and a checker of it."""

    name: str
    items: int
    run: object  # () -> output
    check: object  # output -> bool


@dataclass
class LoopResult:
    cycles_s: list = field(default_factory=list)
    cycle_calls_s: list = field(default_factory=list)  # per cycle, each call's duration
    by_name: dict = field(default_factory=dict)  # call name -> durations
    outputs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def median_cycle_s(self) -> float:
        return statistics.median(self.cycles_s)

    def median_call_ms(self) -> dict:
        return {k: statistics.median(v) * 1e3 for k, v in self.by_name.items()}


def closed_loop(calls, seconds: float, *, keep: int = 1, span=None) -> LoopResult:
    """Cycle through ``calls`` for ``seconds`` (at least ``MIN_CYCLES`` cycles).

    Outputs of the first ``keep`` cycles are kept (all of them when
    ``keep < 0``). ``span``, when given, opens a context around each call.
    """
    out = LoopResult()
    deadline = time.perf_counter() + seconds
    while len(out.cycles_s) < MIN_CYCLES or time.perf_counter() < deadline:
        c0 = time.perf_counter()
        durations = []
        for call in calls:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                with span() if span else contextlib.nullcontext():
                    res = call.run()
            except Exception as exc:  # a failed call is counted, not fatal
                out.failed += 1
                out.errors.append(f"{call.name}: {type(exc).__name__}: {exc}")
                continue
            durations.append(time.perf_counter() - t0)
            out.by_name.setdefault(call.name, []).append(durations[-1])
            if not call.check(res):
                out.failed += 1
                out.errors.append(f"{call.name}: output differs from reference")
            if keep < 0 or len(out.cycles_s) < keep:
                out.outputs.append((call.name, res))
        out.cycles_s.append(time.perf_counter() - c0)
        if len(durations) == len(calls):
            out.cycle_calls_s.append(durations)
    return out


def end_to_end(calls, loop: LoopResult, setup_s: float) -> dict:
    """The end-to-end metrics of a bulk workload, from one untraced loop."""
    cycle = loop.median_cycle_s()
    items = sum(c.items for c in calls)
    # The calls of one cycle differ in kind, so the median of all calls
    # jumps between apps. A cycle's typical call is the geometric mean of
    # its calls; the median is taken over cycles.
    typical = [
        math.exp(statistics.fmean(math.log(d) for d in ds)) for ds in loop.cycle_calls_s
    ]
    return {
        "items_per_s": items / cycle,
        "setup_s": setup_s,
        "p50_ms": statistics.median(typical) * 1e3,
    }


def fsm_ref_items_per_s(dfa, x) -> float:
    """Throughput of the sequential ``DFA.run`` baseline on a sample."""
    x = x[:REF_SAMPLE]
    t0 = time.perf_counter()
    dfa.run(x)
    return x.size / (time.perf_counter() - t0)

"""``pool_apps``: the persistent shared-memory pool on the five paper apps.

Closed loop, one caller. One ``ScaleoutPool(dfa, num_workers=2,
k=app.best_k, backend="native")`` per app stays open for the whole run
and ``pool.run(x)`` cycles at ``ITEMS`` symbols. Publish, dispatch, wait,
the worker fold and the parent merge live here; regex2 at k=1 misses a
boundary on every call, so the parent re-executes a whole segment. Two
workers because a one-worker pool never dispatches and more would
oversubscribe a two-CPU host. The in-process engine is bypassed.
"""

from __future__ import annotations

import statistics

import bulk
from bulk import Call
from layers import counter

ITEMS = 1 << 23
WARM_ITEMS = 1 << 20
WORKERS = 2
APPS = ("huffman", "regex1", "regex2", "html", "div7")


def prepare(seed: int) -> dict:
    return bulk.prepare_apps(APPS, seed, ITEMS, WARM_ITEMS)


def setup(ctx: dict) -> dict:
    from repro.core.mp_executor import ScaleoutPool

    pools = {}
    try:
        machines = bulk.build_machines(ctx)
        for case in ctx["cases"]:
            pools[case.name] = ScaleoutPool(
                machines[case.name], num_workers=WORKERS, k=case.k, backend="native"
            )
    except BaseException:
        close({"pools": pools})
        raise
    return {"pools": pools}


def _calls(ctx: dict, state: dict, which: str) -> list:
    out = []
    for case in ctx["cases"]:
        pool = state["pools"][case.name]
        x, ref = case.inputs[which], case.refs[which]
        out.append(
            Call(
                name=case.name,
                items=int(x.size),
                run=lambda pool=pool, x=x: pool.run(x),
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
    for pool in state.get("pools", {}).values():
        pool.close()


def decisions(results) -> dict:
    out = {}
    for name, r in results:
        out[name] = {
            "workers": r.num_workers,
            "degraded": bool(r.degraded),
            "collapse_active": bool(r.stats.lanes_collapsed or r.stats.chunks_converged),
        }
    return out


def kernels(state: dict) -> dict:
    return {name: pool.kernel for name, pool in state["pools"].items()}


def layers(trace, results, state) -> dict:
    n = max(1, len(results))
    pools = state["pools"]
    timings = [r.timing for _, r in results if r.timing is not None]
    workers = [r.worker_timings for _, r in results if r.worker_timings]
    stats = [r.stats for _, r in results]
    items = sum(s.num_items for s in stats)
    reexec = sum(s.fixup_items + s.reexec_items_seq + s.reexec_items_eager for s in stats)
    # each worker segment steps sub_chunks_per_worker chunks of k lanes
    lanes = sum(
        r.stats.num_chunks * pools[name].sub_chunks_per_worker * r.stats.k
        for name, r in results
    )

    def mean_ms(field: str) -> float:
        return statistics.fmean(getattr(t, field) for t in timings) * 1e3 if timings else 0.0

    return {
        "lookback.hit_rate": sum(s.success_hits for s in stats)
        / max(1, sum(s.success_total for s in stats)),
        "convergence.lanes_collapsed_frac": sum(s.lanes_collapsed for s in stats)
        / max(1, lanes),
        "pool.publish_ms": mean_ms("publish_s"),
        "pool.dispatch_ms": mean_ms("dispatch_s"),
        "pool.wait_ms": mean_ms("wait_s"),
        "pool.merge_ms": mean_ms("merge_s"),
        "pool.worker_ms": statistics.fmean(
            w.total_s for ws in workers for w in ws
        ) * 1e3 if workers else 0.0,
        "pool.worker_skew": statistics.fmean(
            max(w.total_s for w in ws) / max(1e-9, min(w.total_s for w in ws))
            for ws in workers
        ) if workers else 0.0,
        "pool.task_bytes": sum(s.pool_task_bytes for s in stats) / n,
        "pool.reexec_items_frac": reexec / max(1, items),
        "resilience.retries": counter(trace, "fault.retries"),
        "resilience.respawns": counter(trace, "fault.respawns"),
        "pool.degraded_calls": sum(1 for _, r in results if r.degraded),
    }

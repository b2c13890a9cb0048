"""Export modeled executions as Chrome trace-event JSON.

Load the output at ``chrome://tracing`` (or Perfetto) to see the modeled
execution the way a profiler would show it: local processing across the
simulated SMs, then the warp/block/global merge stages, re-execution, and
fix-up on the timeline. Purely a visualization of the cost model — spans
come from :class:`repro.gpu.cost.TimeBreakdown`, not from wall clock.

Since the observability layer landed, this module is a thin adapter: the
modeled breakdown is first laid out as a :class:`repro.obs.RunTrace`
(:func:`modeled_run_trace`) — the same span format every backend emits —
and :mod:`repro.obs.export` does the Chrome encoding. Wall-clock traces
from a profiled run and modeled traces from the cost model therefore open
side by side in the same viewer with the same structure.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.engine import SpecExecutionResult
from repro.gpu.cost import TimeBreakdown, price_at_scale
from repro.obs.export import chrome_trace_events
from repro.obs.trace import RunTrace

__all__ = ["modeled_run_trace", "trace_events", "write_trace"]


def modeled_run_trace(
    result: SpecExecutionResult,
    *,
    timing: TimeBreakdown | None = None,
    sm_lanes: int = 8,
) -> RunTrace:
    """Lay the modeled time breakdown out as a :class:`RunTrace`.

    Spans carry a ``tid`` attribute so the Chrome exporter draws the local
    stage across ``sm_lanes`` representative SM rows (purely cosmetic —
    all SMs run the same schedule) and the merge/re-exec/fix-up chain on
    row 0. All timestamps are modeled seconds, not wall clock.
    """
    tb = timing if timing is not None else result.timing
    if tb is None:
        raise ValueError("result carries no timing; run with grid= or pass timing=")
    cfg = result.config
    trace = RunTrace(f"{cfg.device.name} (modeled)")
    lanes = max(1, min(sm_lanes, cfg.device.num_sms))
    local_name = (
        f"local spec-{'N' if cfg.enumerative else cfg.k} ({cfg.layout})"
    )
    for lane in range(lanes):
        trace.add_span(
            local_name, 0.0, tb.local_s,
            tid=lane + 1,
            chunks=result.stats.num_chunks,
            transitions=result.stats.local_transitions,
        )
    cursor = tb.local_s
    for name, dur_s, attrs in (
        (
            f"{cfg.merge} merge ({cfg.check} checks)",
            tb.merge_s,
            {
                "pair_ops": result.stats.merge_pair_ops,
                "comparisons": result.stats.check_comparisons,
                "global_steps": result.stats.merge_global_steps,
            },
        ),
        (
            "re-execution (eager)",
            tb.reexec_s,
            {"items": result.stats.reexec_items_eager},
        ),
        (
            "fix-up descent",
            tb.fixup_s,
            {
                "chunks": result.stats.fixup_chunks,
                "items": result.stats.fixup_items,
                "probes": result.stats.fixup_probes,
            },
        ),
    ):
        if dur_s > 0:
            trace.add_span(name, cursor, cursor + dur_s, tid=0, **attrs)
            cursor += dur_s
    return trace


def trace_events(
    result: SpecExecutionResult,
    *,
    timing: TimeBreakdown | None = None,
    sm_lanes: int = 8,
) -> list[dict]:
    """Chrome trace events for one execution.

    ``sm_lanes`` controls how many representative SM rows the local stage
    is drawn across (purely cosmetic — all SMs run the same schedule).
    The GPU-side spans come from :func:`modeled_run_trace` through the
    shared Chrome emitter; the single-core CPU baseline is appended as a
    second process for visual comparison.
    """
    tb = timing if timing is not None else result.timing
    if tb is None:
        raise ValueError("result carries no timing; run with grid= or pass timing=")
    us = 1e6  # chrome traces are in microseconds
    events = chrome_trace_events(
        modeled_run_trace(result, timing=tb, sm_lanes=sm_lanes), pid=0
    )
    # CPU baseline reference track
    events.append(
        {
            "name": "single-core CPU baseline",
            "ph": "X",
            "pid": 1,
            "tid": 0,
            "ts": 0.0,
            "dur": tb.cpu_s * us,
            "args": {"speedup": round(tb.speedup, 2)},
        }
    )
    events.append(
        {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "CPU (modeled)"}}
    )
    return events


def write_trace(
    result: SpecExecutionResult,
    path: str | Path,
    *,
    at_scale: int | None = None,
) -> Path:
    """Write the trace JSON; ``at_scale`` re-prices at a larger input first."""
    timing = (
        price_at_scale(result, at_scale) if at_scale is not None else result.timing
    )
    path = Path(path)
    path.write_text(
        json.dumps({"traceEvents": trace_events(result, timing=timing)}, indent=1)
    )
    return path

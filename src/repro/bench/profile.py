"""``python -m repro.bench --profile`` — wall-clock stage profiling.

Runs one registry application through the engine with a
:class:`repro.obs.RunTrace` active, measures real wall time around the
call, and reports the paper's stage decomposition (local exec / checks /
merge-by-level / re-exec) instead of a single opaque number. Three
artifacts per run:

* the text table on stdout (:func:`repro.obs.export.format_profile`);
* ``runtrace_<app>.json`` — the structured span/metric record, the file
  CI uploads as a workflow artifact;
* ``chrome_trace_<app>.json`` — open at ``chrome://tracing`` to see the
  merge tree's per-level timing as a flame chart.

The printed table is built by *re-loading* the JSON record, so every
profile run also exercises the export round-trip.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.obs.export import (
    format_profile,
    load_run_trace,
    write_chrome_trace,
    write_run_trace,
)
from repro.obs.trace import RunTrace

__all__ = ["run_profile"]


def run_profile(
    app_name: str = "huffman",
    *,
    num_items: int = 400_000,
    k: int | None = None,
    num_blocks: int = 20,
    threads_per_block: int = 256,
    merge: str = "parallel",
    out_dir: str | Path = ".",
    seed: int = 0,
) -> tuple[str, float, Path, Path]:
    """Profile one application run; return ``(text, wall_s, json, chrome)``.

    ``k`` defaults to the application's paper-best width. ``wall_s`` is
    the measured wall time (seconds) around the engine call; the printed
    stage spans are checked against it, not against modeled time.
    """
    from repro.apps.registry import get_application
    from repro.core.engine import run_speculative
    from repro.gpu.device import Grid

    app = get_application(app_name)
    dfa, inputs = app.build_instance(num_items, seed=seed)
    k_run = app.best_k if k is None else k

    trace = RunTrace(
        f"{app_name} profile",
        app=app_name,
        items=num_items,
        k="N" if k_run is None else k_run,
        num_blocks=num_blocks,
        threads_per_block=threads_per_block,
        merge=merge,
    )
    # The engine's stage spans land as trace roots (speculate, layout,
    # local_exec, merge with its per-level children, truth recovery,
    # pricing) — so "stages total" in the table is directly comparable to
    # the wall time measured here.
    with trace.activate():
        t0 = time.perf_counter()
        result = run_speculative(
            dfa,
            inputs,
            k=k_run,
            merge=merge,
            lookback=app.default_lookback,
            grid=Grid(num_blocks=num_blocks, threads_per_block=threads_per_block),
        )
        wall_s = time.perf_counter() - t0
    trace.meta["final_state"] = int(result.final_state)
    trace.meta["success_rate"] = round(result.success_rate, 4)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = write_run_trace(trace, out_dir / f"runtrace_{app_name}.json")
    chrome_path = write_chrome_trace(
        trace, out_dir / f"chrome_trace_{app_name}.json"
    )

    # Build the table from the JSON record — the profile path doubles as a
    # round-trip check of the exporter.
    loaded = load_run_trace(json_path)
    text = format_profile(loaded, wall_s=wall_s)
    return text, wall_s, json_path, chrome_path

"""Shared experiment machinery: configuration, measurement, result records.

``measure`` runs the functional engine once on a bench-scale input,
projects its statistics to the paper's input size, and prices the modeled
V100 time with the application's Table 3 CPU baseline — the exact pipeline
described in DESIGN.md. Application instances (machine + input) are cached
per (name, size, seed) so a figure's many configurations share one build.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.apps.registry import Application, get_application
from repro.core.engine import run_speculative
from repro.fsm.dfa import DFA
from repro.gpu.cost import CostModel, TimeBreakdown
from repro.gpu.device import TESLA_V100, Grid

__all__ = ["BenchConfig", "ExperimentResult", "measure", "bench_items", "app_instance"]

_DEFAULT_ITEMS = 1_000_000


def bench_items() -> int:
    """Functional input size for experiments (env ``REPRO_BENCH_ITEMS``)."""
    return int(os.environ.get("REPRO_BENCH_ITEMS", _DEFAULT_ITEMS))


@dataclass(frozen=True)
class BenchConfig:
    """One engine configuration to measure."""

    app: str
    k: int | None  # None = spec-N
    num_blocks: int = 80
    threads_per_block: int = 256
    merge: str = "parallel"
    check: str = "auto"
    reexec: str = "delayed"
    layout: str = "transformed"
    lookback: int | None = None  # None = application default
    cache_table: bool = False

    def label(self) -> str:
        """Short human-readable identifier."""
        kk = "N" if self.k is None else str(self.k)
        return f"{self.app}/spec-{kk}/{self.merge}/B{self.num_blocks}"


@dataclass
class ExperimentResult:
    """Rows reproducing one paper table/figure, plus context."""

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_text(self, columns: list[str] | None = None) -> str:
        """Render as a text report."""
        from repro.bench.tables import format_table

        parts = [format_table(self.rows, columns=columns, title=f"{self.experiment_id}: {self.title}")]
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)


@lru_cache(maxsize=16)
def app_instance(name: str, num_items: int, seed: int) -> tuple[DFA, np.ndarray]:
    """Cached (machine, input) build for one application."""
    return get_application(name).build_instance(num_items, seed=seed)


@dataclass(frozen=True)
class Measurement:
    """Engine outcome plus modeled paper-scale timing."""

    config: BenchConfig
    timing: TimeBreakdown
    success_rate: float
    reexec_items: int
    check_comparisons: int
    hash_probe_steps: int
    cache_hit_rate: float

    @property
    def speedup(self) -> float:
        """Modeled speedup over the paper-scale CPU baseline."""
        return self.timing.speedup


def measure(
    config: BenchConfig,
    *,
    num_items: int | None = None,
    seed: int = 1,
    project_to_paper_scale: bool = True,
) -> Measurement:
    """Run one configuration functionally and price it at paper scale."""
    app: Application = get_application(config.app)
    n = num_items if num_items is not None else bench_items()
    dfa, inputs = app_instance(config.app, n, seed)
    lookback = (
        config.lookback if config.lookback is not None else app.default_lookback
    )
    result = run_speculative(
        dfa,
        inputs,
        k=config.k,
        merge=config.merge,
        check=config.check,
        reexec=config.reexec,
        lookback=lookback,
        grid=Grid(
            num_blocks=config.num_blocks,
            threads_per_block=config.threads_per_block,
            layout=config.layout,
            cache_table=config.cache_table,
        ),
    )
    stats = result.stats
    if project_to_paper_scale:
        stats = stats.project(app.paper_num_items)
    model = CostModel(
        device=TESLA_V100, cpu_transition_ns=app.paper_cpu_ns_per_item
    )
    timing = model.price(
        stats,
        num_blocks=config.num_blocks,
        threads_per_block=config.threads_per_block,
        merge=config.merge,
        layout_transformed=(config.layout == "transformed"),
        cache_enabled=config.cache_table,
    )
    return Measurement(
        config=config,
        timing=timing,
        success_rate=result.stats.success_rate,
        reexec_items=result.stats.total_reexec_items,
        check_comparisons=result.stats.check_comparisons,
        hash_probe_steps=result.stats.hash_probe_steps,
        cache_hit_rate=result.stats.cache_hit_rate,
    )

"""Benchmark-side spans around public layer functions, for the traced run only.

:data:`TARGETS` is the one table of functions the traced run wraps. Each
wrapper opens a span on the program's ambient trace
(:func:`repro.obs.trace.trace_span`) around the original call, so the
benchmark's spans nest with the program's own spans in one trace. A
target missing after a refactor is reported ``absent`` instead of
crashing the run. :func:`uninstall` puts every attribute back exactly as
it was found.

Functions imported by name into a caller's namespace are wrapped where
the caller looks them up, so each target names the importing module.
"""

from __future__ import annotations

import functools
import importlib

# (span name, module, attribute path) — one row per lookup site.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("lookback.speculate", "repro.core.engine", "speculate"),
    ("lookback.speculate", "repro.core.mp_executor", "speculate"),
    ("lookback.speculate", "repro.core.multipattern", "speculate"),
    ("kernels.plan_kernel", "repro.core.engine", "plan_kernel"),
    ("kernels.plan_kernel", "repro.core.mp_executor", "plan_kernel"),
    ("kernels.plan_kernel", "repro.core.multipattern", "plan_kernel"),
    ("kernels.plan_kernel", "repro.serve.server", "plan_kernel"),
    ("merge.merge_parallel", "repro.core.engine", "merge_parallel"),
    ("merge.merge_parallel", "repro.core.multipattern", "merge_parallel"),
    ("native.process_chunks", "repro.core.native.runtime", "NativeKernel.process_chunks"),
    ("mp.stack_machines", "repro.core.multipattern", "stack_machines"),
    ("mp.remap", "repro.fsm.alphabet", "JointCompaction.remap"),
    ("mp.batch", "repro.core.multipattern", "run_multipattern_batch"),
    ("serve.run_speculative_batch", "repro.serve.server", "run_speculative_batch"),
)


# Per-layer metrics read from a benchmark-side span: reported absent when
# no lookup site of their span could be wrapped.
WRAPPED_METRICS = {
    "lookback.speculate_ms": "lookback.speculate",
    "kernels.plan_ms": "kernels.plan_kernel",
    "merge.merge_ms": "merge.merge_parallel",
    "native.step_ms": "native.process_chunks",
    "mp.remap_ms": "mp.remap",
    "mp.batch_ms": "mp.batch",
    "serve.round_ms_p50": "serve.run_speculative_batch",
}


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def _wrap(span: str, fn):
    from repro.obs.trace import trace_span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with trace_span(span):
            return fn(*args, **kwargs)

    return wrapper


class Wrappers:
    """Install the :data:`TARGETS` wrappers; remove them exactly as found."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> "Wrappers":
        for span, module, path in self.targets:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}:{path}")
                continue
            owner, attr, original = found
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(span, original))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def span_present(self, span: str) -> bool:
        """Whether at least one lookup site of ``span`` was wrapped."""
        missing = set(self.absent)
        return any(
            s == span and f"{m}:{p}" not in missing for s, m, p in self.targets
        )

    def absent_metrics(self) -> list[str]:
        """Metrics of :data:`WRAPPED_METRICS` whose span no site provides."""
        return [m for m, span in WRAPPED_METRICS.items() if not self.span_present(span)]

    def __enter__(self) -> "Wrappers":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# --------------------------------------------------------------------------- #
# reading a trace
# --------------------------------------------------------------------------- #


def covered(intervals) -> float:
    """Total length covered by a set of ``(t0, t1)`` intervals."""
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def self_time(trace, span) -> float:
    """A span's duration minus the part of it its direct children cover."""
    kids = [
        (max(c.t0, span.t0), min(c.t1, span.t1))
        for c in trace.spans
        if c.parent == span.index and c.t1 >= 0
    ]
    return span.duration_s - covered([k for k in kids if k[1] > k[0]])


def span_total(trace, name: str) -> float:
    """Seconds spent in spans called ``name``, overlaps within the name merged."""
    return covered([(s.t0, s.t1) for s in trace.spans if s.name == name and s.t1 >= 0])


def first_span_total(trace, *names: str) -> float:
    """:func:`span_total` of the first of ``names`` that the trace holds."""
    for name in names:
        total = span_total(trace, name)
        if total:
            return total
    return 0.0


def counter(trace, name: str) -> int:
    c = trace.counters.get(name)
    return int(c.value) if c is not None else 0

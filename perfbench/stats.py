"""Statistics the benchmark reports: percentiles, backlog growth and the rate ladder.

Pure functions with no dependency on the program under test, so the
rules that turn raw samples into reported numbers are unit-tested on
their own (``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

import math
import statistics

# A reported percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if pos == lo:
        return xs[lo]
    if math.isinf(xs[hi]):  # shed requests count as infinitely late
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile."""
    return int(math.floor(n * (1.0 - q / 100.0) + 1e-9))


def tail(values, q: float, beyond: int = MIN_BEYOND) -> float | None:
    """The ``q``-th percentile, or ``None`` when too few samples lie beyond it."""
    if samples_beyond(len(values), q) < beyond:
        return None
    return percentile(values, q)


def backlog_growing(outstanding, *, slack: int = 4) -> bool:
    """Whether requests in flight grew over an offered window.

    ``outstanding`` holds the in-flight count sampled at even intervals
    while requests were being offered. The backlog grows when the last
    third of the window holds clearly more requests than the first third:
    by ``slack`` requests and by half again.
    """
    xs = list(outstanding)
    if len(xs) < 3:
        return False
    third = len(xs) // 3
    first = statistics.fmean(xs[:third])
    last = statistics.fmean(xs[-third:])
    return last > first + slack and last > 1.5 * first


def rung_passes(rung: dict, limit_ms: float) -> bool:
    """A ladder rung passes when its tail meets the limit with no backlog growth.

    ``rung`` has ``p_ms`` (the tail latency, shed requests counted as
    misses; ``None`` when too few samples), ``growing`` and ``shed``.
    """
    p = rung.get("p_ms")
    return (
        p is not None
        and p <= limit_ms
        and not rung.get("growing", False)
        and rung.get("shed", 0) == 0
    )


def max_rate(rungs, limit_ms: float) -> float:
    """Highest sustainable rate from an ascending ladder of measured rungs.

    Walks the rungs in rate order and stops at the first that fails. When
    the next rung failed on latency alone (no shedding, no backlog
    growth), the rate where the tail crosses ``limit_ms`` is interpolated
    linearly between the two rungs, so small capacity changes move the
    result continuously instead of by whole rungs. Returns 0.0 when the
    lowest rung already fails.
    """
    rungs = sorted(rungs, key=lambda r: r["rate"])
    best = 0.0
    for i, rung in enumerate(rungs):
        if not rung_passes(rung, limit_ms):
            if i == 0:
                return 0.0
            prev = rungs[i - 1]
            p0, p1 = prev["p_ms"], rung.get("p_ms")
            if (
                p1 is not None
                and p1 > p0
                and not rung.get("growing", False)
                and rung.get("shed", 0) == 0
            ):
                frac = (limit_ms - p0) / (p1 - p0)
                best = prev["rate"] + frac * (rung["rate"] - prev["rate"])
            return best
        best = float(rung["rate"])
    return best

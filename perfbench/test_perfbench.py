"""Tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import asyncio
import math
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import refs  # noqa: E402
import serve_open  # noqa: E402
import stats  # noqa: E402

# --------------------------------------------------------------------------- #
# percentiles and the sample-count rule
# --------------------------------------------------------------------------- #


def test_sample_count_rule():
    assert stats.samples_beyond(5000, 99) == 50
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(999, 99) == 9
    assert stats.samples_beyond(200, 95) == 10


def test_tail_refuses_thin_samples():
    xs = list(range(999))
    assert stats.tail(xs, 99) is None
    assert stats.tail(list(range(1000)), 99) == pytest.approx(989.01)
    assert stats.tail(xs, 95) is not None


def test_percentile_interpolates_and_counts_misses():
    assert stats.percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert stats.percentile([5], 99) == 5
    lat = [0.001] * 98 + [math.inf] * 2
    assert stats.percentile(lat, 50) == pytest.approx(0.001)
    assert math.isinf(stats.percentile(lat, 99))


# --------------------------------------------------------------------------- #
# the max_rps ladder
# --------------------------------------------------------------------------- #


def _curve(rate, cap=1000.0, base_ms=5.0):
    """M/M/1-shaped tail latency: grows without bound as rate nears cap."""
    return base_ms / (1.0 - rate / cap)


def test_ladder_interpolates_on_a_latency_curve():
    limit = 50.0
    rungs = [{"rate": r, "p_ms": _curve(r), "growing": False, "shed": 0} for r in (500, 700, 850, 950)]
    got = stats.max_rate(rungs, limit)
    # The analytic crossing is 900 req/s; it lies between the 850 and 950 rungs.
    assert 850 < got < 950
    p0, p1 = _curve(850), _curve(950)
    assert got == pytest.approx(850 + 100 * (limit - p0) / (p1 - p0))


def test_ladder_stops_at_growing_backlog():
    rungs = [
        {"rate": 500, "p_ms": 10.0, "growing": False, "shed": 0},
        {"rate": 600, "p_ms": 20.0, "growing": False, "shed": 0},
        {"rate": 700, "p_ms": 45.0, "growing": True, "shed": 0},
        {"rate": 800, "p_ms": 30.0, "growing": False, "shed": 0},
    ]
    # 700 meets the limit but its backlog grows: no interpolation past it,
    # and the later (noisy) passing rung does not count.
    assert stats.max_rate(rungs, 50.0) == 600.0


def test_ladder_counts_shedding_as_failure():
    rungs = [
        {"rate": 500, "p_ms": 10.0, "growing": False, "shed": 0},
        {"rate": 600, "p_ms": 12.0, "growing": False, "shed": 3},
    ]
    assert stats.max_rate(rungs, 50.0) == 500.0
    assert stats.max_rate(rungs[:1], 50.0) == 500.0
    assert stats.max_rate([{"rate": 500, "p_ms": None, "growing": False, "shed": 0}], 50.0) == 0.0


def test_backlog_growth_detection():
    assert not stats.backlog_growing([3, 5, 2, 4, 6, 3, 4, 5, 3])
    assert stats.backlog_growing(list(range(0, 60, 2)))
    assert not stats.backlog_growing([0, 1, 2, 3, 4, 5])  # within slack


# --------------------------------------------------------------------------- #
# open-loop timing
# --------------------------------------------------------------------------- #


class _InstantServer:
    """Answers every request at once with the expected state."""

    def __init__(self):
        self.trace = SimpleNamespace(histograms={})

    async def submit(self, tenant, symbols):
        await asyncio.sleep(0)
        return SimpleNamespace(
            status="ok", final_state=int(symbols[0]), items=int(symbols.size),
            queue_wait_s=0.0, service_s=0.0,
        )


def test_open_loop_latency_runs_from_due_time_when_generator_is_late():
    stall = 0.2
    reqs = [
        serve_open.Request("t", np.array([i], dtype=np.int32), i, due=0.01 * i)
        for i in range(10)
    ]

    async def main():
        async def blocker():
            time.sleep(stall)  # holds the event loop: the generator falls behind

        stalled = asyncio.ensure_future(blocker())
        res = await serve_open.offer(_InstantServer(), reqs, rate=100.0)
        await stalled
        return res

    res = asyncio.run(main())
    assert res.wrong == 0 and res.offered == 10
    # The service is instant, so every latency is the generator's lateness:
    # early requests were due long before the stall ended.
    assert max(res.lag_s) > stall / 2
    assert max(res.latency_s) >= max(res.lag_s)
    assert max(res.latency_s) > stall / 2


# --------------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------------- #


def _snapshot():
    out = {}
    for _span, module, path in layers.TARGETS:
        found = layers._resolve(module, path)
        out[(module, path)] = None if found is None else found[2]
    return out


def test_wrappers_restore_attributes_exactly():
    before = _snapshot()
    assert all(v is not None for v in before.values()), "a target is missing"
    with layers.Wrappers() as w:
        assert w.absent == []
        during = _snapshot()
        for key, original in before.items():
            assert during[key] is not original
            assert during[key].__wrapped__ is original
    assert all(_snapshot()[k] is v for k, v in before.items())


def test_wrappers_record_spans_and_report_absent_targets():
    from repro.obs.trace import RunTrace

    targets = layers.TARGETS + (("gone.span", "repro.core.engine", "no_such_function"),)
    trace = RunTrace("t")
    w = layers.Wrappers(targets)
    with w, trace.activate():
        import repro.core.multipattern as mp
        from repro.regex import compile_search
        from repro.fsm.alphabet import Alphabet

        mp.stack_machines([compile_search("ab", Alphabet.from_symbols("abc"))])
    assert w.absent == ["repro.core.engine:no_such_function"]
    assert not w.span_present("gone.span")
    assert w.absent_metrics() == []
    assert len(trace.find("mp.stack_machines")) == 1


def test_self_time_subtracts_children_once():
    spans = [
        SimpleNamespace(name="a", t0=0.0, t1=10.0, parent=-1, index=0, duration_s=10.0),
        SimpleNamespace(name="b", t0=1.0, t1=4.0, parent=0, index=1, duration_s=3.0),
        SimpleNamespace(name="c", t0=3.0, t1=6.0, parent=0, index=2, duration_s=3.0),
        SimpleNamespace(name="d", t0=2.0, t1=3.0, parent=1, index=3, duration_s=1.0),
    ]
    trace = SimpleNamespace(spans=spans)
    assert layers.self_time(trace, spans[0]) == pytest.approx(5.0)
    assert layers.span_total(trace, "b") == pytest.approx(3.0)


# --------------------------------------------------------------------------- #
# references
# --------------------------------------------------------------------------- #


def _random_table(rng, inputs, states):
    return rng.integers(0, states, size=(inputs, states))


@pytest.mark.parametrize("inputs,states", [(2, 7), (3, 40), (7, 18), (128, 38)])
def test_reference_runs_agree(inputs, states):
    rng = np.random.default_rng(inputs * 1000 + states)
    table = _random_table(rng, inputs, states)
    x = rng.integers(0, inputs, size=5003)
    want = refs.sequential(table, 1, x)
    assert refs.packed_run(table, 1, x) == want
    assert refs.final_state(table, 1, x) == want


def test_block_maps_answer_aligned_slices():
    rng = np.random.default_rng(5)
    table = _random_table(rng, 3, 11)
    corpus = rng.integers(0, 3, size=4096)
    maps = refs.BlockMaps(table, corpus, 256)
    for off, n in [(0, 256), (512, 1024), (3840, 256), (256, 3840)]:
        assert maps.final_state(4, off, n) == refs.sequential(table, 4, corpus[off : off + n])
    with pytest.raises(ValueError):
        maps.final_state(0, 3, 256)


def test_literal_matches_equal_search_dfa_accepts():
    from repro.fsm.alphabet import Alphabet
    from repro.fsm.run import run_reference_trace
    from repro.regex import compile_search

    import nids_stream

    rng = np.random.default_rng(3)
    stream = rng.integers(0, 4, size=20000).astype(np.int32)
    for lit in [(0, 1, 0), (2, 2, 2, 2), (3, 1, 0, 2, 1)]:
        dfa = compile_search(
            "".join(nids_stream.ALPHABET[c] for c in lit),
            Alphabet.from_symbols(nids_stream.ALPHABET),
        )
        trace = run_reference_trace(dfa, stream)
        assert np.array_equal(
            refs.literal_matches(stream, lit), np.flatnonzero(dfa.accepting[trace])
        )
        assert refs.final_state(dfa.table, dfa.start, stream) == int(trace[-1])


# --------------------------------------------------------------------------- #
# process teardown
# --------------------------------------------------------------------------- #

_TEARDOWN_CHILD = """
import multiprocessing, subprocess, sys, time
from multiprocessing import shared_memory
sys.path.insert(0, sys.argv[1])
import host

shm = shared_memory.SharedMemory(create=True, size=64)  # starts the resource tracker
shm.close()
shm.unlink()
worker = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,), daemon=True)
worker.start()
sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
tracked = set(host.descendants())
assert {worker.pid, sleeper.pid} <= tracked and len(tracked) >= 3, tracked
stray = host.stop_children(timeout_s=5.0)
print(sorted(stray) == sorted([worker.pid, sleeper.pid]), host.descendants())
"""


def test_stop_children_ends_helpers_and_stray_processes():
    import subprocess

    out = subprocess.run(
        [sys.executable, "-c", _TEARDOWN_CHILD, str(HERE)],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True []"

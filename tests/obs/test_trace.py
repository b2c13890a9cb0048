"""Tests for the span/metrics core of the observability layer."""

import time
import tracemalloc

import pytest

from repro.gpu import Grid
from repro.obs import trace as trace_mod
from repro.obs.trace import (
    Counter,
    Histogram,
    RunTrace,
    add_count,
    current_trace,
    observe,
    trace_span,
)


class TestSpanNesting:
    def test_children_recorded_under_parent(self):
        t = RunTrace("nest")
        with t.span("outer"):
            with t.span("inner_a"):
                pass
            with t.span("inner_b"):
                pass
        outer = t.find("outer")[0]
        assert [s.name for s in t.children(outer)] == ["inner_a", "inner_b"]
        assert t.roots() == [outer]

    def test_deep_nesting_parents_chain(self):
        t = RunTrace()
        with t.span("a"):
            with t.span("b"):
                with t.span("c"):
                    pass
        a, b, c = t.spans
        assert a.parent == -1
        assert b.parent == a.index
        assert c.parent == b.index

    def test_sibling_spans_after_close_are_roots(self):
        t = RunTrace()
        with t.span("first"):
            pass
        with t.span("second"):
            pass
        assert [s.name for s in t.roots()] == ["first", "second"]

    def test_span_times_monotone_and_contained(self):
        t = RunTrace()
        with t.span("outer"):
            time.sleep(0.002)
            with t.span("inner"):
                time.sleep(0.002)
        outer, inner = t.spans
        assert outer.t0 <= inner.t0
        assert inner.t1 <= outer.t1
        assert inner.duration_s > 0
        assert outer.duration_s >= inner.duration_s

    def test_exception_still_closes_span(self):
        t = RunTrace()
        with pytest.raises(RuntimeError):
            with t.span("risky"):
                raise RuntimeError("boom")
        assert t.spans[0].t1 >= t.spans[0].t0

    def test_set_attrs(self):
        t = RunTrace()
        with t.span("s") as sp:
            sp.set(items=7, level=2)
        assert t.spans[0].attrs == {"items": 7, "level": 2}


class TestActivation:
    def test_ambient_trace_installed_and_restored(self):
        assert current_trace() is None
        t = RunTrace()
        with t.activate():
            assert current_trace() is t
            with trace_span("stage"):
                pass
        assert current_trace() is None
        assert t.find("stage")

    def test_nested_activation_restores_outer(self):
        outer, inner = RunTrace("outer"), RunTrace("inner")
        with outer.activate():
            with inner.activate():
                add_count("x")
                assert current_trace() is inner
            assert current_trace() is outer
        assert inner.counters["x"].value == 1
        assert "x" not in outer.counters

    def test_module_helpers_route_to_active(self):
        t = RunTrace()
        with t.activate():
            add_count("events", 3)
            observe("lat_s", 0.5)
        assert t.counters["events"].value == 3
        assert t.histograms["lat_s"].count == 1


class TestDisabledMode:
    def test_disabled_span_is_singleton_no_alloc(self):
        assert current_trace() is None
        first = trace_span("anything")
        # Identity: disabled mode hands back one pre-allocated object.
        assert trace_span("other", attr=1) is first
        def hot_loop():
            for _ in range(1000):
                with trace_span("hot"):
                    pass
                add_count("c")
                observe("h", 1.0)

        hot_loop()  # warm up: one-time setup allocations happen here
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        hot_loop()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        leaked = sum(
            s.size_diff for s in after.compare_to(before, "lineno")
            if s.size_diff > 0 and "test_trace" in str(s.traceback)
        )
        # No allocations attributable to the hot loop (tracemalloc's own
        # bookkeeping lines elsewhere are excluded by the filter).
        assert leaked == 0

    def test_disabled_overhead_smoke(self):
        # Perf smoke: 100k disabled span entries must be far under the
        # millisecond scale of any engine stage. Very loose bound to stay
        # robust on slow CI machines.
        n = 100_000
        t0 = time.perf_counter()
        for _ in range(n):
            with trace_span("hot"):
                pass
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0

    def test_counters_noop_without_trace(self):
        add_count("nowhere", 5)
        observe("nowhere_s", 1.0)
        assert current_trace() is None


class TestMetrics:
    def test_counter_accumulates(self):
        c = Counter("n.items")
        c.add()
        c.add(9)
        assert c.value == 10

    def test_histogram_summary(self):
        h = Histogram("lat_s")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == 2.0

    def test_trace_counter_get_or_create(self):
        t = RunTrace()
        assert t.counter("a") is t.counter("a")
        t.count("a", 2)
        t.count("a")
        assert t.counters["a"].value == 3

    def test_stage_breakdown_sums_repeats(self):
        t = RunTrace()
        for _ in range(2):
            with t.span("stage"):
                time.sleep(0.001)
        breakdown = t.stage_breakdown()
        assert set(breakdown) == {"stage"}
        assert breakdown["stage"] >= 0.002

    def test_total_s_by_name(self):
        t = RunTrace()
        with t.span("x"):
            with t.span("x"):
                pass
        assert t.total_s("x") >= t.spans[1].duration_s


class TestEngineIntegration:
    def test_run_speculative_emits_stage_spans(self):
        import repro
        from tests.conftest import make_random_dfa, random_input

        dfa = make_random_dfa(6, 2, seed=0)
        inp = random_input(2, 20_000, seed=1)
        t = RunTrace("engine")
        result = repro.run_speculative(
            dfa, inp, k=2, trace=t, grid=Grid(num_blocks=1, threads_per_block=64),
        )
        names = {s.name for s in t.spans}
        assert {"engine.speculate", "engine.local_exec", "engine.merge"} <= names
        assert any(s.name == "merge.level" for s in t.spans)
        assert result.trace is t
        assert t.counters["merge.semijoin.match"].value > 0

    def test_sequential_merge_counts_semijoin(self):
        import repro
        from tests.conftest import make_random_dfa, random_input

        dfa = make_random_dfa(6, 2, seed=2)
        inp = random_input(2, 20_000, seed=3)
        t = RunTrace()
        with t.activate():
            repro.run_speculative(
                dfa, inp, k=2, merge="sequential",
                grid=Grid(num_blocks=1, threads_per_block=64),
            )
        skipped = t.counters.get("merge.semijoin.skipped")
        total = (
            t.counters["merge.semijoin.match"].value
            + t.counters["merge.semijoin.miss"].value
            + (skipped.value if skipped is not None else 0)
        )
        # One semi-join probe per chunk — converged chunks (lane collapse
        # is on by default) skip theirs and count as skipped instead.
        assert total == 64

    def test_no_trace_attached_when_disabled(self):
        import repro
        from tests.conftest import make_random_dfa, random_input

        dfa = make_random_dfa(4, 2, seed=4)
        r = repro.run_speculative(
            dfa, random_input(2, 500, seed=5),
            grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.trace is None


class TestCounterPrefix:
    def test_counters_with_prefix_selects_namespace(self):
        t = RunTrace("prefix")
        t.count("fault.retries", 2)
        t.count("fault.worker_deaths")
        t.count("pool.shm.attaches", 5)
        fault = t.counters_with_prefix("fault.")
        assert fault == {"fault.retries": 2, "fault.worker_deaths": 1}

    def test_counters_with_prefix_empty_when_none_fired(self):
        t = RunTrace("prefix-empty")
        t.count("pool.calls")
        assert t.counters_with_prefix("fault.") == {}


def test_module_state_clean():
    """The ambient trace must never leak between tests."""
    assert trace_mod._current is None

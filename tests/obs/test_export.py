"""Tests for RunTrace exporters: JSON round-trip, Chrome trace, profile text."""

import json
import time

from repro.gpu import Grid
from repro.obs.export import (
    chrome_trace_events,
    format_profile,
    load_run_trace,
    write_chrome_trace,
    write_run_trace,
)
from repro.obs.trace import RunTrace


def make_trace() -> RunTrace:
    t = RunTrace("unit", app="div7", items=100)
    with t.span("engine.speculate"):
        time.sleep(0.001)
    with t.span("engine.merge", strategy="parallel"):
        with t.span("merge.level", level=0):
            time.sleep(0.001)
        with t.span("merge.level", level=1):
            pass
    t.count("merge.semijoin.match", 42)
    t.count("merge.semijoin.miss", 3)
    t.observe("merge.level_s", 0.001)
    t.observe("merge.level_s", 0.003)
    return t


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        t = make_trace()
        path = write_run_trace(t, tmp_path / "run.json")
        loaded = load_run_trace(path)
        assert loaded.name == t.name
        assert loaded.meta == t.meta
        assert len(loaded.spans) == len(t.spans)
        for orig, back in zip(t.spans, loaded.spans):
            assert back.name == orig.name
            assert back.parent == orig.parent
            assert back.attrs == orig.attrs
            assert back.duration_s == orig.duration_s
        assert {c.name: c.value for c in loaded.counters.values()} == {
            "merge.semijoin.match": 42, "merge.semijoin.miss": 3,
        }
        h = loaded.histograms["merge.level_s"]
        assert h.count == 2
        assert h.min == 0.001
        assert h.max == 0.003

    def test_double_round_trip_stable(self):
        t = make_trace()
        once = RunTrace.from_json(t.to_json())
        twice = RunTrace.from_json(once.to_json())
        assert once.to_dict() == twice.to_dict()

    def test_numpy_attrs_serializable(self):
        import numpy as np

        t = RunTrace()
        with t.span("s", count=np.int64(5), frac=np.float64(0.5)):
            pass
        data = json.loads(t.to_json())
        assert data["spans"][0]["attrs"] == {"count": 5, "frac": 0.5}

    def test_schema_version_present(self):
        assert json.loads(make_trace().to_json())["schema"] == 1


class TestChromeTrace:
    def test_events_well_formed(self, tmp_path):
        path = write_chrome_trace(make_trace(), tmp_path / "chrome.json")
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 4
        for e in spans:
            assert e["ts"] >= 0
            assert e["dur"] >= 0
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        assert any(e["name"] == "run metrics" for e in meta)

    def test_nesting_by_containment(self):
        events = chrome_trace_events(make_trace())
        merge = next(e for e in events if e["name"] == "engine.merge")
        levels = [e for e in events if e["name"] == "merge.level"]
        for lv in levels:
            assert lv["ts"] >= merge["ts"] - 1e-9
            assert lv["ts"] + lv["dur"] <= merge["ts"] + merge["dur"] + 1e-9

    def test_tid_attribute_routes_row(self):
        t = RunTrace()
        t.add_span("pool.worker", 0.0, 1.0, tid=3, worker=2)
        (span,) = [e for e in chrome_trace_events(t) if e["ph"] == "X"]
        assert span["tid"] == 3
        assert span["args"] == {"worker": 2}  # tid not duplicated into args

    def test_gpu_modeled_trace_same_emitter(self):
        """The unified path: modeled GPU traces go through the obs emitter."""
        import repro
        from repro.gpu.trace import modeled_run_trace, trace_events
        from tests.conftest import make_random_dfa, random_input

        dfa = make_random_dfa(6, 2, seed=0)
        result = repro.run_speculative(
            dfa, random_input(2, 30_000, seed=1), k=2,
            grid=Grid(num_blocks=2, threads_per_block=64),
        )
        mt = modeled_run_trace(result)
        assert isinstance(mt, RunTrace)
        events = trace_events(result)
        local = next(e for e in events if e["name"].startswith("local"))
        assert local["dur"] > 0


class TestFormatProfile:
    def test_stage_table_contents(self):
        t = make_trace()
        text = format_profile(t, wall_s=max(s.t1 for s in t.spans))
        assert "engine.speculate" in text
        assert "merge.level[0]" in text
        assert "merge.level[1]" in text
        assert "stages total" in text
        assert "merge.semijoin.match" in text
        assert "% of measured wall time" in text

    def test_coverage_percentage_reasonable(self):
        t = make_trace()
        wall = max(s.t1 for s in t.spans)
        text = format_profile(t, wall_s=wall)
        line = next(ln for ln in text.splitlines() if "% of measured wall time" in ln)
        pct = float(line.split("cover ")[1].split("%")[0])
        assert 90.0 <= pct <= 101.0

    def test_empty_trace_renders(self):
        text = format_profile(RunTrace("empty"), wall_s=0.0)
        assert "profile: empty" in text

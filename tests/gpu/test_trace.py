"""Tests for the Chrome trace exporter."""

import json

import pytest

import repro
from repro.gpu import Grid
from repro.gpu.trace import trace_events, write_trace
from tests.conftest import make_random_dfa, random_input


@pytest.fixture()
def result():
    dfa = make_random_dfa(6, 2, seed=0)
    inp = random_input(2, 30_000, seed=1)
    return repro.run_speculative(
        dfa, inp, k=2, grid=Grid(num_blocks=2, threads_per_block=64),
    )


class TestTraceEvents:
    def test_spans_present(self, result):
        events = trace_events(result)
        names = {e["name"] for e in events}
        assert any("local spec-2" in n for n in names)
        assert any("parallel merge" in n for n in names)
        assert "single-core CPU baseline" in names

    def test_durations_match_breakdown(self, result):
        events = trace_events(result)
        local = next(e for e in events if e["name"].startswith("local"))
        assert local["dur"] == pytest.approx(result.timing.local_s * 1e6)

    def test_stages_sequential(self, result):
        events = [e for e in events_of_kind(trace_events(result), "X")
                  if e["pid"] == 0 and e["tid"] == 0]
        ends = None
        for e in sorted(events, key=lambda e: e["ts"]):
            if ends is not None:
                assert e["ts"] >= ends - 1e-9
            ends = e["ts"] + e["dur"]

    def test_requires_timing(self):
        # The CPU plan is never priced.
        dfa = make_random_dfa(4, 2, seed=2)
        r = repro.run_speculative(dfa, random_input(2, 100, seed=3))
        with pytest.raises(ValueError, match="timing"):
            trace_events(r)

    def test_lane_count(self, result):
        events = trace_events(result, sm_lanes=3)
        locals_ = [e for e in events if e["name"].startswith("local")]
        assert len(locals_) == 3


class TestWriteTrace:
    def test_valid_json(self, result, tmp_path):
        path = write_trace(result, tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert "traceEvents" in data
        assert len(data["traceEvents"]) > 3

    def test_at_scale(self, result, tmp_path):
        small = json.loads(write_trace(result, tmp_path / "a.json").read_text())
        big = json.loads(
            write_trace(result, tmp_path / "b.json", at_scale=3_000_000).read_text()
        )

        def local_dur(d):
            return next(
                e for e in d["traceEvents"] if e["name"].startswith("local")
            )["dur"]

        assert local_dur(big) == pytest.approx(100 * local_dur(small), rel=0.01)


def events_of_kind(events, ph):
    return [e for e in events if e.get("ph") == ph]

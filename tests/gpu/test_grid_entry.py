"""Golden values of the modeled-GPU plan, entered through ``grid=``.

``grid_golden.json`` holds, for the five paper apps at 2^14 items under
both merges (plus a few non-default grids), the final state, every
``ExecStats`` field and the modeled ``timing.total_s`` and ``cpu_s`` that
the modeled plan produced when it was still selected by separate
geometry, device, layout, cache and CPU-baseline arguments. A ``Grid`` carrying the same
values must reproduce them exactly: the move to one ``grid=`` value
changes how the plan is chosen, not what it computes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

import pytest

import repro
from repro.apps.registry import get_application
from repro.fsm.run import run_reference
from repro.gpu import GTX_1080TI, TESLA_V100, Grid

ITEMS = 1 << 14
CASES = json.loads((Path(__file__).parent / "grid_golden.json").read_text())
DEVICES = {"GTX_1080TI": GTX_1080TI, "TESLA_V100": TESLA_V100}


def _grid(fields: dict) -> Grid:
    fields = dict(fields)
    if "device" in fields:
        fields["device"] = DEVICES[fields["device"]]
    return Grid(**fields)


def _case_id(case: dict) -> str:
    extra = ",".join(f"{k}={v}" for k, v in case["grid"].items())
    return f"{case['app']}-{case['merge']}" + (f"-{extra}" if extra else "")


@functools.lru_cache(maxsize=None)
def _instance(name: str):
    return get_application(name).build_instance(ITEMS, seed=0)


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_grid_run_matches_golden(case):
    app = get_application(case["app"])
    dfa, x = _instance(case["app"])
    r = repro.run_speculative(
        dfa, x, k=app.best_k, merge=case["merge"],
        lookback=app.default_lookback, grid=_grid(case["grid"]),
    )
    assert r.final_state == case["final_state"] == run_reference(dfa, x)
    assert r.config.plan == "gpu"
    assert dataclasses.asdict(r.stats) == case["stats"]
    assert r.timing.total_s == pytest.approx(case["total_s"], rel=1e-12)
    assert r.timing.cpu_s == pytest.approx(case["cpu_s"], rel=1e-12)


def test_cases_cover_five_apps_and_both_merges():
    covered = {(c["app"], c["merge"]) for c in CASES}
    apps = {"div7", "huffman", "regex1", "regex2", "html"}
    assert covered >= {(a, m) for a in apps for m in ("sequential", "parallel")}

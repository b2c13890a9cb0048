"""Native artifacts are keyed on what the kernel reads, not the start state.

A compiled kernel steps whatever states it is handed; the start state of
the machine it was compiled for is never read. Runs that carry a start
(``run_inprocess_fallback(start=...)``, the pool's and the coordinator's
``with_start`` machines) must therefore share one artifact.
"""

from __future__ import annotations

import pytest

from repro.apps.registry import get_application
from repro.core.engine import run_inprocess_fallback
from repro.core.native import clear_memory_cache
from repro.core.native.build import build_stats
from repro.fsm.run import run_reference
from tests.conftest import native_builds


@pytest.mark.skipif(not native_builds(), reason="no working C compiler")
def test_carried_starts_compile_once(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    clear_memory_cache()
    dfa, inputs = get_application("regex1").build_instance(1 << 17, seed=3)
    before = build_stats()["compiles"]
    for start in (0, 1, 2):
        res = run_inprocess_fallback(dfa, inputs, start=start)
        assert res.config.backend == "native"
        assert res.final_state == run_reference(dfa, inputs, start=start)
    assert build_stats()["compiles"] - before == 1

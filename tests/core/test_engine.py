"""Tests for the engine's API surface and configuration handling."""

import numpy as np
import pytest

import repro
from repro.fsm.run import run_reference
from repro.gpu import Grid
from repro.gpu.device import GTX_1080TI
from repro.workloads.chunking import plan_chunks
from tests.conftest import make_random_dfa, random_input


@pytest.fixture
def small_case():
    dfa = make_random_dfa(6, 3, seed=11)
    inp = random_input(3, 500, seed=12)
    return dfa, inp


class TestValidation:
    def test_bad_merge(self, small_case):
        dfa, inp = small_case
        with pytest.raises(ValueError, match="merge"):
            repro.run_speculative(dfa, inp, merge="treeish")

    def test_bad_check(self, small_case):
        dfa, inp = small_case
        with pytest.raises(ValueError, match="check"):
            repro.run_speculative(dfa, inp, check="bloom")

    def test_bad_layout(self, small_case):
        dfa, inp = small_case
        with pytest.raises(ValueError, match="layout"):
            repro.run_speculative(dfa, inp, grid=Grid(layout="blocked"))

    def test_bad_collect(self, small_case):
        dfa, inp = small_case
        with pytest.raises(ValueError, match="collect"):
            repro.run_speculative(dfa, inp, collect=("everything",))

    def test_bad_backend(self, small_case):
        dfa, inp = small_case
        with pytest.raises(ValueError, match="backend"):
            repro.run_speculative(dfa, inp, backend="cuda")

    def test_bad_k(self, small_case):
        dfa, inp = small_case
        with pytest.raises(ValueError, match="k"):
            repro.run_speculative(dfa, inp, k=0)

    def test_2d_input(self, small_case):
        dfa, _ = small_case
        with pytest.raises(ValueError, match="1-D"):
            repro.run_speculative(dfa, np.zeros((2, 2), dtype=np.int32))

    def test_bad_threads_per_block(self, small_case):
        dfa, inp = small_case
        with pytest.raises(ValueError, match="warp"):
            repro.run_speculative(dfa, inp, grid=Grid(threads_per_block=50))

    def test_bad_num_blocks(self, small_case):
        dfa, inp = small_case
        with pytest.raises(ValueError, match="num_blocks"):
            repro.run_speculative(dfa, inp, grid=Grid(num_blocks=0))


class TestConfig:
    def test_k_clamped_to_num_states(self, small_case):
        dfa, inp = small_case
        r = repro.run_speculative(
            dfa, inp, k=99, grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.config.k == dfa.num_states
        assert r.config.enumerative

    def test_spec_n_via_none(self, small_case):
        dfa, inp = small_case
        r = repro.run_speculative(
            dfa, inp, k=None, grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.config.enumerative

    def test_num_threads(self, small_case):
        dfa, inp = small_case
        r = repro.run_speculative(
            dfa, inp, grid=Grid(num_blocks=2, threads_per_block=64),
        )
        assert r.config.num_threads == 128
        assert r.stats.num_chunks == 128

    def test_alternate_device(self, small_case):
        dfa, inp = small_case
        r = repro.run_speculative(
            dfa, inp, grid=Grid(num_blocks=2, threads_per_block=32, device=GTX_1080TI),
        )
        assert r.config.device.name == "GTX 1080 Ti"
        assert r.timing is not None

    def test_stats_echo_config(self, small_case):
        dfa, inp = small_case
        r = repro.run_speculative(
            dfa, inp, k=3, grid=Grid(num_blocks=1, threads_per_block=32),
        )
        s = r.stats
        assert (s.num_items, s.k, s.num_states, s.num_inputs) == (
            inp.size, 3, dfa.num_states, dfa.num_inputs
        )


class TestOutputs:
    def test_timing_attached_by_default(self, small_case):
        dfa, inp = small_case
        r = repro.run_speculative(
            dfa, inp, grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.timing is not None
        assert r.timing.total_s > 0
        assert r.timing.speedup > 0

    def test_cpu_ns_override_scales_cpu_time(self, small_case):
        dfa, inp = small_case
        r1 = repro.run_speculative(
            dfa, inp,
            grid=Grid(num_blocks=1, threads_per_block=32, cpu_transition_ns=2.0),
        )
        r2 = repro.run_speculative(
            dfa, inp,
            grid=Grid(num_blocks=1, threads_per_block=32, cpu_transition_ns=4.0),
        )
        assert r2.timing.cpu_s == pytest.approx(2 * r1.timing.cpu_s)

    def test_measure_success_off(self, small_case):
        dfa, inp = small_case
        r = repro.run_speculative(
            dfa, inp, merge="parallel", measure_success=False,
            grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.true_starts is None
        assert r.stats.success_total == 0

    def test_empty_input(self, small_case):
        dfa, _ = small_case
        r = repro.run_speculative(
            dfa, np.zeros(0, dtype=np.int32),
            grid=Grid(num_blocks=1, threads_per_block=32),
        )
        assert r.final_state == dfa.start

    def test_empty_input_skips_the_stationary_prior(self, monkeypatch):
        import repro.core.lookback as lookback
        from repro.core.types import ExecStats

        def solve(*args, **kwargs):
            raise AssertionError("stationary prior solved for an empty input")

        monkeypatch.setattr(lookback, "stationary_distribution", solve)
        dfa = make_random_dfa(12, 3, seed=13)
        # An explicit plan: the default serial rung never speculates.
        r = repro.run_speculative(
            dfa, np.zeros(0, dtype=np.int32), plan=plan_chunks(0, 1)
        )
        assert r.final_state == dfa.start
        assert r.stats == ExecStats(
            num_items=0, num_chunks=1, k=r.config.k, num_states=12,
            num_inputs=3, merge_levels_warp=1,
        )

    def test_input_shorter_than_threads(self, small_case):
        dfa, _ = small_case
        inp = random_input(3, 10, seed=1)
        r = repro.run_speculative(
            dfa, inp, grid=Grid(num_blocks=2, threads_per_block=64),
        )
        assert r.final_state == run_reference(dfa, inp)

    def test_cache_table_attached(self, small_case):
        dfa, inp = small_case
        r = repro.run_speculative(
            dfa, inp, grid=Grid(num_blocks=1, threads_per_block=32, cache_table=True),
        )
        assert r.cache is not None
        assert r.stats.cache_hits + r.stats.cache_misses > 0

    def test_codegen_rejects_cache(self, small_case):
        # backend="codegen" is no longer an engine backend; the request is
        # refused before any cache plan is built, naming the bad value.
        dfa, inp = small_case
        with pytest.raises(ValueError, match="codegen"):
            repro.run_speculative(
                dfa, inp, backend="codegen",
                grid=Grid(num_blocks=1, threads_per_block=32, cache_table=True),
            )

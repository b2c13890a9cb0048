"""Tests for price_at_scale and the runner's measurement helpers."""

import pytest

import repro
from repro.bench.runner import BenchConfig, app_instance, bench_items, measure
from repro.gpu import Grid
from repro.gpu.cost import price_at_scale
from repro.gpu.device import GTX_1080TI
from tests.conftest import make_random_dfa, random_input


class TestPriceAtScale:
    @pytest.fixture()
    def result(self):
        dfa = make_random_dfa(6, 2, seed=0)
        inp = random_input(2, 50_000, seed=1)
        return repro.run_speculative(
            dfa, inp, k=2, grid=Grid(num_blocks=2, threads_per_block=64),
        )

    def test_scales_local_time(self, result):
        small = price_at_scale(result, 50_000)
        big = price_at_scale(result, 500_000)
        assert big.local_s == pytest.approx(10 * small.local_s, rel=0.01)

    def test_merge_time_unchanged(self, result):
        small = price_at_scale(result, 50_000)
        big = price_at_scale(result, 500_000)
        assert big.merge_s == pytest.approx(small.merge_s)

    def test_speedup_grows_with_scale(self, result):
        # merge is amortized over more items: speedup improves
        assert price_at_scale(result, 5_000_000).speedup > price_at_scale(
            result, 50_000
        ).speedup

    def test_uses_result_configuration(self, result):
        tb = price_at_scale(result, 100_000)
        assert tb.total_s > 0

    def test_cpu_override(self, result):
        a = price_at_scale(result, 100_000, cpu_transition_ns=1.0)
        b = price_at_scale(result, 100_000, cpu_transition_ns=2.0)
        assert b.cpu_s == pytest.approx(2 * a.cpu_s)

    def test_device_override(self, result):
        tb = price_at_scale(result, 100_000, device=GTX_1080TI)
        assert tb.total_s > 0


class TestRunnerHelpers:
    def test_bench_items_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ITEMS", "1234")
        assert bench_items() == 1234

    def test_app_instance_cached(self):
        a = app_instance("div7", 10_000, 0)
        b = app_instance("div7", 10_000, 0)
        assert a[1] is b[1]  # same array object: lru_cache hit

    def test_app_instance_distinct_keys(self):
        a = app_instance("div7", 10_000, 0)
        b = app_instance("div7", 10_000, 1)
        assert a[1] is not b[1]

    def test_measure_projection_flag(self):
        cfg = BenchConfig(app="div7", k=None, num_blocks=20)
        proj = measure(cfg, num_items=50_000, project_to_paper_scale=True)
        raw = measure(cfg, num_items=50_000, project_to_paper_scale=False)
        # paper scale amortizes the merge far better
        assert proj.speedup > raw.speedup

"""Tests for the cost model: pricing invariants and paper-shape properties."""

import pytest

import repro
from repro.core.types import ExecStats
from repro.gpu import Grid
from repro.gpu.cost import CostModel, TimeBreakdown
from repro.gpu.device import TESLA_V100
from tests.conftest import make_random_dfa, random_input


def stats_for(merge: str, num_blocks: int, dfa=None, inp=None, **kwargs) -> ExecStats:
    dfa = dfa if dfa is not None else make_random_dfa(6, 2, seed=0)
    inp = inp if inp is not None else random_input(2, 200_000, seed=1)
    r = repro.run_speculative(
        dfa, inp, merge=merge, grid=Grid(num_blocks=num_blocks), **kwargs
    )
    return r.stats


class TestTimeBreakdown:
    def test_total_is_sum(self):
        tb = TimeBreakdown(1.0, 2.0, 3.0, 4.0, cpu_s=100.0)
        assert tb.total_s == 10.0
        assert tb.speedup == 10.0

    def test_zero_total(self):
        tb = TimeBreakdown(0.0, 0.0, 0.0, 0.0, cpu_s=1.0)
        assert tb.speedup == float("inf")

    def test_as_row_keys(self):
        tb = TimeBreakdown(1e-3, 1e-3, 0.0, 0.0, cpu_s=1.0)
        row = tb.as_row()
        assert set(row) == {
            "local_ms", "merge_ms", "reexec_ms", "fixup_ms", "total_ms", "speedup"
        }


class TestPricingInvariants:
    def test_invalid_merge(self):
        with pytest.raises(ValueError):
            CostModel().price(
                ExecStats(num_items=1, k=1), num_blocks=1, threads_per_block=32,
                merge="tree", layout_transformed=True,
            )

    def test_components_nonnegative(self):
        s = stats_for("parallel", 20, k=4)
        tb = CostModel().price(s, num_blocks=20, threads_per_block=256,
                               merge="parallel", layout_transformed=True)
        assert min(tb.local_s, tb.merge_s, tb.reexec_s, tb.fixup_s) >= 0

    def test_natural_layout_slower(self):
        s = stats_for("parallel", 20, k=4)
        fast = CostModel().price(s, num_blocks=20, threads_per_block=256,
                                 merge="parallel", layout_transformed=True)
        slow = CostModel().price(s, num_blocks=20, threads_per_block=256,
                                 merge="parallel", layout_transformed=False)
        assert slow.local_s > fast.local_s

    def test_oversubscription_waves(self):
        s = stats_for("parallel", 80, k=4)
        normal = CostModel().price(s, num_blocks=80, threads_per_block=256,
                                   merge="parallel", layout_transformed=True)
        over = CostModel().price(s, num_blocks=160, threads_per_block=256,
                                 merge="parallel", layout_transformed=True)
        assert over.local_s == pytest.approx(2 * normal.local_s)

    def test_bandwidth_floor_engages(self):
        # absurdly many items, trivial per-step cost: floor must bind
        s = ExecStats(num_items=10**12, num_chunks=80 * 256, k=1,
                      num_states=2, num_inputs=2, local_steps=1)
        tb = CostModel().price(s, num_blocks=80, threads_per_block=256,
                               merge="parallel", layout_transformed=True)
        floor = 10**12 / (TESLA_V100.mem_bandwidth_gbs * 1e9)
        assert tb.local_s == pytest.approx(floor)

    def test_cpu_baseline_scales(self):
        s = stats_for("parallel", 20, k=2)
        a = CostModel(cpu_transition_ns=1.0).price(
            s, num_blocks=20, threads_per_block=256, merge="parallel",
            layout_transformed=True)
        b = CostModel(cpu_transition_ns=3.0).price(
            s, num_blocks=20, threads_per_block=256, merge="parallel",
            layout_transformed=True)
        assert b.cpu_s == pytest.approx(3 * a.cpu_s)


class TestPaperShapes:
    """The qualitative claims of Figures 3 and 7-11, as assertions."""

    @pytest.fixture(scope="class")
    def div7_case(self):
        from repro.apps.div import div7_dfa
        from repro.workloads.binary import random_bits

        return div7_dfa(), random_bits(200_000, rng=0)

    def measure(self, dfa, inp, merge, blocks):
        r = repro.run_speculative(
            dfa, inp, k=None, merge=merge,
            grid=Grid(num_blocks=blocks, threads_per_block=256),
        )
        proj = r.stats.project(2**30)
        return CostModel(cpu_transition_ns=2.23).price(
            proj, num_blocks=blocks, threads_per_block=256, merge=merge,
            layout_transformed=True,
        ).speedup

    def test_parallel_merge_scales_monotonically(self, div7_case):
        dfa, inp = div7_case
        speeds = [self.measure(dfa, inp, "parallel", b) for b in (20, 40, 80)]
        assert speeds[0] < speeds[1] < speeds[2]

    def test_sequential_merge_stops_scaling(self, div7_case):
        dfa, inp = div7_case
        speeds = [self.measure(dfa, inp, "sequential", b) for b in (20, 40, 80)]
        assert max(speeds[:2]) > speeds[2]  # declines by 80 blocks

    def test_parallel_beats_sequential_at_scale(self, div7_case):
        dfa, inp = div7_case
        par = self.measure(dfa, inp, "parallel", 80)
        seq = self.measure(dfa, inp, "sequential", 80)
        assert par / seq > 2.0  # paper: 2.02 - 6.74x

    def test_div7_absolute_magnitude(self, div7_case):
        # paper: 397.93x at 80 blocks; hold the model to within 2x
        dfa, inp = div7_case
        par = self.measure(dfa, inp, "parallel", 80)
        assert 200 < par < 800

    def test_spec_n_spill_penalty(self):
        # A large-state machine under spec-N spills the state array, so its
        # local processing must cost far more than k's linear share alone
        # (paper: 205-state Huffman reaches only ~15x under spec-N).
        dfa = make_random_dfa(200, 2, seed=3)
        inp = random_input(2, 200_000, seed=4)

        def local_time(k):
            r = repro.run_speculative(
                dfa, inp, k=k, measure_success=False,
                grid=Grid(num_blocks=80, threads_per_block=256),
            )
            proj = r.stats.project(2**30)
            return CostModel().price(
                proj, num_blocks=80, threads_per_block=256, merge="parallel",
                layout_transformed=True).local_s

        assert local_time(None) / local_time(8) > 10

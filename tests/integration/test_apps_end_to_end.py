"""End-to-end integration: every paper application through the full engine.

For each application: build the machine and a real workload, run the
speculative engine in several configurations, and verify the final state
and application outputs against the trusted sequential reference.
"""

import numpy as np
import pytest

import repro
from repro.apps.registry import APPLICATIONS, get_application
from repro.fsm.run import run_reference
from repro.gpu import Grid

N = 80_000

CONFIGS = [
    dict(merge="sequential", check="nested", reexec="delayed", layout="natural"),
    dict(merge="parallel", check="nested", reexec="delayed", layout="transformed"),
    dict(merge="parallel", check="hash", reexec="eager", layout="transformed"),
]


@pytest.fixture(scope="module")
def instances():
    return {
        name: get_application(name).build_instance(N, seed=2)
        for name in APPLICATIONS
    }


class TestFinalStates:
    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    @pytest.mark.parametrize("cfg", range(len(CONFIGS)))
    def test_engine_equals_reference(self, instances, name, cfg):
        dfa, inp = instances[name]
        app = get_application(name)
        options = dict(CONFIGS[cfg])
        grid = Grid(num_blocks=2, threads_per_block=64, layout=options.pop("layout"))
        r = repro.run_speculative(
            dfa, inp, k=app.best_k, lookback=app.default_lookback, grid=grid,
            **options,
        )
        assert r.final_state == run_reference(dfa, inp)

    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_spec_n_equals_reference(self, instances, name):
        dfa, inp = instances[name]
        r = repro.run_speculative(
            dfa, inp, k=None, grid=Grid(num_blocks=2, threads_per_block=32),
        )
        assert r.final_state == run_reference(dfa, inp)


class TestApplicationOutputs:
    def test_huffman_decode_roundtrip(self, instances):
        dfa, bits = instances["huffman"]
        r = repro.run_speculative(
            dfa, bits, k=8, lookback=16, collect=("emissions",),
            grid=Grid(num_blocks=2, threads_per_block=64),
        )
        _, values = r.emissions
        # decode sequentially with the same transducer
        state = dfa.start
        expected = []
        for b in bits:
            e = dfa.emit[b, state]
            state = dfa.table[b, state]
            if e >= 0:
                expected.append(int(e))
        np.testing.assert_array_equal(values, expected)

    def test_html_tokens_sorted_and_valid(self, instances):
        dfa, ids = instances["html"]
        r = repro.run_speculative(
            dfa, ids, k=1, lookback=64, collect=("emissions",),
            grid=Grid(num_blocks=2, threads_per_block=32),
        )
        positions, values = r.emissions
        assert np.all(np.diff(positions) > 0)
        assert values.min() >= 0 and values.max() <= 5
        assert positions.size > 100  # synthetic pages are token-dense

    def test_regex1_match_positions(self, instances):
        dfa, ids = instances["regex1"]
        from repro.fsm.run import run_reference_trace

        r = repro.run_speculative(
            dfa, ids, k=8, lookback=0, collect=("match_positions",),
            grid=Grid(num_blocks=2, threads_per_block=32),
        )
        trace = run_reference_trace(dfa, ids)
        np.testing.assert_array_equal(
            r.match_positions, np.flatnonzero(dfa.accepting[trace])
        )

    def test_div7_acceptance(self, instances):
        dfa, bits = instances["div7"]
        r = repro.run_speculative(
            dfa, bits, k=None, grid=Grid(num_blocks=2, threads_per_block=32),
        )
        value_mod_7 = 0
        for b in bits:
            value_mod_7 = (2 * value_mod_7 + int(b)) % 7
        assert r.final_state == value_mod_7


class TestSuccessRates:
    def test_best_k_success_near_one(self, instances):
        for name in ("huffman", "regex1", "regex2", "html"):
            dfa, inp = instances[name]
            app = get_application(name)
            r = repro.run_speculative(
                dfa, inp, k=app.best_k, lookback=app.default_lookback,
                grid=Grid(num_blocks=2, threads_per_block=64),
            )
            assert r.success_rate > 0.98, name

    def test_div7_success_is_k_over_7(self, instances):
        dfa, bits = instances["div7"]
        r = repro.run_speculative(
            dfa, bits, k=2, grid=Grid(num_blocks=2, threads_per_block=64),
        )
        assert r.success_rate == pytest.approx(2 / 7, abs=0.06)

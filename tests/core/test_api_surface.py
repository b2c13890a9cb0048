"""Coverage of small public-API surfaces not exercised elsewhere."""

import numpy as np
import pytest

from repro.bench.runner import ExperimentResult
from repro.core.codegen.select import plan_kernel
from repro.core.lookback import speculate
from repro.regex.ast import Alternation, Concat, Literal
from repro.workloads.chunking import plan_chunks
from tests.conftest import make_random_dfa, random_input


class TestAstOperators:
    def test_or_builds_alternation(self):
        node = Literal("a") | Literal("b")
        assert isinstance(node, Alternation)
        assert node.options == (Literal("a"), Literal("b"))

    def test_add_builds_concat(self):
        node = Literal("a") + Literal("b")
        assert isinstance(node, Concat)

    def test_operators_compile(self):
        from repro.fsm.alphabet import Alphabet
        from repro.regex.compile import compile_regex

        ab = Alphabet.from_symbols("ab")
        dfa = compile_regex(Literal("a") + (Literal("a") | Literal("b")), ab)
        assert dfa.accepts(ab.encode("ab"))
        assert not dfa.accepts(ab.encode("ba"))


class TestDfaHelpers:
    def test_language_equal_on(self):
        a = make_random_dfa(5, 2, seed=0)
        b = make_random_dfa(5, 2, seed=0)
        inp = random_input(2, 50, seed=1)
        assert a.language_equal_on(b, inp)

    def test_repr_mentions_shape(self):
        dfa = make_random_dfa(5, 2, seed=0).with_name("demo")
        text = repr(dfa)
        assert "states=5" in text and "demo" in text


class TestSpeculateOrder:
    """The look-back stage's order (:func:`repro.core.lookback.speculate`):
    the prior's own ordering breaks ties and pads, with no override."""

    def test_prior_order_breaks_ties_and_pads(self):
        dfa = make_random_dfa(6, 2, seed=2)
        inp = random_input(2, 5000, seed=3)
        plan = plan_chunks(inp.size, 32)
        # With no look-back each row's posterior is the prior: states 1
        # and 2 tie at the top (the lower index first), and k=4 pads past
        # the support {1, 2, 3} with the best zero-prior state, 0.
        prior = np.array([0.0, 2.0, 2.0, 1.0, 0.0, 0.0])
        spec = speculate(dfa, inp, plan, 4, lookback=0, prior=prior)
        np.testing.assert_array_equal(spec[1:], np.tile([1, 2, 3, 0], (31, 1)))
        assert spec[0].tolist() == [dfa.start] + [
            s for s in [1, 2, 3, 0, 4, 5] if s != dfa.start
        ][:3]

    def test_ranking_is_not_an_argument(self):
        dfa = make_random_dfa(6, 2, seed=2)
        inp = random_input(2, 100, seed=3)
        with pytest.raises(TypeError, match="ranking"):
            speculate(dfa, inp, plan_chunks(inp.size, 32), 2, ranking=np.arange(6))


class TestHuffmanHelpers:
    def test_num_coded_symbols(self):
        from repro.apps.huffman import HuffmanCode

        code = HuffmanCode.from_frequencies(np.array([3, 0, 2, 0, 1]))
        assert code.num_symbols == 5
        assert code.num_coded_symbols == 3


class TestExperimentResultFormatting:
    def test_to_text_with_columns(self):
        res = ExperimentResult("x", "t", rows=[{"a": 1, "b": 2}])
        text = res.to_text(columns=["b"])
        assert "b" in text and "a" not in text.splitlines()[1]

    def test_notes_rendered(self):
        res = ExperimentResult("x", "t", rows=[{"a": 1}], notes=["hello"])
        assert "note: hello" in res.to_text()


class TestKernelPlanCarriesMachineShape:
    def test_dimensions_recorded(self):
        dfa = make_random_dfa(11, 3, seed=4)
        plan = plan_kernel(dfa, 4)
        assert plan.num_states == 11
        assert plan.num_inputs == 3

    def test_cache_kernel_indexes_rows_by_num_inputs(self):
        from repro.core.codegen.cuda_src import generate_cuda_kernel

        dfa = make_random_dfa(40, 5, seed=5)
        src = generate_cuda_kernel(plan_kernel(dfa, 4, cache_table=True))
        assert "#define NUM_INPUTS 5" in src
        assert "slot * NUM_INPUTS + sym" in src


class TestMpExecutorLookback:
    def test_lookback_param_flows(self):
        from repro.core.mp_executor import ScaleoutPool
        from repro.fsm.run import run_reference

        dfa = make_random_dfa(6, 2, seed=6)
        inp = random_input(2, 8000, seed=7)
        with ScaleoutPool(dfa, num_workers=2, k=3, sub_chunks_per_worker=16,
                          lookback=2) as pool:
            res = pool.run(inp)
        assert res.final_state == run_reference(dfa, inp)

"""Tests for the kernel code generator (selection + CUDA source)."""

import pytest

from repro.core.codegen.cuda_src import generate_cuda_kernel
from repro.core.codegen.select import plan_kernel
from tests.conftest import make_random_dfa


class TestSelect:
    def test_nested_for_small_k(self):
        plan = plan_kernel(make_random_dfa(20, 3, seed=0), 8)
        assert plan.check == "nested"
        assert plan.states_in_registers

    def test_hash_past_threshold(self):
        plan = plan_kernel(make_random_dfa(40, 3, seed=0), 13)
        assert plan.check == "hash"

    def test_spec_n(self):
        dfa = make_random_dfa(30, 3, seed=0)
        plan = plan_kernel(dfa, None)
        assert plan.enumerative and plan.k == 30

    def test_spill_for_large_k(self):
        plan = plan_kernel(make_random_dfa(60, 2, seed=0), 50)
        assert not plan.states_in_registers
        assert plan.spill_factor > 1

    def test_cache_planned(self):
        plan = plan_kernel(make_random_dfa(50, 4, seed=1), 4, cache_table=True)
        assert plan.cache_rows > 0
        assert plan.shared_bytes > 0

    def test_describe_mentions_choices(self):
        plan = plan_kernel(make_random_dfa(50, 4, seed=1), 16, cache_table=True)
        text = plan.describe()
        assert "hash" in text and "hot-state cache" in text

    def test_bad_k(self):
        with pytest.raises(ValueError):
            plan_kernel(make_random_dfa(5, 2, seed=0), 0)


class TestCudaSource:
    def test_nested_kernel_structure(self):
        plan = plan_kernel(make_random_dfa(20, 3, seed=0), 4)
        src = generate_cuda_kernel(plan, name="k4")
        assert "__global__ void k4" in src
        assert "#define NUM_GUESS 4" in src
        assert "match_spec" in src
        assert "probe_hash" not in src
        assert "#pragma unroll" in src
        assert "__shfl_down_sync" in src

    def test_hash_kernel_structure(self):
        plan = plan_kernel(make_random_dfa(40, 3, seed=0), 16)
        src = generate_cuda_kernel(plan)
        assert "build_hash" in src and "probe_hash" in src
        assert "HASH_SIZE" in src

    def test_cache_code_only_when_enabled(self):
        dfa = make_random_dfa(50, 4, seed=1)
        with_cache = generate_cuda_kernel(plan_kernel(dfa, 4, cache_table=True))
        without = generate_cuda_kernel(plan_kernel(dfa, 4))
        assert "hot_slot" in with_cache
        assert "hot_slot" not in without

    def test_delayed_marking_present(self):
        plan = plan_kernel(make_random_dfa(20, 3, seed=0), 4)
        src = generate_cuda_kernel(plan)
        assert "delayed re-execution" in src

    def test_balanced_braces(self):
        plan = plan_kernel(make_random_dfa(40, 3, seed=0), 16, cache_table=True)
        src = generate_cuda_kernel(plan)
        assert src.count("{") == src.count("}")

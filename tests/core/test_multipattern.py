"""Multi-pattern engine tests: batched union stepping, product route,
request batching, and engine delegation.

Every route and every kernel/merge combination must be bit-exact
against the per-pattern sequential reference — same final states, same
acceptance, same match positions.
"""

import numpy as np

import pytest

import repro
from repro.core.multipattern import (
    MachineStack,
    MultiPatternResult,
    run_multipattern,
    run_multipattern_batch,
    stack_machines,
)
from repro.fsm import DFA
from repro.fsm.run import run_reference_trace, run_segment


def _group(sizes, num_inputs=6, seed=0):
    return [
        DFA.random(s, num_inputs, rng=seed + 10 * i, name=f"p{i}")
        for i, s in enumerate(sizes)
    ]


def _stream(n, num_inputs=6, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, num_inputs, size=n).astype(np.int32)


def _expected(machines, inputs):
    """Per-pattern (final_state, match_positions) from the scalar trace."""
    out = []
    for m in machines:
        tr = run_reference_trace(m, inputs)
        fin = int(tr[-1]) if tr.size else int(m.start)
        out.append((fin, np.flatnonzero(m.accepting[tr])))
    return out


def _check_batched(res, machines, inputs):
    assert isinstance(res, MultiPatternResult)
    assert res.num_patterns == len(machines)
    for pr, m, (fin, pos) in zip(res.patterns, machines, _expected(machines, inputs)):
        assert pr.name == m.name
        assert pr.final_state == fin
        assert pr.accepted == bool(m.accepting[fin])
        assert np.array_equal(pr.match_positions, pos)


class TestStack:
    def test_union_block_diagonal_and_closed(self):
        machines = _group([3, 5, 2])
        stack = stack_machines(machines)
        assert isinstance(stack, MachineStack)
        offs = stack.offsets
        table = stack.union_dfa.table
        # Every block stays inside its own state range.
        for p, m in enumerate(machines):
            blk = table[:, offs[p] : offs[p + 1]]
            assert blk.min() >= offs[p] and blk.max() < offs[p + 1]
        # Joint remap preserves each pattern's transitions exactly.
        raw = _stream(500)
        cls = stack.joint.remap(raw)
        for p, m in enumerate(machines):
            s = int(m.start)
            u = int(stack.union_dfa.table[cls[0], offs[p] + s])
            assert u - offs[p] == int(m.table[raw[0], s])

    def test_mismatched_alphabets_rejected(self):
        a = DFA.random(3, 4, rng=0)
        b = DFA.random(3, 5, rng=1)
        with pytest.raises(ValueError):
            stack_machines([a, b])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            stack_machines([])


class TestBatchedRoute:
    @pytest.mark.parametrize("kernel", ["lockstep", "stride2", "stride4"])
    @pytest.mark.parametrize("collapse", [None, "auto"])
    def test_bit_exact_all_kernels(self, kernel, collapse):
        machines = _group([3, 5, 2, 7])
        inputs = _stream(4000)
        res = run_multipattern(
            machines, inputs, k=3, num_chunks=16, kernel=kernel,
            collapse=collapse, route="batched",
        )
        assert res.route == "batched"
        _check_batched(res, machines, inputs)

    @pytest.mark.parametrize("merge", ["parallel", "sequential"])
    def test_bit_exact_merges(self, merge):
        machines = _group([4, 6, 3], seed=5)
        inputs = _stream(6000, seed=9)
        res = run_multipattern(
            machines, inputs, k=2, num_chunks=24, merge=merge,
            route="batched",
        )
        _check_batched(res, machines, inputs)

    def test_ragged_group_with_one_state_pattern(self):
        # k exceeds some widths; a 1-state pattern gets exactly one lane.
        machines = _group([1, 6, 2], seed=11)
        inputs = _stream(3000, seed=1)
        res = run_multipattern(machines, inputs, k=4, route="batched")
        _check_batched(res, machines, inputs)

    def test_enumerative_k_none(self):
        machines = _group([3, 4], seed=2)
        inputs = _stream(2000, seed=2)
        res = run_multipattern(machines, inputs, k=None, route="batched")
        _check_batched(res, machines, inputs)
        # Full-width speculation over every pattern never misses.
        assert res.stats.reexec_chunks_seq == 0
        assert res.stats.reexec_chunks_eager == 0

    def test_empty_input(self):
        machines = _group([3, 4], seed=4)
        res = run_multipattern(
            machines, np.zeros(0, dtype=np.int32), route="batched"
        )
        for pr, m in zip(res.patterns, machines):
            assert pr.final_state == int(m.start)
            assert pr.match_count == 0

    def test_single_pattern_group(self):
        machines = _group([5], seed=6)
        inputs = _stream(1500, seed=6)
        res = run_multipattern(machines, inputs, k=3, route="batched")
        _check_batched(res, machines, inputs)

    def test_prebuilt_stack_reused(self):
        machines = _group([3, 5], seed=7)
        stack = stack_machines(machines)
        inputs = _stream(1000, seed=7)
        res = run_multipattern(
            machines, inputs, route="batched", stack=stack
        )
        assert res.stack is stack
        _check_batched(res, machines, inputs)

    def test_native_backend_bit_exact(self):
        machines = _group([3, 5, 2, 7], seed=8)
        inputs = _stream(8000, seed=8)
        res = run_multipattern(
            machines, inputs, k=3, num_chunks=8, kernel="lockstep",
            backend="native", route="batched",
        )
        _check_batched(res, machines, inputs)


class TestProductRoute:
    def test_product_matches_batched(self):
        machines = _group([3, 4], num_inputs=4, seed=13)
        inputs = _stream(3000, num_inputs=4, seed=13)
        bat = run_multipattern(machines, inputs, route="batched")
        prod = run_multipattern(machines, inputs, route="product")
        assert prod.route == "product"
        assert prod.product is not None
        for bp, pp in zip(bat.patterns, prod.patterns):
            assert bp.accepted == pp.accepted
            assert np.array_equal(bp.match_positions, pp.match_positions)
            # Product states have no per-component decomposition.
            assert pp.final_state is None

    def test_route_auto_small_group_picks_product(self):
        machines = _group([2, 3], num_inputs=4, seed=14)
        inputs = _stream(1000, num_inputs=4, seed=14)
        res = run_multipattern(machines, inputs, route="auto")
        assert res.route == "product"
        _expected_pos = _expected(machines, inputs)
        for pr, (fin, pos) in zip(res.patterns, _expected_pos):
            assert np.array_equal(pr.match_positions, pos)

    def test_route_auto_large_group_stays_batched(self):
        machines = _group([4] * 8, seed=15)
        inputs = _stream(1000, seed=15)
        res = run_multipattern(
            machines, inputs, route="auto", product_max_patterns=4
        )
        assert res.route == "batched"

    def test_budget_exceeded_falls_back_to_batched(self):
        machines = _group([5, 6, 7], seed=16)
        inputs = _stream(1000, seed=16)
        res = run_multipattern(
            machines, inputs, route="auto", product_budget=4
        )
        assert res.route == "batched"
        _check_batched(res, machines, inputs)


class TestBatchAPI:
    def test_multi_request_bit_exact(self):
        machines = _group([3, 5, 2], seed=20)
        stack = stack_machines(machines)
        rng = np.random.default_rng(20)
        segments = [
            rng.integers(0, 6, size=int(n)).astype(np.int32)
            for n in rng.integers(50, 2000, size=7)
        ]
        finals, accepted = run_multipattern_batch(
            stack, segments, k=3, chunk_items=256
        )
        assert finals.shape == (7, 3) and accepted.shape == (7, 3)
        for i, seg in enumerate(segments):
            for p, m in enumerate(machines):
                fin = run_segment(m, seg, m.start)
                assert finals[i, p] == fin
                assert accepted[i, p] == bool(m.accepting[fin])

    def test_starts_carry_across_rounds(self):
        # Two half-rounds with carried starts == one full-length round.
        machines = _group([4, 3], seed=21)
        stack = stack_machines(machines)
        rng = np.random.default_rng(21)
        full = [
            rng.integers(0, 6, size=1200).astype(np.int32) for _ in range(3)
        ]
        f_full, a_full = run_multipattern_batch(stack, full, k=2)
        f1, _ = run_multipattern_batch(stack, [s[:600] for s in full], k=2)
        f2, a2 = run_multipattern_batch(
            stack, [s[600:] for s in full], k=2, starts=f1
        )
        assert np.array_equal(f2, f_full)
        assert np.array_equal(a2, a_full)

    def test_bad_starts_rejected(self):
        machines = _group([3, 3], seed=22)
        stack = stack_machines(machines)
        seg = [_stream(100, seed=22)]
        with pytest.raises(ValueError):
            run_multipattern_batch(
                stack, seg, starts=np.zeros((2, 2), dtype=np.int32)
            )
        bad = np.array([[0, 3]], dtype=np.int32)  # state 3 out of range
        with pytest.raises(ValueError):
            run_multipattern_batch(stack, seg, starts=bad)


class TestEngineDelegation:
    def test_list_of_machines_routes_to_multipattern(self):
        machines = _group([3, 5], seed=30)
        inputs = _stream(2000, seed=30)
        res = repro.run_speculative(
            machines, inputs, k=3, collect=("match_positions",)
        )
        assert isinstance(res, MultiPatternResult)
        if res.route == "batched":
            _check_batched(res, machines, inputs)
        for pr, (fin, pos) in zip(res.patterns, _expected(machines, inputs)):
            assert np.array_equal(pr.match_positions, pos)

    def test_unsupported_backend_rejected(self):
        machines = _group([3, 4], seed=31)
        with pytest.raises(ValueError):
            repro.run_speculative(
                machines, _stream(100, seed=31), backend="numba"
            )

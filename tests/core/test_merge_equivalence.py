"""Property tests: every merge/config combination equals the serial run.

This is the central correctness property of the whole system (DESIGN.md
section 4): for any DFA, input, speculation width, chunking, merge kind,
check implementation, re-execution strategy and layout, the speculative
engine's final state equals the trusted sequential reference.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import repro
from repro.fsm.dfa import DFA
from repro.fsm.run import run_reference
from repro.gpu import Grid


@st.composite
def engine_case(draw):
    num_states = draw(st.integers(2, 9))
    num_inputs = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(0, 600))
    k = draw(st.integers(1, num_states))
    blocks = draw(st.integers(1, 3))
    tpb = draw(st.sampled_from([32, 64]))
    merge = draw(st.sampled_from(["sequential", "parallel"]))
    check = draw(st.sampled_from(["auto", "nested", "hash"]))
    reexec = draw(st.sampled_from(["delayed", "eager"]))
    layout = draw(st.sampled_from(["transformed", "natural"]))
    lookback = draw(st.integers(0, 6))
    dfa = DFA.random(num_states, num_inputs, rng=seed)
    inp = (
        np.random.default_rng(seed + 1)
        .integers(0, num_inputs, size=n)
        .astype(np.int32)
    )
    return dfa, inp, dict(
        k=k, merge=merge, check=check, reexec=reexec, lookback=lookback,
        grid=Grid(num_blocks=blocks, threads_per_block=tpb, layout=layout),
    )


@settings(max_examples=120, deadline=None)
@given(case=engine_case())
def test_final_state_equals_reference(case):
    dfa, inp, kwargs = case
    result = repro.run_speculative(dfa, inp, **kwargs)
    assert result.final_state == run_reference(dfa, inp)


@settings(max_examples=60, deadline=None)
@given(case=engine_case())
def test_spec_n_equals_reference(case):
    dfa, inp, kwargs = case
    kwargs["k"] = None  # enumerative
    result = repro.run_speculative(dfa, inp, **kwargs)
    assert result.final_state == run_reference(dfa, inp)
    # spec-N speculation can never miss
    if kwargs["merge"] == "sequential" or inp.size:
        assert result.stats.success_rate == 1.0


@settings(max_examples=60, deadline=None)
@given(case=engine_case())
def test_true_starts_are_true(case):
    dfa, inp, kwargs = case
    result = repro.run_speculative(dfa, inp, **kwargs)
    assert result.true_starts is not None
    # verify a random boundary against a prefix run
    n_chunks = result.true_starts.size
    if n_chunks > 1 and inp.size:
        from repro.workloads.chunking import plan_chunks

        plan = plan_chunks(inp.size, n_chunks)
        c = n_chunks // 2
        prefix = inp[: plan.starts[c]]
        assert result.true_starts[c] == run_reference(dfa, prefix)


@settings(max_examples=40, deadline=None)
@given(case=engine_case())
def test_delayed_never_reexecutes_more_than_eager(case):
    dfa, inp, kwargs = case
    if kwargs["merge"] != "parallel":
        return
    kwargs_d = dict(kwargs, reexec="delayed")
    kwargs_e = dict(kwargs, reexec="eager")
    rd = repro.run_speculative(dfa, inp, **kwargs_d)
    re_ = repro.run_speculative(dfa, inp, **kwargs_e)
    assert rd.final_state == re_.final_state
    # Delayed's necessary re-executions never exceed eager's total work.
    assert rd.stats.fixup_items <= re_.stats.reexec_items_eager or (
        re_.stats.reexec_items_eager == 0 and rd.stats.fixup_items == 0
    )


@settings(max_examples=40, deadline=None)
@given(case=engine_case())
def test_check_implementation_does_not_change_result(case):
    dfa, inp, kwargs = case
    rn = repro.run_speculative(dfa, inp, **dict(kwargs, check="nested"))
    rh = repro.run_speculative(dfa, inp, **dict(kwargs, check="hash"))
    assert rn.final_state == rh.final_state

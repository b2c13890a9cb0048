"""Bit-exactness of coalesced batch execution against running alone.

The serving layer's correctness rests on one property: concatenating many
independent requests into a single seeded chunk plan never changes any
request's answer. These tests drive :func:`repro.core.engine.run_speculative_batch`
and compare every per-request final state against the sequential
reference *and* against individual ``run_speculative`` calls across
kernel/collapse/schedule settings.
"""

import numpy as np
import pytest

from repro.apps import APPLICATIONS
from repro.core.engine import run_speculative, run_speculative_batch
from repro.core.kernels import plan_kernel
from repro.fsm.run import run_segment
from tests.conftest import make_random_dfa, random_input


def windows(corpus, sizes, seed=0):
    """Random windows of the corpus with the given sizes (0 = empty)."""
    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        lo = int(rng.integers(0, corpus.size - n + 1)) if n else 0
        out.append(corpus[lo : lo + n])
    return out


SIZES = [4096, 0, 1, 7000, 2048, 513, 12000, 64, 3000, 0, 8191, 2500]


class TestEngineBatch:
    @pytest.mark.parametrize("app", ["div7", "regex1"])
    @pytest.mark.parametrize("k", [1, 3, None])
    def test_matches_reference(self, app, k):
        dfa, corpus = APPLICATIONS[app].build(40_000, seed=3)
        segs = windows(corpus, SIZES, seed=k or 99)
        res = run_speculative_batch(dfa, segs, k=k, chunk_items=2048)
        assert res.num_requests == len(segs)
        for r, seg in enumerate(segs):
            assert res.final_states[r] == run_segment(dfa, seg, dfa.start)
            assert bool(res.accepted[r]) == bool(
                dfa.accepting[res.final_states[r]]
            )

    @pytest.mark.parametrize(
        "kernel,collapse,schedule",
        [
            ("lockstep", "off", "barrier"),
            ("stride4", "off", "barrier"),
            ("lockstep", "auto", "ooo"),
            ("auto", "auto", "ooo"),
        ],
    )
    def test_matches_individual_runs(self, kernel, collapse, schedule):
        # Whatever kernel/collapse/schedule an individual run uses, the
        # coalesced batch must agree with it request by request.
        dfa, corpus = APPLICATIONS["regex1"].build(30_000, seed=4)
        segs = windows(corpus, [5000, 2048, 9000, 1, 4096, 700], seed=5)
        res = run_speculative_batch(dfa, segs, k=3, chunk_items=1024)
        for r, seg in enumerate(segs):
            if seg.size == 0:
                assert res.final_states[r] == dfa.start
                continue
            alone = run_speculative(
                dfa,
                seg,
                k=3,
                num_blocks=1,
                threads_per_block=32,
                price=False,
                measure_success=False,
                kernel=kernel,
                collapse=collapse,
                schedule=schedule,
            )
            assert res.final_states[r] == alone.final_state

    def test_seeded_starts(self):
        dfa = make_random_dfa(9, 3, seed=11)
        rng = np.random.default_rng(12)
        segs = [random_input(3, n, seed=13 + i) for i, n in enumerate(SIZES)]
        starts = [int(rng.integers(0, 9)) for _ in segs]
        res = run_speculative_batch(
            dfa, segs, starts=starts, k=2, chunk_items=1500
        )
        for r, (seg, s0) in enumerate(zip(segs, starts)):
            assert res.final_states[r] == run_segment(dfa, seg, s0)

    def test_kernel_plan_and_prior(self):
        dfa, corpus = APPLICATIONS["div7"].build(20_000, seed=6)
        kplan = plan_kernel(dfa, chunk_len=2048, num_chunks=8, k=3)
        segs = windows(corpus, [6000, 3000, 2048, 100], seed=7)
        res = run_speculative_batch(
            dfa, segs, k=3, chunk_items=2048, kernel_plan=kplan
        )
        for r, seg in enumerate(segs):
            assert res.final_states[r] == run_segment(dfa, seg, dfa.start)

    def test_edge_batches(self):
        dfa = make_random_dfa(5, 2, seed=30)
        empty = run_speculative_batch(dfa, [], k=2)
        assert empty.num_requests == 0
        all_empty = run_speculative_batch(
            dfa, [np.empty(0, np.int32)] * 3, starts=[1, 2, 3 % 5], k=2
        )
        assert list(all_empty.final_states) == [1, 2, 3]
        one = run_speculative_batch(
            dfa, [random_input(2, 5000, seed=31)], k=2, chunk_items=512
        )
        assert one.final_states[0] == run_segment(
            dfa, random_input(2, 5000, seed=31), dfa.start
        )

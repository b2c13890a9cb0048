"""Real wall-clock microbenchmarks of the engine's building blocks.

These are honest pytest-benchmark timings of the NumPy simulation itself
(not the modeled GPU): lock-step local processing at several k, the two
merge implementations, speculation, and the layout transform. They track
the library's own performance over time.
"""

import numpy as np
import pytest

from repro.core.checks import match_pairs
from repro.core.local import process_chunks
from repro.core.lookback import speculate
from repro.core.merge_par import merge_parallel
from repro.core.merge_seq import merge_sequential
from repro.core.types import ChunkResults
from repro.fsm.dfa import DFA
from repro.workloads.chunking import plan_chunks, transform_layout

N_ITEMS = 400_000
N_CHUNKS = 4096


@pytest.fixture(scope="module")
def case():
    dfa = DFA.random(32, 4, rng=0)
    inputs = np.random.default_rng(1).integers(0, 4, size=N_ITEMS).astype(np.int32)
    plan = plan_chunks(N_ITEMS, N_CHUNKS)
    return dfa, inputs, plan


@pytest.mark.parametrize("k", [1, 4, 16])
def test_local_processing(benchmark, case, k):
    dfa, inputs, plan = case
    spec = speculate(dfa, inputs, plan, k, lookback=4)
    transformed = transform_layout(inputs, plan)
    benchmark(process_chunks, dfa, inputs, plan, spec, transformed=transformed)


def test_local_processing_natural_layout(benchmark, case):
    dfa, inputs, plan = case
    spec = speculate(dfa, inputs, plan, 4, lookback=4)
    benchmark(process_chunks, dfa, inputs, plan, spec)


def test_speculation(benchmark, case):
    dfa, inputs, plan = case
    benchmark(speculate, dfa, inputs, plan, 8, lookback=8)


def test_layout_transform(benchmark, case):
    _, inputs, plan = case
    benchmark(transform_layout, inputs, plan)


@pytest.fixture(scope="module")
def results(case):
    dfa, inputs, plan = case
    spec = speculate(dfa, inputs, plan, 4, lookback=8)
    end, _ = process_chunks(dfa, inputs, plan, spec)
    return ChunkResults(spec=spec, end=end, valid=np.ones_like(spec, dtype=bool))


def test_merge_sequential(benchmark, case, results):
    dfa, inputs, plan = case
    benchmark(merge_sequential, dfa, inputs, plan, results, stats=None)


def test_merge_parallel(benchmark, case, results):
    dfa, inputs, plan = case
    benchmark(merge_parallel, dfa, inputs, plan, results, stats=None)


def test_match_pairs_kernel(benchmark):
    rng = np.random.default_rng(0)
    m, k = 8192, 8
    el = rng.integers(0, 64, size=(m, k)).astype(np.int32)
    sr = rng.integers(0, 64, size=(m, k)).astype(np.int32)
    v = np.ones((m, k), dtype=bool)
    benchmark(match_pairs, el, v, sr, v)


# --------------------------------------------------------------------------- #
# CPU scale-out: persistent pool vs per-call spawn
# --------------------------------------------------------------------------- #
#
# The persistent pool's whole point is amortization: the DFA table and the
# input buffer are published to shared memory once, worker processes stay
# alive, and a dispatch pickles ~1 KB of segment names and boundary rows.
# `test_scaleout_per_call_spawn` pays process spawn plus full-table/input
# pickling on every call; `test_scaleout_persistent_pool` pays it once at
# setup, outside the timed region.

POOL_ITEMS = 200_000
POOL_WORKERS = 4


@pytest.fixture(scope="module")
def pool_case():
    from repro.core.mp_executor import ScaleoutPool

    dfa = DFA.random(32, 4, rng=0)
    inputs = np.random.default_rng(2).integers(0, 4, size=POOL_ITEMS).astype(np.int32)
    with ScaleoutPool(
        dfa, num_workers=POOL_WORKERS, k=4, sub_chunks_per_worker=16
    ) as pool:
        pool.run(inputs)  # warm up workers and size the input buffer
        yield dfa, inputs, pool


def test_scaleout_persistent_pool(benchmark, pool_case):
    dfa, inputs, pool = pool_case
    result = benchmark(pool.run, inputs)
    assert result.stats.pool_task_bytes < 8_192


def test_scaleout_per_call_spawn(benchmark, pool_case):
    from repro.core.mp_executor import ScaleoutPool

    dfa, inputs, _ = pool_case

    def spawn_and_run():
        with ScaleoutPool(
            dfa, num_workers=POOL_WORKERS, k=4, sub_chunks_per_worker=16
        ) as pool:
            return pool.run(inputs)

    benchmark(spawn_and_run)

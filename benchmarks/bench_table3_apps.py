"""Table 3: application characteristics, plus engine throughput baselines.

Reproduces the paper's application table (machine sizes, input kinds, CPU
baselines) and measures the *real* wall-clock throughput of the functional
NumPy engine on each application — the honest "what does this simulator
actually cost to run" number.
"""

import pytest

import repro
from repro.bench.experiments import table3_applications
from repro.bench.runner import app_instance, bench_items
from repro.apps.registry import APPLICATIONS, get_application
from repro.gpu.device import Grid


def test_table3_reproduction(benchmark, save_result):
    res = benchmark.pedantic(
        lambda: table3_applications(num_items=bench_items()),
        rounds=1, iterations=1,
    )
    save_result(res)
    rows = {r["application"]: r for r in res.rows}
    # Exactly reproducible machine dimensions:
    assert rows["html"]["num_states"] == 38
    assert rows["html"]["num_inputs"] == 128
    assert rows["div7"]["num_states"] == 7
    assert rows["regex1"]["num_inputs"] == 7
    assert rows["regex2"]["num_inputs"] == 3
    # Huffman decoder lands in Table 4's band:
    assert 150 <= rows["huffman"]["num_states"] <= 230


@pytest.mark.parametrize("name", sorted(APPLICATIONS))
def test_engine_wall_time(benchmark, name):
    app = get_application(name)
    dfa, inputs = app_instance(name, bench_items(), 1)
    benchmark(
        repro.run_speculative,
        dfa,
        inputs,
        k=app.best_k,
        lookback=app.default_lookback,
        measure_success=False,
        grid=Grid(num_blocks=20),
    )

"""Figure 14: effect of the input layout transformation (coalescing).

The paper reports a 3.79x average gain from the transformed layout. This
benchmark reproduces the modeled gain AND measures the real NumPy-side
wall-clock difference (contiguous row reads vs strided gathers) — the same
memory-system effect at a smaller scale.
"""

import time

import repro
from repro.bench.experiments import fig14_layout
from repro.bench.runner import app_instance, bench_items
from repro.gpu.device import Grid


def test_fig14_reproduction(benchmark, save_result):
    res = benchmark.pedantic(fig14_layout, rounds=1, iterations=1)
    save_result(res)
    gains = [r["gain"] for r in res.rows]
    assert sum(g > 3.0 for g in gains) >= 3  # most apps see the full effect
    assert all(g > 1.1 for g in gains)
    avg = sum(gains) / len(gains)
    assert 2.0 < avg < 6.0  # paper: 3.79 average


def test_real_wallclock_layout_effect(save_result):
    """The transformation also wins real time in the NumPy engine."""
    dfa, inputs = app_instance("div7", bench_items(), 1)

    def run(layout: str) -> float:
        t0 = time.perf_counter()
        repro.run_speculative(
            dfa, inputs, k=None, measure_success=False,
            grid=Grid(num_blocks=40, layout=layout),
        )
        return time.perf_counter() - t0

    run("transformed")  # warm-up
    t_nat = min(run("natural") for _ in range(3))
    t_tra = min(run("transformed") for _ in range(3))
    print(f"\nreal wall-clock: natural={t_nat * 1e3:.1f}ms "
          f"transformed={t_tra * 1e3:.1f}ms ratio={t_nat / t_tra:.2f}x")
    # the gather-free layout must not lose (cache behaviour favors it)
    assert t_tra < t_nat * 1.25

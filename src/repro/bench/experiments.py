"""The experiments: one function per paper table/figure (see DESIGN.md).

Each function runs the functional engine at bench scale, projects to the
paper's input sizes, prices with the V100 cost model, and returns an
:class:`repro.bench.runner.ExperimentResult` whose rows put our numbers
next to the paper's reported values (``paper`` columns; blank where the
paper gives no number for that point).
"""

from __future__ import annotations

import numpy as np

from repro.apps.registry import APPLICATIONS, get_application
from repro.bench.runner import (
    BenchConfig,
    ExperimentResult,
    app_instance,
    bench_items,
    measure,
)
from repro.fsm.analysis import dynamic_state_frequency
from repro.util.stats import cdf_by_frequency

__all__ = [
    "ablation_cache_budget",
    "ablation_device_comparison",
    "ablation_divm_family",
    "table3_applications",
    "table4_huffman_inputs",
    "table5_regexes",
    "fig3_motivation",
    "fig5_state_frequency_cdf",
    "fig6_success_rates",
    "scaling_figure",
    "fig12_13_k_sweep",
    "fig14_layout",
    "fig15_hot_cache",
    "ablation_check_crossover",
    "ablation_eager_vs_delayed",
    "PAPER_SCALING",
]

BLOCK_COUNTS = (20, 40, 80)

# Speedups the paper reports in Figures 7-11 (by app, series, block count).
# None = the paper does not give a readable number for that point.
PAPER_SCALING: dict[str, dict[str, dict[int, float | None]]] = {
    "huffman": {
        "spec-k/sequential": {20: 60.44, 40: 55.07, 80: 39.70},
        "spec-k/parallel": {20: 289.72, 40: 355.32, 80: 407.23},
        "spec-N/sequential": {20: 3.98, 40: 7.86, 80: 15.06},
        "spec-N/parallel": {20: 3.99, 40: 7.94, 80: 15.80},
    },
    "regex1": {
        "spec-k/sequential": {20: None, 40: 72.31, 80: None},
        "spec-k/parallel": {20: None, 40: None, 80: 353.99},
        "spec-N/parallel": {20: None, 40: None, 80: 164.68},
    },
    "regex2": {
        "spec-k/sequential": {20: None, 40: None, 80: None},
        "spec-k/parallel": {20: None, 40: None, 80: None},
    },
    "html": {
        "spec-k/sequential": {20: None, 40: 184.44, 80: None},
        "spec-k/parallel": {20: None, 40: None, 80: 420.74},
        "spec-N/parallel": {20: None, 40: None, 80: 103.46},
    },
    "div7": {
        "spec-N/sequential": {20: 104.84, 40: None, 80: None},
        "spec-N/parallel": {20: None, 40: None, 80: 397.93},
    },
}


# --------------------------------------------------------------------------- #
# tables
# --------------------------------------------------------------------------- #


def table3_applications(*, num_items: int | None = None, seed: int = 1) -> ExperimentResult:
    """Table 3: application characteristics (ours vs paper)."""
    n = num_items if num_items is not None else bench_items()
    res = ExperimentResult("table3", "Applications and machine sizes")
    for name, app in APPLICATIONS.items():
        dfa, _ = app_instance(name, n, seed)
        res.rows.append(
            {
                "application": name,
                "num_states": dfa.num_states,
                "paper_states": app.paper_num_states,
                "num_inputs": dfa.num_inputs,
                "paper_inputs": app.paper_num_inputs,
                "paper_seq_time_us": app.paper_seq_time_us,
                "paper_items": app.paper_num_items,
                "cpu_ns_per_item": round(app.paper_cpu_ns_per_item, 3),
            }
        )
    res.notes.append(
        "regex DFA state counts are construction-dependent (see EXPERIMENTS.md); "
        "input-class counts match the paper exactly."
    )
    return res


def table4_huffman_inputs(*, chars_per_book: int = 1 << 17, seed: int = 0) -> ExperimentResult:
    """Table 4: per-book Huffman FSM sizes for four texts plus 'combined'."""
    from repro.apps.huffman import HuffmanCode
    from repro.workloads.text import synthetic_library

    paper = {0: 179, 1: 203, 2: 177, 3: 179, "combined": 205}
    books = synthetic_library(4, chars_per_book, rng=seed)
    res = ExperimentResult("table4", "Huffman input texts and FSM sizes")
    for i, book in enumerate(books):
        code = HuffmanCode.from_data(book, num_symbols=256)
        res.rows.append(
            {
                "text": f"book_{i}",
                "fsm_states": code.decoder_dfa().num_states,
                "paper_states": paper[i],
            }
        )
    combined = np.concatenate(books)
    code = HuffmanCode.from_data(combined, num_symbols=256)
    res.rows.append(
        {
            "text": "combined",
            "fsm_states": code.decoder_dfa().num_states,
            "paper_states": paper["combined"],
        }
    )
    return res


def table5_regexes() -> ExperimentResult:
    """Table 5: the two regular expressions and their machines."""
    from repro.apps.paper_regexes import (
        REGEX1_PATTERN,
        REGEX2_PATTERN,
        build_regex1,
        build_regex2,
    )

    r1u, class1 = build_regex1(compressed=True, minimize=False)
    r1m, _ = build_regex1(compressed=True, minimize=True)
    r2, _ = build_regex2()
    res = ExperimentResult("table5", "Regular expressions")
    res.rows.append(
        {
            "name": "regex1",
            "pattern": REGEX1_PATTERN,
            "dfa_states": r1u.num_states,
            "minimal_states": r1m.num_states,
            "paper_states": 18,
            "input_classes": r1u.num_inputs,
            "paper_classes": 7,
        }
    )
    res.rows.append(
        {
            "name": "regex2",
            "pattern": REGEX2_PATTERN,
            "dfa_states": r2.num_states,
            "minimal_states": r2.num_states,
            "paper_states": 29,
            "input_classes": r2.num_inputs,
            "paper_classes": 3,
        }
    )
    assert class1 is not None and int(class1.max()) + 1 == r1u.num_inputs
    return res


# --------------------------------------------------------------------------- #
# motivation & analysis figures
# --------------------------------------------------------------------------- #


def fig3_motivation(*, num_items: int | None = None, seed: int = 1) -> ExperimentResult:
    """Figure 3: sequential merge caps scalability for every k (regex 2)."""
    res = ExperimentResult(
        "fig3", "Sequential-merge speedups vs thread blocks (regex 2)"
    )
    app = get_application("regex2")
    ks: list[int | None] = [4, 8, 16, None]
    for k in ks:
        for blocks in (10, 20, 40, 60, 80):
            m = measure(
                BenchConfig(app="regex2", k=k, num_blocks=blocks, merge="sequential"),
                num_items=num_items,
                seed=seed,
            )
            res.rows.append(
                {
                    "k": "N" if k is None else k,
                    "blocks": blocks,
                    "speedup": round(m.speedup, 2),
                }
            )
    res.notes.append(
        "expected shape: for every k the speedup stops growing (or drops) "
        "beyond 20-40 blocks; smaller k is better (less redundant work)."
    )
    del app
    return res


def fig5_state_frequency_cdf(*, num_items: int = 1 << 17, seed: int = 1) -> ExperimentResult:
    """Figure 5: state-frequency CDF for regex 1 (top 8 states ~= 95%)."""
    dfa, inputs = app_instance("regex1", num_items, seed)
    freq = dynamic_state_frequency(dfa, inputs[: 1 << 16])
    cdf = cdf_by_frequency(freq)
    res = ExperimentResult("fig5", "State frequency CDF, regex 1")
    for i in (0, 1, 3, 7, 15, min(31, cdf.size - 1), cdf.size - 1):
        res.rows.append({"top_states": i + 1, "cumulative_share": round(float(cdf[i]), 4)})
    res.notes.append(
        f"paper: most frequent 8 of 18 states cover ~95%; "
        f"ours: top 8 of {cdf.size} cover {cdf[min(7, cdf.size - 1)]:.1%}."
    )
    return res


def fig6_success_rates(
    *, num_items: int | None = None, seed: int = 1,
    ks: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> ExperimentResult:
    """Figure 6: speculation success rate vs k for every application."""
    res = ExperimentResult("fig6", "Speculation success rates")
    for name, app in APPLICATIONS.items():
        n_states = None
        for k in ks:
            dfa, _ = app_instance(name, num_items if num_items else bench_items(), seed)
            n_states = dfa.num_states
            if k > n_states:
                continue
            m = measure(
                BenchConfig(app=name, k=k, num_blocks=20, merge="parallel"),
                num_items=num_items,
                seed=seed,
            )
            res.rows.append(
                {"application": name, "k": k, "success_rate": round(m.success_rate, 4)}
            )
        del n_states
    res.notes.append(
        "expected: html/regex2 ~1.0 at k=1; regex1 reaches ~1.0 by k=8; "
        "huffman rises with k; div7 is linear in k (k/7)."
    )
    return res


# --------------------------------------------------------------------------- #
# scaling figures 7-11
# --------------------------------------------------------------------------- #


def scaling_figure(
    app_name: str, *, num_items: int | None = None, seed: int = 1
) -> ExperimentResult:
    """Figures 7-11: sequential vs parallel merge, spec-k and spec-N."""
    app = get_application(app_name)
    fig_id = {"huffman": "fig7", "regex1": "fig8", "regex2": "fig9",
              "html": "fig10", "div7": "fig11"}[app_name]
    res = ExperimentResult(
        fig_id, f"Merge scalability, {app_name} (spec-k uses the paper's best k)"
    )
    paper = PAPER_SCALING.get(app_name, {})
    series: list[tuple[str, int | None]] = []
    if app.best_k is not None:
        series.append(("spec-k", app.best_k))
    series.append(("spec-N", None))
    for label, k in series:
        for merge in ("sequential", "parallel"):
            for blocks in BLOCK_COUNTS:
                m = measure(
                    BenchConfig(
                        app=app_name,
                        k=k,
                        num_blocks=blocks,
                        merge=merge,
                        cache_table=(app_name == "huffman"),
                    ),
                    num_items=num_items,
                    seed=seed,
                )
                ref = paper.get(f"{label}/{merge}", {}).get(blocks)
                res.rows.append(
                    {
                        "series": f"{label}/{merge}",
                        "blocks": blocks,
                        "speedup": round(m.speedup, 2),
                        "paper": "" if ref is None else ref,
                        "success": round(m.success_rate, 4),
                    }
                )
    res.notes.append(
        "expected shape: sequential merge peaks at 20-40 blocks and declines; "
        "parallel merge increases monotonically through 80 blocks."
    )
    return res


# --------------------------------------------------------------------------- #
# k sweeps, layout, cache
# --------------------------------------------------------------------------- #


def fig12_13_k_sweep(
    app_name: str, *, num_items: int | None = None, seed: int = 1,
    ks: tuple[int, ...] = (1, 2, 4, 8, 16),
    seeds: tuple[int, ...] | None = None,
) -> ExperimentResult:
    """Figures 12/13: speedup vs k (parallel merge, 80 blocks).

    ``seeds`` averages each point over several workload seeds — fix-up
    costs at marginal success rates are dominated by where miss clusters
    happen to fall, so single-seed points are noisy exactly where the
    figure is most interesting.
    """
    fig_id = "fig12" if app_name == "regex1" else "fig13"
    res = ExperimentResult(fig_id, f"Speedup vs k, {app_name}")
    seed_list = seeds if seeds is not None else (seed,)
    best = (None, -1.0)
    for k in ks:
        speedups, successes = [], []
        for s in seed_list:
            m = measure(
                BenchConfig(app=app_name, k=k, num_blocks=80, merge="parallel"),
                num_items=num_items,
                seed=s,
            )
            speedups.append(m.speedup)
            successes.append(m.success_rate)
        mean_speedup = float(np.mean(speedups))
        if mean_speedup > best[1]:
            best = (k, mean_speedup)
        res.rows.append(
            {
                "k": k,
                "speedup": round(mean_speedup, 2),
                "success": round(float(np.mean(successes)), 4),
            }
        )
    paper_best = get_application(app_name).best_k
    res.notes.append(
        f"best k: ours={best[0]}, paper={paper_best}"
        + (f" (mean of {len(seed_list)} seeds)" if len(seed_list) > 1 else "")
    )
    return res


def fig14_layout(*, num_items: int | None = None, seed: int = 1) -> ExperimentResult:
    """Figure 14: effect of the input layout transformation."""
    res = ExperimentResult("fig14", "Input layout transformation")
    gains = []
    for name, app in APPLICATIONS.items():
        speeds = {}
        for layout in ("transformed", "natural"):
            m = measure(
                BenchConfig(
                    app=name, k=app.best_k, num_blocks=80, merge="parallel",
                    layout=layout,
                ),
                num_items=num_items,
                seed=seed,
            )
            speeds[layout] = m.speedup
        gain = speeds["transformed"] / speeds["natural"]
        gains.append(gain)
        res.rows.append(
            {
                "application": name,
                "transformed": round(speeds["transformed"], 2),
                "natural": round(speeds["natural"], 2),
                "gain": round(gain, 2),
            }
        )
    res.notes.append(
        f"average gain {np.mean(gains):.2f}x (paper: 3.79x average)."
    )
    return res


def fig15_hot_cache(*, num_items: int | None = None, seed: int = 1) -> ExperimentResult:
    """Figure 15: effect of caching hot transition-table rows (Huffman)."""
    res = ExperimentResult("fig15", "Hot-state caching, Huffman decoding")
    for blocks in BLOCK_COUNTS:
        speeds = {}
        hit = None
        for cached in (False, True):
            m = measure(
                BenchConfig(
                    app="huffman", k=8, num_blocks=blocks, merge="parallel",
                    cache_table=cached,
                ),
                num_items=num_items,
                seed=seed,
            )
            speeds[cached] = m.speedup
            if cached:
                hit = m.cache_hit_rate
        res.rows.append(
            {
                "blocks": blocks,
                "cached": round(speeds[True], 2),
                "uncached": round(speeds[False], 2),
                "gain": round(speeds[True] / speeds[False], 2),
                "hit_rate": round(hit, 4),
            }
        )
    res.notes.append("paper: caching yields ~50% (1.5x) for Huffman.")
    return res


# --------------------------------------------------------------------------- #
# ablations (ours)
# --------------------------------------------------------------------------- #


def ablation_check_crossover(
    *, num_items: int | None = None, seed: int = 1,
    ks: tuple[int, ...] = (2, 4, 8, 12, 16, 24, 48),
) -> ExperimentResult:
    """Nested-loop vs hash runtime checks as k grows (Huffman machine).

    Reproduces the code generator's selection rule: nested wins for small
    k, hash wins past the threshold (paper: k = 12).
    """
    from repro import run_speculative
    from repro.bench.runner import bench_items
    from repro.fsm.dfa import DFA
    from repro.gpu import calibration as cal
    from repro.gpu.device import Grid
    from repro.workloads.binary import random_symbols

    res = ExperimentResult("ablation-check", "Runtime check crossover")
    n = min(num_items if num_items is not None else bench_items(), 200_000)
    # Miss-heavy regime: a random non-converging machine where most probes
    # scan the whole row — the worst case the generator's threshold guards
    # against. (With ranked speculation rows and high hit rates, nested wins
    # at every k; the note records that regime too.)
    dfa = DFA.random(64, 3, rng=seed, accepting_fraction=0.2)
    inputs = random_symbols(n, 3, rng=seed)

    def check_ns(k_eff: int, check: str) -> float:
        r = run_speculative(
            dfa, inputs, k=k_eff, merge="parallel", check=check,
            reexec="delayed", lookback=0, measure_success=False,
            grid=Grid(num_blocks=20),
        )
        s = r.stats
        if check == "nested":
            ns = s.check_comparisons * cal.CMP_NS
        else:
            ns = (
                s.hash_inserts + s.hash_probes + s.hash_probe_steps
            ) * cal.HASH_OP_NS
        return ns / max(1, s.merge_pair_ops)

    for k in ks:
        k_eff = min(k, dfa.num_states)
        nested = check_ns(k_eff, "nested")
        hashed = check_ns(k_eff, "hash")
        res.rows.append(
            {
                "k": k_eff,
                "nested_ns_per_merge": round(nested, 2),
                "hash_ns_per_merge": round(hashed, 2),
                "winner": "nested" if nested <= hashed else "hash",
            }
        )
    res.notes.append(
        "miss-heavy regime (random 64-state machine, no look-back): nested "
        "scans cost O(k^2) and hash overtakes near the paper's k=12 "
        "threshold. With ranked rows and ~1.0 hit rates nested wins at "
        "every k — the generator's rule is a worst-case guard."
    )
    return res


def ablation_divm_family(
    *, num_items: int | None = None, seed: int = 1,
    moduli: tuple[int, ...] = (3, 5, 6, 7, 8, 12),
) -> ExperimentResult:
    """Speculation success across the div-m machine family.

    Our extension of the Div7 discussion: divisibility machines split into
    two regimes by ``gcd(base, m)``. With ``gcd(2, m) == 1`` (m = 3, 5, 7)
    multiplication by 2 permutes the residues — no two states ever
    converge and success at width k is exactly ``k/m``. With a shared
    factor (m = 6, 8, 12) residues collapse onto a sub-lattice and
    speculation succeeds far above ``k/m``. The FSM's algebraic structure,
    not its size, decides whether speculation works.
    """
    import repro
    from repro.apps.div import div_dfa, residues_converge
    from repro.bench.runner import bench_items
    from repro.gpu.device import Grid
    from repro.workloads.binary import random_bits

    res = ExperimentResult("ablation-divm", "Speculation vs convergence (div-m family)")
    n = min(num_items if num_items is not None else bench_items(), 300_000)
    bits = random_bits(n, rng=seed)
    for m in moduli:
        dfa = div_dfa(m)
        k = max(1, m // 3)
        r = repro.run_speculative(
            dfa, bits, k=k, lookback=8,
            grid=Grid(num_blocks=8, threads_per_block=64),
        )
        res.rows.append(
            {
                "modulus": m,
                "k": k,
                "converges": residues_converge(m),
                "success": round(r.stats.success_rate, 3),
                "blind_rate_k_over_m": round(k / m, 3),
            }
        )
    res.notes.append(
        "gcd(2, m) == 1 -> success == k/m exactly (no convergence); "
        "a shared factor lets look-back collapse the state set and success "
        "jumps above the blind rate."
    )
    return res


def ablation_device_comparison(
    *, num_items: int | None = None, seed: int = 1
) -> ExperimentResult:
    """Cross-device scaling: V100 vs GTX 1080 Ti.

    Our extension: the same counted execution priced on a smaller device
    (28 SMs). The parallel merge's advantage persists but its headroom is
    bounded by residency — "scaling out" stops at the device's SM count,
    the persistent-thread constraint of Section 4.1.
    """
    import repro
    from repro.bench.runner import app_instance, bench_items
    from repro.gpu.cost import CostModel
    from repro.gpu.device import GTX_1080TI, TESLA_V100, Grid

    res = ExperimentResult("ablation-device", "V100 vs GTX 1080 Ti")
    app = get_application("div7")
    n = num_items if num_items is not None else bench_items()
    dfa, inputs = app_instance("div7", n, seed)
    for device in (TESLA_V100, GTX_1080TI):
        for blocks in (14, 28, 56, 80):
            if blocks > device.max_resident_blocks:
                resident_note = "oversubscribed"
            else:
                resident_note = ""
            r = repro.run_speculative(
                dfa, inputs, k=None, merge="parallel", measure_success=False,
                grid=Grid(num_blocks=blocks, device=device),
            )
            model = CostModel(device=device,
                              cpu_transition_ns=app.paper_cpu_ns_per_item)
            tb = model.price(
                r.stats.project(app.paper_num_items), num_blocks=blocks,
                threads_per_block=256, merge="parallel",
                layout_transformed=True,
            )
            res.rows.append(
                {
                    "device": device.name,
                    "blocks": blocks,
                    "speedup": round(tb.speedup, 1),
                    "note": resident_note,
                }
            )
    res.notes.append(
        "beyond the device's SM count, extra blocks serialize into waves "
        "(persistent threads launch at most #SM blocks)."
    )
    return res


def ablation_cache_budget(
    *, num_items: int | None = None, seed: int = 1,
    budgets: tuple[int, ...] = (0, 64, 256, 1024, 4096, 48 * 1024),
) -> ExperimentResult:
    """Hot-state cache: hit rate and modeled gain vs shared-memory budget.

    Our extension of Figure 15: how much shared memory does the cache need
    before the gain saturates? With the paper's static target-count ranking
    the hottest few rows capture most accesses (Figure 5's skew).
    """
    import repro
    from repro.bench.runner import app_instance, bench_items
    from repro.gpu.cost import price_at_scale
    from repro.gpu.device import Grid

    res = ExperimentResult("ablation-cache-budget", "Cache budget sweep (Huffman)")
    app = get_application("huffman")
    n = num_items if num_items is not None else bench_items()
    dfa, inputs = app_instance("huffman", n, seed)
    base_run = repro.run_speculative(
        dfa, inputs, k=8, lookback=16, measure_success=False, grid=Grid(),
    )
    base = price_at_scale(
        base_run, app.paper_num_items,
        cpu_transition_ns=app.paper_cpu_ns_per_item,
    )
    for budget in budgets:
        r = repro.run_speculative(
            dfa, inputs, k=8, lookback=16, measure_success=False,
            grid=Grid(cache_table=True, cache_budget_bytes=budget),
        )
        tb = price_at_scale(
            r, app.paper_num_items, cpu_transition_ns=app.paper_cpu_ns_per_item
        )
        res.rows.append(
            {
                "budget_bytes": budget,
                "rows_resident": r.cache.rows_resident,
                "hit_rate": round(r.stats.cache_hit_rate, 4),
                "speedup": round(tb.speedup, 1),
                "gain_vs_uncached": round(tb.speedup / base.speedup, 2),
            }
        )
    res.notes.append(
        f"uncached baseline: {base.speedup:.1f}x. The hash-check overhead "
        "makes tiny budgets a net loss; gains saturate once the hot rows fit."
    )
    return res


def ablation_eager_vs_delayed(
    *, num_items: int | None = None, seed: int = 1
) -> ExperimentResult:
    """Eager vs delayed re-execution: wasted work under the tree merge.

    Uses Div7 at small k — the adversarial no-convergence machine — where
    eager re-execution resolves speculative mismatches that are mostly off
    the true path.
    """
    res = ExperimentResult("ablation-reexec", "Eager vs delayed re-execution")
    for k in (1, 2, 4):
        row = {"k": k}
        for reexec in ("eager", "delayed"):
            m = measure(
                BenchConfig(
                    app="div7", k=k, num_blocks=20, merge="parallel", reexec=reexec
                ),
                num_items=num_items,
                seed=seed,
            )
            row[f"{reexec}_reexec_items"] = m.reexec_items
            row[f"{reexec}_speedup"] = round(m.speedup, 2)
        row["waste_ratio"] = round(
            row["eager_reexec_items"] / max(1, row["delayed_reexec_items"]), 2
        )
        res.rows.append(row)
    res.notes.append(
        "delayed re-executes only chunks on the true path (Section 3.3); "
        "eager also resolves mismatches that never mattered."
    )
    return res

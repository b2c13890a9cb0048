"""``nids_stream``: one pass of a literal rule set over a long traffic stream.

Closed loop, one caller: ``run_multipattern(rules, stream, k=4,
backend="native", stack=<prebuilt>)`` with the default ``collect``
(match positions) over ``ITEMS`` symbols, for ``RULES`` literal
signatures built the way ``benchmarks/bench_multipattern.py`` builds
them. The batched multi-pattern route, the native P-loop and match
recovery do the work; the single-machine engine and the pool are
bypassed.
"""

from __future__ import annotations

import numpy as np

import refs
from bulk import Call
from layers import span_total

ITEMS = 1 << 21
RULES = 20
RULE_SEED = 20  # the rule set is fixed; the stream varies with the seed
K = 4
ALPHABET = tuple("abcdefghijklmnop")  # a 16-symbol "payload byte" space


def make_literals(num: int, seed: int) -> list:
    """``num`` distinct literal signatures of 4-8 symbols (symbol ids)."""
    rng = np.random.default_rng(seed)
    out, seen = [], set()
    while len(out) < num:
        length = int(rng.integers(4, 9))
        lit = tuple(int(c) for c in rng.integers(0, len(ALPHABET), size=length))
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return out


def compile_rules(literals) -> list:
    from repro.fsm.alphabet import Alphabet
    from repro.regex import compile_search

    alphabet = Alphabet.from_symbols(ALPHABET)
    return [
        compile_search("".join(ALPHABET[c] for c in lit), alphabet, name=f"sig-{i}")
        for i, lit in enumerate(literals)
    ]


def prepare(seed: int) -> dict:
    literals = make_literals(RULES, RULE_SEED)
    rules = compile_rules(literals)
    stream = np.random.default_rng(seed).integers(
        0, len(ALPHABET), size=ITEMS
    ).astype(np.int32)
    expect = [
        (refs.final_state(m.table, m.start, stream), refs.literal_matches(stream, lit))
        for m, lit in zip(rules, literals)
    ]
    return {"literals": literals, "stream": stream, "expect": expect}


def setup(ctx: dict) -> dict:
    from repro.core.multipattern import stack_machines

    rules = compile_rules(ctx["literals"])
    return {"rules": rules, "stack": stack_machines(rules)}


def check(result, expect) -> bool:
    if len(result.patterns) != len(expect):
        return False
    for pat, (final, matches) in zip(result.patterns, expect):
        if pat.final_state is None or int(pat.final_state) != final:
            return False
        if pat.match_positions is None or not np.array_equal(pat.match_positions, matches):
            return False
    return True


def calls(ctx: dict, state: dict) -> list:
    from repro.core.multipattern import run_multipattern

    rules, stack, stream, expect = state["rules"], state["stack"], ctx["stream"], ctx["expect"]
    return [
        Call(
            name="rules",
            items=int(stream.size),
            run=lambda: run_multipattern(rules, stream, k=K, backend="native", stack=stack),
            check=lambda r: check(r, expect),
        )
    ]


warm_calls = calls


def ref_sample(ctx: dict):
    """A machine and input for the sequential ``DFA.run`` baseline."""
    return compile_rules(ctx["literals"][:1])[0], ctx["stream"]


def close(state: dict) -> None:
    pass


def decisions(results) -> dict:
    return {name: {"route": r.route} for name, r in results[:1]}


def layers(trace, results, state) -> dict:
    n = max(1, len(results))
    stats = [r.stats for _, r in results]
    return {
        "lookback.speculate_ms": span_total(trace, "lookback.speculate") / n * 1e3,
        "lookback.hit_rate": sum(s.success_hits for s in stats)
        / max(1, sum(s.success_total for s in stats)),
        "kernels.plan_ms": span_total(trace, "kernels.plan_kernel") / n * 1e3,
        "kernels.step_ms": span_total(trace, "mp.local_exec") / n * 1e3,
        "merge.merge_ms": span_total(trace, "merge.merge_parallel") / n * 1e3,
        "native.load_ms": span_total(trace, "native.load") / n * 1e3,
        "native.step_ms": span_total(trace, "native.process_chunks") / n * 1e3,
        "mp.remap_ms": span_total(trace, "mp.remap") / n * 1e3,
        "mp.pass_ms": span_total(trace, "mp.local_exec") / n * 1e3,
        "mp.recover_ms": span_total(trace, "mp.recover") / n * 1e3,
        "mp.resolve_ms": span_total(trace, "mp.resolve") / n * 1e3,
    }

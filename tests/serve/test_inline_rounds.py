"""Where a serving round runs: inline on the event loop, or in a thread.

A round whose machine has a loaded kernel (a single machine's one-lane
``native``, a group's ``stack.serial_kernel()``) is one compiled call per
request, so it runs on the event-loop thread with no ``asyncio.to_thread``
hop. A round without one (the ``run_reference`` loop, chunked NumPy)
still runs in a worker thread. Either way carved multi-round requests
stay bit-exact against ``run_reference``.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.apps import APPLICATIONS
from repro.core import multipattern as mp
from repro.core.native import load_serial_kernel
from repro.fsm.alphabet import Alphabet
from repro.fsm.run import run_reference
from repro.regex import compile_search
from repro.serve import FSMServer, ServeConfig
from repro.serve import server as server_mod

APPS = ("div7", "regex1", "huffman", "html")
ALPHABET = tuple("abcdefghijklmnop")
RULES = ("abca", "pop", "dddd", "aponm", "feed")
# Small rounds carve every request over several rounds, so each one's
# carried state threads through rounds of both kinds.
SMALL_ROUNDS = ServeConfig(
    round_budget_items=2048, chunk_items=512, max_batch_requests=4
)


def _rules():
    alphabet = Alphabet.from_symbols(ALPHABET)
    idx = {c: i for i, c in enumerate(ALPHABET)}
    return [
        compile_search(rule, alphabet, name=f"rule-{i}")
        for i, rule in enumerate(RULES)
    ], idx


def _workload(seed=0):
    """(tenant, symbols) requests for the four apps and the five rules."""
    rng = np.random.default_rng(seed)
    machines, work = {}, []
    for i, app in enumerate(APPS):
        dfa, corpus = APPLICATIONS[app].build(40_000, seed=i + 1)
        machines[app] = dfa
        for n in (9000, 300, 5000):
            lo = int(rng.integers(0, corpus.size - n))
            work.append((app, corpus[lo : lo + n]))
    rules, idx = _rules()
    for i, dfa in enumerate(rules):
        machines[f"rule-{i}"] = dfa
        # Plant the rule's literal so some requests end matching.
        sym = rng.integers(0, len(ALPHABET), size=4000 + 700 * i)
        sym[-len(RULES[i]):] = [idx[c] for c in RULES[i]]
        work.append((f"rule-{i}", sym.astype(np.int32)))
    return machines, work


def _serve(machines, work, monkeypatch, *, refuse_threads):
    """Serve ``work``; return the responses, the threads rounds ran on,
    the loop's thread, the ``to_thread`` hops and the server."""
    loop_thread = []
    ran_on, hops = [], []

    async def drive():
        loop_thread.append(threading.get_ident())
        server = FSMServer(SMALL_ROUNDS)
        tenants = {
            name: server.register_tenant(name, machines[name]) for name in APPS
        }
        rules = [n for n in machines if n.startswith("rule-")]
        tenants.update(
            zip(rules, server.register_group([(n, machines[n]) for n in rules]))
        )
        real = server._execute_round

        def execute(rnd):
            ran_on.append(threading.get_ident())
            return real(rnd)

        server._execute_round = execute
        await server.start()
        out = await asyncio.gather(
            *(server.submit(tenants[name], sym) for name, sym in work)
        )
        await server.close()
        return out, server

    real_to_thread = asyncio.to_thread

    async def counting_to_thread(fn, *args, **kwargs):
        if refuse_threads:
            raise AssertionError("a kernel round hopped to a thread")
        hops.append(fn)
        return await real_to_thread(fn, *args, **kwargs)

    monkeypatch.setattr(asyncio, "to_thread", counting_to_thread)
    out, server = asyncio.run(drive())
    return out, ran_on, loop_thread[0], hops, server


def _check_exact(machines, work, responses):
    for (name, sym), resp in zip(work, responses):
        dfa = machines[name]
        want = run_reference(dfa, sym)
        assert resp.status == "ok"
        assert resp.final_state == want, name
        assert resp.accepted == bool(dfa.accepting[want])
    assert any(r.rounds > 1 for r in responses)


def test_kernel_rounds_run_on_the_loop_thread(monkeypatch):
    machines, work = _workload()
    rules = [machines[n] for n in machines if n.startswith("rule-")]
    kernels = [load_serial_kernel(machines[app]) for app in APPS]
    kernels.append(mp.stack_machines(rules).serial_kernel())
    if any(nk is None for nk in kernels):
        pytest.skip("no working C compiler")
    out, ran_on, loop_thread, hops, server = _serve(
        machines, work, monkeypatch, refuse_threads=True
    )
    _check_exact(machines, work, out)
    assert ran_on and set(ran_on) == {loop_thread}
    assert hops == []
    rounds = server.trace.find("serve.round")
    assert len(rounds) == len(ran_on)
    assert all(s.attrs["inline"] for s in rounds)


@pytest.mark.parametrize("leg", ["single", "group"])
def test_rounds_without_a_kernel_hop_to_a_thread(leg, monkeypatch):
    machines, work = _workload(seed=1)
    if leg == "single":
        monkeypatch.setattr(server_mod, "load_serial_kernel", lambda dfa: None)
        work = [(n, s) for n, s in work if n in APPS]
    else:
        monkeypatch.setattr(
            mp.MachineStack, "serial_kernel", lambda self, **kw: None
        )
        work = [(n, s) for n, s in work if n.startswith("rule-")]
    out, ran_on, loop_thread, hops, server = _serve(
        machines, work, monkeypatch, refuse_threads=False
    )
    _check_exact(machines, work, out)
    assert ran_on and loop_thread not in ran_on
    assert len(hops) == len(ran_on)
    rounds = server.trace.find("serve.round")
    assert rounds and not any(s.attrs["inline"] for s in rounds)


@pytest.mark.parametrize("seed", [2, 3])
def test_carved_rounds_are_bit_exact(seed, monkeypatch):
    machines, work = _workload(seed=seed)
    out, *_ = _serve(machines, work, monkeypatch, refuse_threads=False)
    _check_exact(machines, work, out)

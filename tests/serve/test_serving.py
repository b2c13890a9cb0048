"""Asyncio serving-layer tests: correctness, admission, deadlines, faults.

No pytest-asyncio in the image — each test is a plain function driving a
coroutine with ``asyncio.run``. The scheduler's priority behavior is
additionally unit-tested synchronously (no event loop) so deadline
ordering is deterministic rather than timing-dependent.
"""

import asyncio
import os
import subprocess
import sys

import numpy as np

import pytest

from repro.apps import APPLICATIONS
from repro.core.predictor import dfa_fingerprint
from repro.fsm.run import run_segment
from repro.serve import (
    FSMServer,
    QueuedRequest,
    ServeClient,
    ServeConfig,
    WeightedFairScheduler,
    carve_round,
    zipf_workload,
)


def _req(tenant, fp="m0", size=100, deadline_ts=None, rid="r"):
    return QueuedRequest(
        tenant=tenant,
        fingerprint=fp,
        request_id=rid,
        symbols=None,
        size=size,
        carry_state=0,
        deadline_ts=deadline_ts,
    )


class TestSchedulerUnit:
    def test_wfq_weights_and_order(self):
        sched = WeightedFairScheduler()
        sched.add_tenant("heavy", weight=2.0)
        sched.add_tenant("light", weight=1.0)
        for i in range(4):
            assert sched.try_enqueue(_req("heavy", size=100, rid=f"h{i}"))
            assert sched.try_enqueue(_req("light", size=100, rid=f"l{i}"))
        order = []
        while sched.depth:
            order.extend(
                r.request_id
                for r in sched.select_round(max_requests=1, now=0.0)
            )
        # weight 2 finishes two requests per virtual unit vs one: heavy's
        # first two tags (50, 100) beat light's first (100, tie broken
        # deterministically by min()), and heavy never falls behind.
        assert order.index("h1") < order.index("l1")
        assert order.index("h3") < order.index("l3")

    def test_deadline_urgency_preempts_fair_order(self):
        sched = WeightedFairScheduler(predict_service_s=lambda items: 1.0)
        sched.add_tenant("a")
        sched.add_tenant("b")
        # a enqueues first (smaller finish tag); b's deadline is nearer
        # than its predicted service time, so b must preempt.
        assert sched.try_enqueue(_req("a", size=10, rid="fair"))
        assert sched.try_enqueue(
            _req("b", size=1000, deadline_ts=0.5, rid="urgent")
        )
        sel = sched.select_round(max_requests=1, now=0.0)
        assert [r.request_id for r in sel] == ["urgent"]
        # With ample slack the same request is not urgent: fair order wins.
        sched2 = WeightedFairScheduler(predict_service_s=lambda items: 1.0)
        sched2.add_tenant("a")
        sched2.add_tenant("b")
        sched2.try_enqueue(_req("a", size=10, rid="fair"))
        sched2.try_enqueue(_req("b", size=1000, deadline_ts=99.0, rid="late"))
        sel = sched2.select_round(max_requests=1, now=0.0)
        assert [r.request_id for r in sel] == ["fair"]

    def test_admission_bounds(self):
        sched = WeightedFairScheduler(
            max_queue_depth=3, max_tenant_queue_depth=2
        )
        sched.add_tenant("a")
        sched.add_tenant("b")
        assert sched.try_enqueue(_req("a", rid="a0"))
        assert sched.try_enqueue(_req("a", rid="a1"))
        assert not sched.try_enqueue(_req("a", rid="a2"))  # tenant bound
        assert sched.try_enqueue(_req("b", rid="b0"))
        assert not sched.try_enqueue(_req("b", rid="b1"))  # global bound
        assert sched.depth == 3

    def test_round_fill_coalesces_same_machine_only(self):
        sched = WeightedFairScheduler()
        for t in ("a", "b", "c"):
            sched.add_tenant(t)
        sched.try_enqueue(_req("a", fp="m0", rid="a0"))
        sched.try_enqueue(_req("a", fp="m0", rid="a1"))
        sched.try_enqueue(_req("b", fp="m1", rid="b0"))
        sched.try_enqueue(_req("c", fp="m0", rid="c0"))
        sel = sched.select_round(max_requests=8, now=0.0)
        assert sorted(r.request_id for r in sel) == ["a0", "a1", "c0"]
        assert sched.depth == 1  # b0 waits for an m1 round

    def test_requeue_keeps_front_position(self):
        sched = WeightedFairScheduler()
        sched.add_tenant("a")
        sched.try_enqueue(_req("a", rid="first", size=1000))
        sched.try_enqueue(_req("a", rid="second", size=10))
        (head,) = sched.select_round(max_requests=1, now=0.0)
        head.offset = 500  # half-executed; server re-queues the remainder
        sched.requeue(head)
        (again,) = sched.select_round(max_requests=1, now=0.0)
        assert again.request_id == "first"

    def test_carve_round_shares_budget(self):
        reqs = [_req("a", size=n, rid=str(n)) for n in (10_000, 3000, 50)]
        rnd = carve_round(reqs, budget_items=6000, chunk_items=512)
        takes = dict((r.request_id, t) for r, t in rnd.entries)
        assert takes == {"10000": 2000, "3000": 2000, "50": 50}
        assert rnd.total_items == 4050
        with pytest.raises(ValueError):
            carve_round([], budget_items=100, chunk_items=10)


def _serve_case(num_requests=36, seed=0):
    """Three tenants over two machines (alpha+gamma share div7)."""
    div7, div7_corpus = APPLICATIONS["div7"].build(20_000, seed=1)
    regex, regex_corpus = APPLICATIONS["regex1"].build(20_000, seed=2)
    corpora = {
        "alpha": div7_corpus,
        "beta": regex_corpus,
        "gamma": div7_corpus,
    }
    machines = {"alpha": div7, "beta": regex, "gamma": div7}
    workload = zipf_workload(
        corpora, num_requests=num_requests, mean_items=900, seed=seed
    )
    return machines, workload


class TestServing:
    def test_multi_tenant_shared_dfa_bit_exact(self):
        machines, workload = _serve_case()

        async def drive():
            # Small rounds force carving + carry-state across rounds.
            server = FSMServer(
                ServeConfig(
                    round_budget_items=2048,
                    chunk_items=512,
                    max_batch_requests=6,
                )
            )
            tenants = {
                n: server.register_tenant(n, machines[n])
                for n in ("alpha", "beta", "gamma")
            }
            assert tenants["alpha"].fingerprint == tenants["gamma"].fingerprint
            await server.start()
            clients = {n: ServeClient(server, t) for n, t in tenants.items()}
            resp = await asyncio.gather(
                *(clients[w.tenant].match(w.symbols) for w in workload)
            )
            counters = dict(server.trace.counters_with_prefix("serve."))
            await server.close()
            return resp, counters

        responses, counters = asyncio.run(drive())
        for w, r in zip(workload, responses):
            assert r.status == "ok"
            dfa = machines[w.tenant]
            assert r.final_state == run_segment(dfa, w.symbols, dfa.start)
            assert r.accepted == bool(dfa.accepting[r.final_state])
        assert counters["serve.requests"] == len(workload)
        assert counters["serve.machines"] == 2  # alpha+gamma coalesced
        assert counters["serve.coalesced"] > 0
        assert counters["serve.rounds"] > 1  # carving forced multi-round

    def test_admission_shed_then_drain(self):
        machines, workload = _serve_case(num_requests=8)

        async def drive():
            server = FSMServer(
                ServeConfig(max_queue_depth=4, max_tenant_queue_depth=4)
            )
            tenants = {
                n: server.register_tenant(n, machines[n])
                for n in ("alpha", "beta", "gamma")
            }
            # Not started: submissions queue up to the bound, the rest shed.
            tasks = [
                asyncio.create_task(
                    server.submit(tenants[w.tenant], w.symbols)
                )
                for w in workload
            ]
            await asyncio.sleep(0)  # let every submit hit admission
            assert server.queue_depth == 4
            await server.start()
            responses = await asyncio.gather(*tasks)
            counters = dict(server.trace.counters_with_prefix("serve."))
            await server.close()
            return responses, counters

        responses, counters = asyncio.run(drive())
        ok = [r for r in responses if r.status == "ok"]
        shed = [r for r in responses if r.status == "shed"]
        assert len(ok) == 4 and len(shed) == 4
        assert all("bound" in r.shed_reason for r in shed)
        assert counters["serve.shed"] == 4
        for w, r in zip(workload, responses):
            if r.status == "ok":
                dfa = machines[w.tenant]
                assert r.final_state == run_segment(dfa, w.symbols, dfa.start)

    def test_deadline_miss_reported(self):
        machines, workload = _serve_case(num_requests=4)
        # Only div7-alphabet requests are valid for the alpha tenant.
        job = next(w for w in workload if w.tenant in ("alpha", "gamma"))

        async def drive():
            server = FSMServer(ServeConfig())
            t = server.register_tenant("alpha", machines["alpha"])
            await server.start()
            resp = await server.submit(t, job.symbols, deadline_s=1e-9)
            counters = dict(server.trace.counters_with_prefix("serve."))
            await server.close()
            return resp, counters

        resp, counters = asyncio.run(drive())
        assert resp.status == "ok"  # late, not cancelled — still exact
        dfa = machines["alpha"]
        assert resp.final_state == run_segment(dfa, job.symbols, dfa.start)
        assert resp.deadline_missed is True
        assert counters["serve.deadline_miss"] == 1

    def test_serve_observability_catalog(self):
        machines, workload = _serve_case(num_requests=6)
        jobs = [w for w in workload if w.tenant in ("alpha", "gamma")]
        assert jobs  # zipf's head tenant always draws requests

        async def drive():
            server = FSMServer(ServeConfig())
            t = server.register_tenant("alpha", machines["alpha"])
            await server.start()
            await asyncio.gather(
                *(server.submit(t, w.symbols) for w in jobs)
            )
            trace = server.trace
            await server.close()
            return trace

        trace = asyncio.run(drive())
        counters = trace.counters_with_prefix("serve.")
        for name in ("serve.requests", "serve.rounds", "serve.items"):
            assert name in counters
        for hist in (
            "serve.queue_wait_s",
            "serve.service_s",
            "serve.batch_size",
            "serve.round_items",
        ):
            assert trace.histograms[hist].count > 0

    def test_bad_symbols_rejected_and_round_failure_isolated(self):
        machines, workload = _serve_case(num_requests=4)
        good = next(w for w in workload if w.tenant in ("alpha", "gamma"))
        other = machines["beta"].num_inputs - 1

        async def drive():
            server = FSMServer(ServeConfig())
            t = server.register_tenant("alpha", machines["alpha"])
            b = server.register_tenant("beta", machines["beta"])
            await server.start()
            # Out-of-alphabet ids are rejected at submission time.
            with pytest.raises(ValueError, match="out of range"):
                await server.submit(t, np.full(64, 9, dtype=np.int32))
            # An execution failure fails exactly its round's futures and
            # leaves the loop serving: alpha's round (inline when its
            # kernel loads) fails both its riders, beta's round and the
            # next alpha request still complete.
            real_execute = server._execute_round

            def boom(rnd):
                if rnd.fingerprint == t.fingerprint:
                    server._execute_round = real_execute
                    raise RuntimeError("injected round failure")
                return real_execute(rnd)

            server._execute_round = boom
            out = await asyncio.gather(
                server.submit(t, good.symbols),
                server.submit(t, good.symbols[:100]),
                server.submit(b, np.full(50, other, dtype=np.int32)),
                return_exceptions=True,
            )
            resp = await server.submit(t, good.symbols)
            counters = dict(server.trace.counters_with_prefix("serve."))
            rounds = server.trace.find("serve.round")
            await server.close()
            return out, resp, counters, rounds, server

        out, resp, counters, rounds, server = asyncio.run(drive())
        assert all(
            isinstance(e, RuntimeError) and "injected" in str(e)
            for e in out[:2]
        )
        dfa, beta = machines["alpha"], machines["beta"]
        assert out[2].status == "ok"
        assert out[2].final_state == run_segment(
            beta, np.full(50, other, dtype=np.int32), beta.start
        )
        assert resp.status == "ok"
        assert resp.final_state == run_segment(dfa, good.symbols, dfa.start)
        assert counters["serve.round_errors"] == 1
        fp = dfa_fingerprint(dfa)
        failed = next(s for s in rounds if s.attrs["machine"] == fp[:12])
        assert failed.attrs["inline"] == (server._machines[fp].native is not None)

    def test_float_request_fails_at_submit_not_its_round(self):
        machines, workload = _serve_case(num_requests=4)
        good = next(w for w in workload if w.tenant in ("alpha", "gamma"))

        async def drive():
            server = FSMServer(ServeConfig())
            t = server.register_tenant("alpha", machines["alpha"])
            # Both are submitted before the loop starts, so a float request
            # that got past submit would share (and fail) the rider's round.
            rider = asyncio.create_task(server.submit(t, good.symbols))
            floats = asyncio.create_task(
                server.submit(t, np.array([1.0, 0.0, 1.0]))
            )
            await asyncio.sleep(0)
            await server.start()
            out = await asyncio.gather(rider, floats, return_exceptions=True)
            counters = dict(server.trace.counters_with_prefix("serve."))
            await server.close()
            return out, counters

        (resp, err), counters = asyncio.run(drive())
        assert isinstance(err, ValueError)
        assert "'alpha'" in str(err) and "integer symbol ids" in str(err)
        assert resp.status == "ok"
        dfa = machines["alpha"]
        assert resp.final_state == run_segment(dfa, good.symbols, dfa.start)
        assert counters.get("serve.round_errors", 0) == 0

    def test_registration_errors(self):
        machines, _ = _serve_case(num_requests=1)

        async def drive():
            server = FSMServer(ServeConfig())
            server.register_tenant("alpha", machines["alpha"])
            with pytest.raises(ValueError):
                server.register_tenant("alpha", machines["alpha"])
            with pytest.raises(KeyError):
                await server.submit("nobody", np.zeros(4, np.int32))
            # Rounds run in-process only: there is no executor to pick.
            with pytest.raises(TypeError):
                ServeConfig(executor="pool")
            await server.close()

        asyncio.run(drive())

    def test_no_compiler_serves_bit_exact_on_numpy(self, tmp_path):
        """With no working compiler (and a cold artifact cache) a default
        server registers its machines on NumPy, runs its rounds in a worker
        thread and still answers exactly."""
        code = """
import asyncio
from repro.serve import FSMServer, ServeClient, ServeConfig
from repro.fsm.run import run_segment
from tests.serve.test_serving import _serve_case

machines, workload = _serve_case(num_requests=12)
# Rounds without a kernel run the reference loop in a worker thread.
hops = []
real_to_thread = asyncio.to_thread
async def to_thread(fn, *args):
    hops.append(fn)
    return await real_to_thread(fn, *args)
asyncio.to_thread = to_thread

async def drive():
    server = FSMServer(ServeConfig())
    tenants = {n: server.register_tenant(n, m) for n, m in machines.items()}
    assert all(ms.native is None for ms in server._machines.values())
    await server.start()
    clients = {n: ServeClient(server, t) for n, t in tenants.items()}
    resp = await asyncio.gather(
        *(clients[w.tenant].match(w.symbols) for w in workload)
    )
    await server.close()
    return resp

for w, r in zip(workload, asyncio.run(drive())):
    dfa = machines[w.tenant]
    assert r.status == "ok", r
    assert r.final_state == run_segment(dfa, w.symbols, dfa.start)
assert hops
print("ok")
"""
        env = dict(
            os.environ, CC="/bin/false", REPRO_NATIVE_CACHE=str(tmp_path),
            PYTHONPATH=os.pathsep.join(sys.path),
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"


class TestServingGroups:
    def test_group_members_coalesce_bit_exact(self):
        from repro.fsm import DFA

        num_inputs = 12
        machines = {
            f"g{p}": DFA.random(5 + p, num_inputs, rng=40 + p, name=f"g{p}")
            for p in range(3)
        }
        rng = np.random.default_rng(7)
        workload = []
        for i in range(9):
            # One request long enough to carve across several rounds.
            n = 9000 if i == 4 else int(rng.integers(300, 3000))
            workload.append(
                (
                    f"g{i % 3}",
                    rng.integers(0, num_inputs, size=n).astype(np.int64),
                )
            )

        async def drive():
            server = FSMServer(
                ServeConfig(
                    round_budget_items=2048,
                    chunk_items=512,
                    max_batch_requests=8,
                )
            )
            tenants = dict(
                zip(machines, server.register_group(list(machines.items())))
            )
            assert len({t.fingerprint for t in tenants.values()}) == 1
            await server.start()
            resp = await asyncio.gather(
                *(server.submit(tenants[n], sym) for n, sym in workload)
            )
            counters = dict(server.trace.counters_with_prefix("serve."))
            await server.close()
            return resp, counters

        responses, counters = asyncio.run(drive())
        for (name, sym), r in zip(workload, responses):
            assert r.status == "ok"
            dfa = machines[name]
            assert r.final_state == run_segment(dfa, sym, dfa.start)
            assert r.accepted == bool(dfa.accepting[r.final_state])
        assert counters["serve.groups"] == 1
        assert counters["serve.machines"] == 1
        assert counters["serve.group_rounds"] >= 1
        assert counters["serve.coalesced"] > 0
        assert counters["serve.rounds"] > 1

    def test_group_validation(self):
        from repro.fsm import DFA

        a = DFA.random(4, 6, rng=1, name="a")
        b = DFA.random(5, 6, rng=2, name="b")

        async def drive():
            server = FSMServer(ServeConfig())
            with pytest.raises(ValueError):
                server.register_group([])
            with pytest.raises(ValueError):
                server.register_group([("x", a), ("x", b)])
            with pytest.raises(ValueError):
                server.register_group([("x", a)], weights=[1.0, 2.0])
            (tx,) = server.register_group([("x", a)])
            with pytest.raises(ValueError):
                server.register_group([("x", a), ("y", b)])
            await server.start()
            # Raw symbols outside the shared alphabet are rejected even
            # though joint compaction may use fewer classes internally.
            with pytest.raises(ValueError):
                await server.submit(tx, np.array([0, 6], dtype=np.int64))
            resp = await server.submit(tx, np.array([0, 5], dtype=np.int64))
            await server.close()
            return resp

        resp = asyncio.run(drive())
        assert resp.status == "ok"
        assert resp.final_state == run_segment(
            a, np.array([0, 5], dtype=np.int64), a.start
        )

"""Client-side timeout and bounded-retry behaviour (ISSUE 9 satellite)."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import (
    FSMServer,
    ServeClient,
    ServeConfig,
    ServeTimeoutError,
)

from tests.conftest import make_random_dfa, random_input
from repro.fsm.run import run_reference


def test_match_without_timeout_still_exact():
    async def main():
        dfa = make_random_dfa(12, 4, seed=1)
        server = FSMServer(ServeConfig())
        tenant = server.register_tenant("t", dfa)
        client = ServeClient(server, tenant)
        await server.start()
        sym = random_input(4, 20_000, seed=2)
        resp = await client.match(sym)
        await server.close()
        assert resp.status == "ok"
        assert resp.final_state == run_reference(dfa, sym)

    asyncio.run(main())


def test_timeout_raises_typed_error_with_context():
    async def main():
        dfa = make_random_dfa(12, 4, seed=1)
        server = FSMServer(ServeConfig())
        tenant = server.register_tenant("t", dfa)
        client = ServeClient(server, tenant)
        # Server never started: the submission can never complete, so
        # every attempt must time out deterministically.
        sym = random_input(4, 1_000, seed=2)
        with pytest.raises(ServeTimeoutError) as ei:
            await client.match(
                sym, timeout_s=0.05, max_retries=2, backoff_base_s=0.01
            )
        err = ei.value
        assert isinstance(err, TimeoutError)
        assert err.tenant == "t" and err.attempts == 3
        assert err.timeout_s == pytest.approx(0.05)
        counts = {
            c.name: c.value for c in server.trace.counters.values()
        }
        assert counts["serve.client_timeouts"] == 3
        assert counts["serve.client_retries"] == 2
        await server.close()

    asyncio.run(main())


def test_retry_succeeds_after_late_start():
    """First attempt times out; the server starts; a retry completes."""

    async def main():
        dfa = make_random_dfa(12, 4, seed=1)
        server = FSMServer(ServeConfig())
        tenant = server.register_tenant("t", dfa)
        client = ServeClient(server, tenant)
        sym = random_input(4, 5_000, seed=2)

        async def late_start():
            await asyncio.sleep(0.15)
            await server.start()

        starter = asyncio.create_task(late_start())
        resp = await client.match(
            sym, timeout_s=0.4, max_retries=5, backoff_base_s=0.05
        )
        await starter
        await server.close()
        assert resp.status == "ok"
        assert resp.final_state == run_reference(dfa, sym)

    asyncio.run(main())


def test_generous_timeout_never_retries():
    async def main():
        dfa = make_random_dfa(12, 4, seed=1)
        server = FSMServer(ServeConfig())
        tenant = server.register_tenant("t", dfa)
        client = ServeClient(server, tenant)
        await server.start()
        sym = random_input(4, 10_000, seed=2)
        resp = await client.match(sym, timeout_s=30.0, max_retries=3)
        await server.close()
        assert resp.status == "ok"
        counts = {
            c.name: c.value for c in server.trace.counters.values()
        }
        assert "serve.client_timeouts" not in counts
        assert resp.final_state == run_reference(dfa, sym)

    asyncio.run(main())

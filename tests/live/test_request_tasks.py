"""A request costs no task of its own.

Every per-request and per-frame deadline in :mod:`repro.live` awaits in
the task that serves it (:func:`repro.core.runtime.within`), so a put or
a lease read on a warmed-up cluster creates no asyncio task anywhere:
not in the client, the KV frontend, or the peer transport.  A counting
task factory on :class:`~repro.core.runtime.SimRuntime` pins that.
Connection handlers are tasks by nature and are left out.
"""

import asyncio

from repro.core.runtime import SimRuntime
from repro.live import AsyncKVClient, LiveKVCluster

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)
HANDLERS = {"KVServer._handle_client", "PeerTransport._handle_inbound"}


def test_a_warm_put_and_lease_get_create_no_task():
    created = []

    def counting(loop, coro, **kwargs):
        created.append(coro.__qualname__)
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def scenario():
        cluster = LiveKVCluster(3, seed=5, read_tier="lease", **FAST)
        await cluster.start()
        client = AsyncKVClient(cluster.cluster)
        try:
            await cluster.wait_for_leader(timeout=15.0)
            for i in range(5):
                await client.put("k", i)
                await client.get("k", linearizable=True)
            asyncio.get_running_loop().set_task_factory(counting)
            await client.put("k", "v")
            put_tasks = [name for name in created if name not in HANDLERS]
            created.clear()
            reply = await client.get("k", linearizable=True)
            get_tasks = [name for name in created if name not in HANDLERS]
            asyncio.get_running_loop().set_task_factory(None)
            return put_tasks, reply, get_tasks
        finally:
            await client.close()
            await cluster.stop()

    rt = SimRuntime()
    try:
        put_tasks, reply, get_tasks = rt.run(scenario(), timeout=60.0)
    finally:
        rt.close()
    assert (reply["read"], reply["value"]) == ("lease", "v")
    assert put_tasks == []
    assert get_tasks == []

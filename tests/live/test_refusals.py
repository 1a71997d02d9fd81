"""Requests no retry can fix are refused once, not retried.

The frontend answers a malformed request (a bad put id, a lin-get id
that is not a string, a staleness bound that is not finite or is below
0, an unknown request type, a body that is not a dict, a key that cannot
be hashed) with a ``refused`` reply, and :class:`AsyncKVClient` raises
:class:`RequestRefusedError` on the first one.  Everything runs on a
3-node :class:`SimRuntime` cluster, so attempts and virtual time are
exact.
"""

import pytest

from repro.core.runtime import SimRuntime
from repro.live import AsyncKVClient, LiveKVCluster, RequestRefusedError
from repro.live.wire import frame_bytes, read_frame

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)


def run_cluster(scenario, timeout=60.0):
    """Run ``scenario(cluster, client, served)`` on a fresh cluster;
    ``served`` lists the type of every non-status request a server saw."""

    async def main():
        cluster = LiveKVCluster(3, seed=5, **FAST)
        served = []
        for server in cluster.servers:
            serve = server._serve

            async def counted(request, serve=serve):
                if request.get("type") != "status":
                    served.append(request.get("type"))
                return await serve(request)

            server._serve = counted
        await cluster.start()
        client = AsyncKVClient(cluster.cluster)
        try:
            await cluster.wait_for_leader(timeout=20.0)
            await client.shard_count()  # discover the router up front
            return await scenario(cluster, client, served)
        finally:
            await client.close()
            await cluster.stop()

    rt = SimRuntime()
    try:
        return rt.run(main(), timeout=timeout)
    finally:
        rt.close()


REFUSED_CALLS = {
    "put id": lambda c: c.put("k", 1, op_id="bad"),
    "lin-get id": lambda c: c.get("k", linearizable=True, op_id=7),
    "nan bound": lambda c: c.get("k", staleness=float("nan")),
    "infinite bound": lambda c: c.get("k", staleness=float("inf")),
    "negative bound": lambda c: c.get("k", staleness=-1.0),
    "request type": lambda c: c._request({"type": "frobnicate"}, want="ok"),
    "list key put": lambda c: c.put([1, 2], 1),
    "list key get": lambda c: c.get([1, 2]),
    "list key lin get": lambda c: c.get([1, 2], linearizable=True),
}


@pytest.mark.parametrize("call", REFUSED_CALLS.values(), ids=REFUSED_CALLS)
def test_a_refused_request_raises_after_one_attempt(call):
    async def scenario(cluster, client, served):
        started = cluster.rt.now()
        with pytest.raises(RequestRefusedError):
            await call(client)
        return served, cluster.rt.now() - started

    served, elapsed = run_cluster(scenario)
    assert len(served) == 1, served
    assert elapsed < 0.1, f"{elapsed} virtual s: a retry delay was paid"


def test_a_body_that_is_not_a_dict_is_refused():
    async def scenario(cluster, client, served):
        reader, writer = await cluster.rt.open_connection(
            *cluster.cluster[0].client_addr
        )
        writer.write(frame_bytes([1, 2]))
        await writer.drain()
        reply = await read_frame(reader)
        writer.close()
        return reply

    reply = run_cluster(scenario)
    assert reply["type"] == "refused" and reply["reason"], reply


def test_an_unhashable_key_leaves_the_shard_serving():
    """A list-key put used to commit, fail to apply on every replica
    and wedge the shard; now it is refused and the next put commits."""

    async def scenario(cluster, client, served):
        with pytest.raises(RequestRefusedError, match="hashable"):
            await client.put([1, 2], "v")
        index = await client.put("k", "v")
        value = await client.get("k", linearizable=True)
        applied = [server.node.last_applied for server in cluster.servers]
        return index, value, applied

    index, value, applied = run_cluster(scenario)
    assert value["found"] and value["value"] == "v"
    assert min(applied) >= index > 0

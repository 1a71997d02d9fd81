"""Live ports fail closed: a frame that does not decode ends its own
connection and nothing else, a stopped server leaves no handler behind,
and a client refuses a status reply whose shard count it cannot use.

The suite-wide asyncio guard (``tests/conftest.py``) is part of every
assertion here: an exception escaping a connection handler, or a handler
task destroyed while pending, fails the test even when the connection
itself behaved.
"""

import asyncio

import pytest

from repro.core.runtime import SimRuntime, current_runtime
from repro.live import AsyncKVClient, ClusterConfig, LiveKVCluster, PeerTransport
from repro.live.wire import encode_peer_frame, frame_bytes, read_frame, write_frame
from repro.sim.serialize import wire_dumps

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)


def run(coro, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def sim_run(coro, timeout=120.0):
    rt = SimRuntime()
    try:
        return rt.run(coro, timeout=timeout)
    finally:
        rt.close()


def framed(body):
    return len(body).to_bytes(4, "big") + body


async def closed_by_peer(addr, data):
    """Send ``data`` on a fresh connection; True once the other side
    closes it (EOF within five seconds)."""
    reader, writer = await current_runtime().open_connection(*addr)
    writer.write(data)
    await writer.drain()
    try:
        return await asyncio.wait_for(reader.read(), 5.0) == b""
    finally:
        writer.close()


def client_handlers():
    return [
        task for task in asyncio.all_tasks()
        if task.get_coro().__qualname__ == "KVServer._handle_client"
    ]


def test_undecodable_peer_frames_drop_only_their_connection():
    async def scenario():
        cluster = ClusterConfig.localhost(2)
        inbox = []
        delivered = asyncio.Event()

        def on_message(src, payload, ts):
            inbox.append((src, payload))
            delivered.set()

        b = PeerTransport(cluster, 1, on_message,
                          heartbeat_interval=0.1, connect_timeout=0.5)
        await b.start()
        addr = cluster[1].peer_addr
        # A JSON hello, then a valid hello followed by a non-binary msg.
        assert await closed_by_peer(
            addr, framed(wire_dumps({"type": "hello", "pid": 0}))
        )
        assert await closed_by_peer(
            addr, encode_peer_frame("hello", pid=0) + framed(b"\x7bnot-binary")
        )
        assert inbox == []
        # The link comes back: pid 0's real transport connects and delivers.
        a = PeerTransport(cluster, 0, heartbeat_interval=0.1, connect_timeout=0.5)
        await a.start()
        a.send(1, {"n": 1})
        await asyncio.wait_for(delivered.wait(), 10.0)
        assert inbox == [(0, {"n": 1})]
        await a.stop()
        await b.stop()

    run(scenario())


def test_json_request_closes_only_its_client_connection():
    async def scenario():
        cluster = LiveKVCluster(3, seed=11, **FAST)
        await cluster.start()
        try:
            leader = await cluster.wait_for_leader(timeout=15.0)
            request = {"type": "put", "id": "json-1", "key": "k", "value": "v"}
            assert await closed_by_peer(
                cluster.cluster[leader].client_addr, framed(wire_dumps(request))
            )
            client = AsyncKVClient(cluster.cluster)
            assert await client.put("k", "v") >= 1
            await client.close()
        finally:
            await cluster.stop()

    sim_run(scenario())


def test_stop_ends_a_client_handler_parked_mid_request():
    async def scenario():
        cluster = LiveKVCluster(3, seed=11, **FAST)
        await cluster.start()
        leader = await cluster.wait_for_leader(timeout=15.0)
        for pid in range(3):
            if pid != leader:
                await cluster.kill(pid)
        # With no follower left, the ReadIndex round cannot finish: the
        # handler stays parked inside the request when stop() runs.
        reader, writer = await current_runtime().open_connection(
            *cluster.cluster[leader].client_addr
        )
        writer.write(frame_bytes({
            "type": "get", "key": "k", "lin": True, "id": "r-1",
            "tier": "readindex",
        }))
        await writer.drain()
        await asyncio.sleep(0.05)
        assert len(client_handlers()) == 1
        await cluster.stop()
        assert client_handlers() == []
        writer.close()

    sim_run(scenario())


def test_client_rejects_a_status_reply_without_a_valid_shard_count():
    async def scenario():
        for reply in (
            {"type": "status"},
            {"type": "status", "shards": "2"},
            {"type": "status", "shards": 0},
        ):
            async def answer(reader, writer, reply=reply):
                try:
                    while True:
                        await read_frame(reader)
                        await write_frame(writer, reply)
                except (ConnectionError, asyncio.IncompleteReadError):
                    pass
                finally:
                    writer.close()

            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = AsyncKVClient(
                ClusterConfig.from_spec(f"127.0.0.1:1:{port}"), max_attempts=2
            )
            with pytest.raises(ValueError):
                await client.put("k", "v")
            await client.close()
            server.close()
            await server.wait_closed()

    run(scenario())

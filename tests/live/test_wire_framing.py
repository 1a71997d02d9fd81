"""Framing and transport-layer tests over real localhost sockets."""

import asyncio

import pytest

from repro.live import (
    MAX_FRAME_BYTES,
    ClusterConfig,
    FrameError,
    PeerTransport,
    read_frame,
    write_frame,
)
from repro.live.wire import decode_body, encode_peer_frame, parse_peer_frame
from repro.algorithms.raft.messages import RequestVote


def run(coro, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _echo_once(host="127.0.0.1"):
    """Start a one-shot echo server; returns (host, port, server)."""
    async def handler(reader, writer):
        try:
            while True:
                value = await read_frame(reader)
                await write_frame(writer, value)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handler, host, 0)
    port = server.sockets[0].getsockname()[1]
    return host, port, server


class TestFraming:
    def test_round_trip_over_socket(self):
        async def scenario():
            host, port, server = await _echo_once()
            reader, writer = await asyncio.open_connection(host, port)
            payloads = [
                {"type": "hello", "pid": 3},
                RequestVote(2, 1, 0, 0),
                {"nested": [(1, 2), {"k": b"\x00"}], "text": "héllo ✓"},
            ]
            for payload in payloads:
                await write_frame(writer, payload)
                assert await read_frame(reader) == payload
            writer.close()
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_many_frames_one_stream(self):
        async def scenario():
            host, port, server = await _echo_once()
            reader, writer = await asyncio.open_connection(host, port)
            for i in range(200):
                await write_frame(writer, {"i": i, "pad": "x" * (i % 64)})
            for i in range(200):
                frame = await read_frame(reader)
                assert frame["i"] == i
            writer.close()
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_eof_raises_incomplete_read(self):
        async def scenario():
            host, port, server = await _echo_once()
            reader, writer = await asyncio.open_connection(host, port)
            writer.close()
            with pytest.raises(asyncio.IncompleteReadError):
                await read_frame(reader)
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_oversized_header_rejected(self):
        async def scenario():
            async def handler(reader, writer):
                writer.write((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
                await writer.drain()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, _writer = await asyncio.open_connection("127.0.0.1", port)
            with pytest.raises(FrameError):
                await read_frame(reader)
            server.close()
            await server.wait_closed()

        run(scenario())


class TestClusterConfig:
    def test_from_spec_parses_ports(self):
        cluster = ClusterConfig.from_spec("10.0.0.1:7000,10.0.0.2:7000:9000")
        assert cluster.n == 2
        assert cluster[0].peer_addr == ("10.0.0.1", 7000)
        assert cluster[0].client_port == 8000  # default offset
        assert cluster[1].client_addr == ("10.0.0.2", 9000)

    def test_localhost_ports_are_distinct(self):
        cluster = ClusterConfig.localhost(5)
        ports = [spec.port for spec in cluster.nodes]
        ports += [spec.client_port for spec in cluster.nodes]
        assert len(set(ports)) == len(ports)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig.from_spec("no-port")


class TestShardedPeerFrames:
    """Shard-tagged frames: round trips, one shape for every shard."""

    def test_round_trip_all_shards(self):
        for shard in (0, 1, 2, 7, 255):
            frame = encode_peer_frame(
                "msg", payload=RequestVote(2, 1, 0, 0), ts=1.5, shard=shard
            )
            kind, payload, ts, got = parse_peer_frame(decode_body(frame[4:]))
            assert kind == "msg"
            assert payload == RequestVote(2, 1, 0, 0)
            assert ts == 1.5
            assert got == shard

    def test_shard_zero_frame_is_tagged(self):
        # Shard 0 carries its tag like every other shard: one msg shape.
        body = decode_body(encode_peer_frame("msg", payload=None, ts=0.0)[4:])
        assert body == ("m", 0.0, None, 0)

    def test_malformed_shard_tags_rejected_not_misrouted(self):
        bad_shards = (-1, "3", 1.5, None, True, [2])
        for bad in bad_shards:
            assert parse_peer_frame(("m", 1.0, "p", bad))[0] is None

    def test_unknown_frame_shapes_skipped(self):
        # Untagged and dict-shaped messages are not peer frames either.
        for frame in ((), ("m",), ("m", 1.0), ("m", 1.0, "p"),
                      ("m", 1.0, "p", 2, 3), ("z", 1),
                      {"type": "msg", "payload": "p", "ts": 1.0},
                      {"type": "hello", "pid": 0}, "junk", 7, None):
            assert parse_peer_frame(frame) == (None, None, None, 0)


class TestShardDemux:
    """One socket pair carries every shard; handlers pick their traffic."""

    def test_transport_routes_by_shard(self):
        async def scenario():
            cluster = ClusterConfig.localhost(2)
            by_shard = {0: [], 1: []}
            got_all = asyncio.Event()

            def make_handler(shard):
                def handler(src, payload, ts):
                    by_shard[shard].append(payload["n"])
                    if sum(len(v) for v in by_shard.values()) >= 4:
                        got_all.set()
                return handler

            a = PeerTransport(cluster, 0, lambda *args: None,
                              heartbeat_interval=0.1, connect_timeout=0.5)
            b = PeerTransport(cluster, 1, make_handler(0),
                              heartbeat_interval=0.1, connect_timeout=0.5)
            b.add_handler(1, make_handler(1))
            await b.start()
            await a.start()
            a.send(1, {"n": 1})
            a.send(1, {"n": 2}, shard=1)
            a.send(1, {"n": 3}, shard=1)
            a.send(1, {"n": 4})
            await asyncio.wait_for(got_all.wait(), 10.0)
            assert by_shard == {0: [1, 4], 1: [2, 3]}
            await a.stop()
            await b.stop()

        run(scenario())

    def test_unrouted_shard_counted_and_dropped(self):
        async def scenario():
            cluster = ClusterConfig.localhost(2)
            inbox = []
            got_marker = asyncio.Event()

            def on_message(src, payload, ts):
                inbox.append(payload["n"])
                got_marker.set()

            a = PeerTransport(cluster, 0, lambda *args: None,
                              heartbeat_interval=0.1, connect_timeout=0.5)
            b = PeerTransport(cluster, 1, on_message,
                              heartbeat_interval=0.1, connect_timeout=0.5)
            await b.start()
            await a.start()
            # Shard 5 has no handler on b: the frame is dropped (counted),
            # like message loss — never delivered to the wrong group.
            a.send(1, {"n": 1}, shard=5)
            a.send(1, {"n": 2})  # marker on shard 0 orders the assertion
            await asyncio.wait_for(got_marker.wait(), 10.0)
            assert inbox == [2]
            assert b.stats.unrouted == 1
            await a.stop()
            await b.stop()

        run(scenario())


class TestTransport:
    def test_delivers_and_reconnects(self):
        async def scenario():
            cluster = ClusterConfig.localhost(2)
            inbox = []
            got_two = asyncio.Event()

            def on_message(src, payload, ts):
                inbox.append((src, payload))
                if len(inbox) >= 2:
                    got_two.set()

            a = PeerTransport(cluster, 0, lambda *args: None,
                              heartbeat_interval=0.1, connect_timeout=0.5)
            b = PeerTransport(cluster, 1, on_message,
                              heartbeat_interval=0.1, connect_timeout=0.5)
            await b.start()
            await a.start()
            a.send(1, {"n": 1})
            # Queued before/while the link comes up: still delivered.
            a.send(1, {"n": 2})
            await asyncio.wait_for(got_two.wait(), 10.0)
            assert [payload["n"] for _src, payload in inbox] == [1, 2]
            assert all(src == 0 for src, _payload in inbox)

            # Kill the receiving side's sockets; sender must reconnect
            # and deliver a fresh message.
            await b.stop()
            b2 = PeerTransport(cluster, 1, on_message,
                               heartbeat_interval=0.1, connect_timeout=0.5)
            await b2.start()
            got_three = asyncio.Event()

            def on_more(src, payload, ts):
                inbox.append((src, payload))
                got_three.set()

            b2.add_handler(0, on_more)
            # A frame written to the dying socket may be lost (the lossy
            # link the algorithms tolerate): retransmit until received,
            # exactly as the timer-driven protocols do.
            for _ in range(100):
                a.send(1, {"n": 3})
                try:
                    await asyncio.wait_for(got_three.wait(), 0.25)
                    break
                except asyncio.TimeoutError:
                    continue
            await asyncio.wait_for(got_three.wait(), 1.0)
            assert inbox[-1][1]["n"] == 3
            assert a.stats.sent >= 3
            await a.stop()
            await b2.stop()

        run(scenario(), timeout=40.0)

    def test_queue_overflow_drops_oldest(self):
        async def scenario():
            cluster = ClusterConfig.localhost(2)
            # Peer 1 never starts: everything queues on the dead link.
            a = PeerTransport(cluster, 0, lambda *args: None,
                              max_queue=5, connect_timeout=0.2)
            await a.start()
            for i in range(9):
                a.send(1, {"n": i})
            assert a.stats.dropped == 4
            await a.stop()

        run(scenario())

    def test_send_to_unknown_peer_rejected(self):
        async def scenario():
            cluster = ClusterConfig.localhost(2)
            a = PeerTransport(cluster, 0, lambda *args: None)
            await a.start()
            try:
                with pytest.raises(ValueError):
                    a.send(7, {"n": 1})
            finally:
                await a.stop()

        run(scenario())

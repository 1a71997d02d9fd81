"""Single layers measured in isolation, beside the traced end-to-end run.

Each function runs one layer's public entry points against nothing but
itself — the codec on one fixed frame, two transports ping-ponging over
loopback, a WAL appending and syncing into an empty directory — so a
change to that layer moves its number here before it shows anywhere else.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Dict, Tuple

from repro.algorithms.raft.log import Entry
from repro.algorithms.raft.messages import AppendEntries
from repro.live.config import ClusterConfig
from repro.live.kv import KvBatch, TaggedPut
from repro.live.transport import PeerTransport
from repro.live.wire import decode_body, encode_peer_frame, get_codec
from repro.storage.engine import RaftStorage

from bench.cluster import free_peer_ports

Metric = Tuple[float, int]  # value, samples

#: Seconds each isolated loop runs.
ISO_SECONDS = 0.3


def _append_entries(entries: int = 16) -> AppendEntries:
    """An AppendEntries carrying ``entries`` one-put batches."""
    return AppendEntries(
        term=3,
        leader_id=0,
        prev_log_index=1000,
        prev_log_term=3,
        entries=tuple(
            Entry(3, KvBatch((TaggedPut(f"c0-k{i}", "v" * 64, f"m0-{i}"),), (0, i)))
            for i in range(entries)
        ),
        leader_commit=1000,
    )


def _rate(fn) -> Metric:
    """Calls of ``fn`` per second, over :data:`ISO_SECONDS`."""
    calls = 0
    start = time.perf_counter()
    deadline = start + ISO_SECONDS
    while time.perf_counter() < deadline:
        for _ in range(50):
            fn()
        calls += 50
    return (calls / (time.perf_counter() - start), calls)


def codec() -> Dict[str, Metric]:
    wire = get_codec(None)
    message = _append_entries()
    frame = encode_peer_frame("msg", wire, payload=message, ts=1.0)
    body = frame[4:]
    return {
        "codec.iso_encode_ops_s": _rate(
            lambda: encode_peer_frame("msg", wire, payload=message, ts=1.0)
        ),
        "codec.iso_decode_ops_s": _rate(lambda: decode_body(body)),
    }


async def loopback_rtt(rounds: int = 300) -> Dict[str, Metric]:
    """Median round trip of one small message between two transports."""
    ports = free_peer_ports(2)
    config = ClusterConfig.from_spec(",".join(f"127.0.0.1:{p}" for p in ports))
    loop = asyncio.get_running_loop()
    pong: asyncio.Future = loop.create_future()

    def on_ping(src: int, payload: object, _ts: object) -> None:
        right.send(src, payload)

    def on_pong(_src: int, _payload: object, _ts: object) -> None:
        if not pong.done():
            pong.set_result(None)

    left = PeerTransport(config, 0, on_pong)
    right = PeerTransport(config, 1, on_ping)
    await left.start()
    await right.start()
    samples = []
    try:
        for i in range(rounds + 20):
            pong = loop.create_future()
            start = time.perf_counter()
            left.send(1, ("ping", i))
            await asyncio.wait_for(pong, timeout=5.0)
            if i >= 20:  # the first sends wait for the dial
                samples.append(time.perf_counter() - start)
    finally:
        await left.stop()
        await right.stop()
    return {"transport.iso_loopback_rtt_us": (statistics.median(samples) * 1e6, rounds)}


def wal(directory: str, rounds: int = 200) -> Dict[str, Metric]:
    """Median cost of journalling one entry and syncing it."""
    storage = RaftStorage(directory)
    entry = _append_entries(1).entries[0]
    samples = []
    try:
        for index in range(1, rounds + 1):
            start = time.perf_counter()
            storage.record_append(index, entry)
            storage.sync()
            samples.append(time.perf_counter() - start)
    finally:
        storage.close()
    return {"wal.iso_append_fsync_us": (statistics.median(samples) * 1e6, rounds)}


async def isolated(directory: str) -> Dict[str, Metric]:
    """Every isolated-layer metric; ``directory`` is scratch for the WAL."""
    out = codec()
    out.update(await loopback_rtt())
    out.update(wal(directory))
    return out

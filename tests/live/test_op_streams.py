"""Seeded op streams of the load generator, pinned op by op (no sockets).

The sweep digests and the virtual-time pins depend on every client
drawing the same ops in the same order: the key first, then the read
coin (not tossed by a read-only client), from ``Random((seed << 8) | id)``.
These pins catch a change of draw order or of put values directly.
"""

import asyncio

import pytest

from repro.chaos.campaign import put_value
from repro.chaos.history import History
from repro.core.runtime import SimRuntime
from repro.live import ClusterConfig, loadgen
from repro.live.loadgen import Mix, drive, make_key_sampler, run_closed_loop


class StubClient:
    """Answers every op after one loop turn; records what it was sent."""

    def __init__(self, *_args, **_kwargs):
        self.sent = []

    async def put(self, key, value):
        self.sent.append(("put", key, value))
        await asyncio.sleep(0)
        return len(self.sent)

    async def get(self, key, **_kwargs):
        self.sent.append(("get", key, None))
        await asyncio.sleep(0)
        return {"found": False, "value": None, "applied": 0}

    async def close(self):
        pass


def _campaign_streams(seed=7, key_space=4, read_fraction=0.5):
    """Client 0 (read-only) and client 1 of a campaign's fault phase."""
    clients = [StubClient(), StubClient()]
    rt = SimRuntime()
    try:
        rt.run(drive(
            clients, History(runtime=rt),
            Mix(make_key_sampler("uniform", key_space), read_fraction),
            value=put_value, seed=seed, duration=0.5, readonly=1,
            pause=0.005,
        ))
    finally:
        rt.close()
    return [client.sent[:20] for client in clients]


def test_read_only_campaign_client():
    reader, _ = _campaign_streams()
    assert [key for _kind, key, _value in reader] == [
        "k3", "k3", "k2", "k3", "k2", "k1", "k3", "k3", "k1", "k0",
        "k1", "k2", "k2", "k0", "k0", "k2", "k0", "k3", "k2", "k0",
    ]
    assert {(kind, value) for kind, _key, value in reader} == {("get", None)}


def test_campaign_writer_at_read_share_half():
    _, writer = _campaign_streams()
    assert writer == [
        ("put", "k0", "c1-1"), ("put", "k0", "c1-2"), ("put", "k2", "c1-3"),
        ("get", "k0", None), ("put", "k0", "c1-4"), ("get", "k2", None),
        ("get", "k1", None), ("put", "k2", "c1-5"), ("get", "k3", None),
        ("put", "k3", "c1-6"), ("get", "k1", None), ("get", "k1", None),
        ("get", "k1", None), ("put", "k1", "c1-7"), ("get", "k2", None),
        ("get", "k2", None), ("get", "k0", None), ("put", "k1", "c1-8"),
        ("get", "k3", None), ("get", "k2", None),
    ]


def test_closed_loop_worker_on_zipf_mix(monkeypatch):
    made = []

    def stub(*args, **kwargs):
        made.append(StubClient())
        return made[-1]

    monkeypatch.setattr(loadgen, "AsyncKVClient", stub)
    report = asyncio.run(run_closed_loop(
        ClusterConfig.localhost(3), ops=20, concurrency=1, seed=3,
        key_dist="zipf", read_ratio=0.9, shards=1,
    ))
    assert (report.ops, report.reads, report.errors) == (20, 17, 0)
    assert made[0].sent == [
        ("get", "k0", None), ("put", "k62", "1-xxxxxxxxxxxxxx"),
        ("get", "k80", None), ("get", "k7", None), ("get", "k0", None),
        ("get", "k15", None), ("get", "k11", None),
        ("put", "k6", "7-xxxxxxxxxxxxxx"), ("get", "k5", None),
        ("get", "k60", None), ("get", "k15", None),
        ("put", "k0", "11-xxxxxxxxxxxxx"), ("get", "k2", None),
        ("get", "k32", None), ("get", "k0", None), ("get", "k1", None),
        ("get", "k30", None), ("get", "k4", None), ("get", "k61", None),
        ("get", "k0", None),
    ]


@pytest.mark.parametrize("outcome_error", [OSError, TimeoutError])
def test_failed_ops_are_classified(outcome_error):
    """A failed get observed nothing; a failed put may still commit."""

    class Failing(StubClient):
        async def put(self, key, value):
            raise outcome_error

        async def get(self, key, **_kwargs):
            raise outcome_error

    history = History()
    outcomes = asyncio.run(drive(
        [Failing()], history, Mix(make_key_sampler("uniform", 4), 0.5),
        value=put_value, seed=1, ops=20,
    ))
    assert outcomes["ok"] == 0
    assert outcomes["failed"] + outcomes["ambiguous"] == 20
    for op in history.ops:
        assert op.ok is (False if op.kind == "get" else None)
        assert op.open is (op.kind == "put")

"""The KV layer's rules, driven without a cluster, and the shard glue
that carries them out when leadership is lost.

:class:`~repro.live.kv.FlushPolicy` (when a leader proposes what it
holds) and :class:`~repro.live.kv.ReadQueue` (ReadIndex batching, one
barrier in flight) are plain objects: every case below feeds them
numbers and reads back their answer.  The last class runs the glue on
:class:`~repro.core.runtime.SimRuntime`: a deposed leader must turn
every kind of waiter it holds into a redirect.
"""

import asyncio

import pytest

from repro.chaos import heal_cluster, partition_cluster
from repro.core.runtime import SimRuntime
from repro.live import LiveKVCluster, kv
from repro.live.config import ClusterConfig
from repro.live.kv import (
    BATCH_WINDOW,
    FLUSH_INTERVAL,
    IDLE_WAIT_ROUNDS,
    FlushPolicy,
    KvBatch,
    KVServer,
    ReadQueue,
)

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)


def batch(batch_id, ops=("op",)):
    return KvBatch(tuple(ops), batch_id=batch_id)


class TestFlushPolicy:
    def policy(self, max_batch=4, max_inflight=2):
        return FlushPolicy(max_batch, max_inflight)

    def test_nothing_held_waits(self):
        assert self.policy().wait(now=10.0, held=0, uncommitted=0) is None

    def test_lone_op_into_idle_pipeline_proposes_now(self):
        assert self.policy().wait(now=10.0, held=1, uncommitted=0) == 0.0

    def test_full_batch_pipelines_while_there_is_room(self):
        policy = self.policy()
        assert policy.wait(now=10.0, held=4, uncommitted=1) == 0.0
        assert policy.wait(now=10.0, held=4, uncommitted=2) is None

    def test_partial_batch_waits_for_a_commit(self):
        assert self.policy().wait(now=10.0, held=3, uncommitted=1) is None

    def test_partial_batches_are_spaced_by_the_interval(self):
        policy = self.policy()
        policy.proposed(batch(1), now=10.0)
        assert policy.flushed_at == 10.0
        delay = policy.wait(now=10.001, held=1, uncommitted=0)
        assert delay == pytest.approx(FLUSH_INTERVAL - 0.001)
        assert policy.wait(now=10.0 + FLUSH_INTERVAL, held=1, uncommitted=0) == 0.0

    def test_round_is_timed_on_this_leaders_own_proposal(self):
        policy = self.policy()
        assert policy.round == BATCH_WINDOW
        policy.proposed(batch(1), now=10.0)
        policy.applied(("other", 1), now=10.5)
        assert policy.round == BATCH_WINDOW
        policy.applied(1, now=10.003)
        assert policy.round == pytest.approx(0.003)

    def test_barrier_times_the_round_but_spaces_nothing(self):
        policy = self.policy()
        policy.proposed(batch(("barrier", 0, 1), ops=()), now=10.0)
        assert policy.flushed_at == float("-inf")
        policy.applied(("barrier", 0, 1), now=10.002)
        assert policy.round == pytest.approx(0.002)

    def test_idle_pipeline_waits_rounds_for_released_clients(self):
        policy = self.policy()
        policy.proposed(batch(1), now=10.0)
        policy.applied(1, now=10.003, expected=3)
        assert policy.target == 3
        now = 10.0 + FLUSH_INTERVAL
        assert policy.wait(now, held=2, uncommitted=0) == pytest.approx(
            IDLE_WAIT_ROUNDS * 0.003
        )
        assert policy.wait(now, held=3, uncommitted=0) == 0.0

    def test_entry_without_client_ops_keeps_the_target(self):
        policy = self.policy()
        policy.applied(1, now=1.0, expected=2)
        policy.applied(("barrier", 1, 2), now=2.0)
        assert policy.target == 2

    def test_interval_is_read_from_the_module(self, monkeypatch):
        policy = self.policy()
        policy.proposed(batch(1), now=10.0)
        assert policy.wait(now=10.0, held=1, uncommitted=0) > 0
        monkeypatch.setattr(kv, "FLUSH_INTERVAL", 0.0)
        assert policy.wait(now=10.0, held=1, uncommitted=0) == 0.0


class TestReadQueue:
    def test_first_read_opens_a_barrier_later_ones_queue_for_the_next(self):
        reads = ReadQueue(shard_id=1, pid=2)
        assert reads.join("a") is True
        assert reads.open(leader=True) == (("ri", 1, 2, 1), [])
        assert reads.join("b") is False
        assert reads.open(leader=True) == (None, [])
        assert reads.waiting == ["a"] and reads.queued == ["b"]
        assert reads.rounds == 1

    def test_confirmation_releases_only_its_own_reads(self):
        reads = ReadQueue(0, 0)
        reads.join("a")
        barrier, _ = reads.open(leader=True)
        reads.join("b")
        assert reads.confirmed(("ri", 0, 0, 99)) is None
        assert reads.confirmed(barrier) == ["a"]
        assert reads.inflight is None and reads.queued == ["b"]
        assert reads.open(leader=True) == (("ri", 0, 0, 2), [])
        assert reads.waiting == ["b"]

    def test_non_leader_refuses_the_queue_and_opens_nothing(self):
        reads = ReadQueue(0, 0)
        reads.join("a")
        reads.join("b")
        assert reads.open(leader=False) == (None, ["a", "b"])
        assert reads.rounds == 0 and not reads.queued

    def test_nothing_queued_opens_nothing_unless_forced(self):
        reads = ReadQueue(0, 3)
        assert reads.open(leader=True) == (None, [])
        assert reads.open(leader=True, force=True) == (("ri", 0, 3, 1), [])
        assert reads.confirmed(("ri", 0, 3, 1)) == []

    def test_drop_returns_every_waiter(self):
        reads = ReadQueue(0, 0)
        reads.join("a")
        reads.open(leader=True)
        reads.join("b")
        assert reads.waiting and reads.queued
        assert reads.drop() == ["a", "b"]
        assert reads.inflight is None and not (reads.waiting or reads.queued)


@pytest.mark.parametrize("max_batch", [0, -1])
def test_max_batch_below_one_is_refused(max_batch):
    # A shard proposing empty slices of its held ops would livelock.
    with pytest.raises(ValueError, match="max_batch"):
        KVServer(ClusterConfig.simulated(3), 0, max_batch=max_batch)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 0")
def test_a_retried_put_is_applied_once():
    """A client retries ``c1-1`` after a redirect; the deposed leader's
    entry had survived, so the retry commits again in a new batch, after
    another client's put.  Applying it twice turns the store back to the
    older value."""
    machine = kv.KVCommandMachine()
    puts = [("c1-1", "v1"), ("c2-1", "v2"), ("c1-1", "v1")]
    for index, (op_id, value) in enumerate(puts, start=1):
        machine.apply(index, batch(index, (kv.TaggedPut("k", value, op_id),)))
    assert machine.data == {"k": "v2"}


def test_a_retry_keeps_its_waiter_when_the_first_request_gives_up():
    """A retried put reaches the leader while the first request with the
    same ``op_id`` still waits.  The first handler times out and drops
    its waiter; the retry's waiter must survive that and get the reply."""

    async def scenario():
        cluster = LiveKVCluster(3, seed=23, **FAST)
        await cluster.start()
        try:
            server = cluster.servers[await cluster.wait_for_leader(timeout=15.0)]
            put = {"type": "put", "key": "k", "value": 1, "id": "c1-1"}
            server.commit_timeout = 1e-6  # the first request gives up at once
            first = asyncio.ensure_future(server._serve(put))
            await asyncio.sleep(0)
            server.commit_timeout = 5.0
            retry = asyncio.ensure_future(server._serve(put))
            assert (await first)["reason"] == "commit timeout"
            return await retry
        finally:
            await cluster.stop()

    rt = SimRuntime()
    try:
        reply = rt.run(scenario(), timeout=60.0)
    finally:
        rt.close()
    assert reply["type"] == "ok", reply


class TestDeposedLeader:
    def test_every_waiter_kind_redirects(self):
        """A put, a safe read and a readindex read wait on an isolated
        leader; the majority elects, the partition heals, and all three
        answer with a redirect rather than a timeout."""

        async def scenario():
            cluster = LiveKVCluster(3, seed=23, **FAST)
            await cluster.start()
            try:
                old = await cluster.wait_for_leader(timeout=15.0)
                server = cluster.servers[old]
                shard = server.shards[0]
                put = {"type": "put", "key": "k", "value": 0, "id": "warm"}
                assert (await server._serve(put))["type"] == "ok"
                others = [pid for pid in range(3) if pid != old]
                partition_cluster(cluster, [old], others)
                requests = [
                    {"type": "put", "key": "k", "value": 1, "id": "p1"},
                    {"type": "get", "key": "k", "lin": True, "id": "s1",
                     "tier": "safe"},
                    {"type": "get", "key": "k", "lin": True, "id": "r1",
                     "tier": "readindex"},
                ]
                tasks = [
                    asyncio.ensure_future(server._serve(request))
                    for request in requests
                ]
                await asyncio.sleep(0.05)
                assert not any(task.done() for task in tasks)
                assert shard.is_leader and shard.reads.waiting
                deadline = asyncio.get_event_loop().time() + 10.0
                while not any(
                    cluster.servers[pid].shards[0].is_leader for pid in others
                ):
                    assert asyncio.get_event_loop().time() < deadline
                    await asyncio.sleep(0.02)
                heal_cluster(cluster)
                responses = await asyncio.gather(*tasks)
                assert [r["type"] for r in responses] == ["redirect"] * 3, responses
                assert not shard.is_leader and not shard.has_pending()
            finally:
                await cluster.stop()

        rt = SimRuntime()
        try:
            rt.run(scenario(), timeout=60.0)
        finally:
            rt.close()

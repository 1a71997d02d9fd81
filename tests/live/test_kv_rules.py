"""The KV layer's rules, driven without a cluster, and the shard glue
that carries them out when leadership is lost.

:class:`~repro.live.kv.FlushPolicy` (when a leader proposes what it
holds) and :class:`~repro.live.kv.ReadQueue` (ReadIndex batching, one
barrier in flight) are plain objects: every case below feeds them
numbers and reads back their answer.  :class:`TestSessions` does the
same for :class:`~repro.live.kv.KVCommandMachine`'s session table, then
checks on :class:`~repro.core.runtime.SimRuntime` that a cluster applies
a client's put once, and that only the leader works out its reply.
The last class runs the glue there too: a deposed leader must turn
every kind of waiter it holds into a redirect.
"""

import asyncio

import pytest

from repro.chaos import heal_cluster, partition_cluster
from repro.core.runtime import SimRuntime
from repro.live import LiveKVCluster, kv
from repro.live.client import AsyncKVClient
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
from repro.sim.serialize import binary_dumps, binary_loads

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

    def test_a_late_timer_starts_the_interval_when_it_was_due(self):
        policy = self.policy()
        policy.proposed(batch(1), now=10.0009, due=10.0)
        assert policy.flushed_at == 10.0
        delay = policy.wait(now=10.0009, held=1, uncommitted=0)
        assert delay == pytest.approx(FLUSH_INTERVAL - 0.0009)

    def test_a_flush_an_interval_late_lets_one_partial_batch_through(self):
        policy = self.policy()
        late = 10.0 + 1.5 * FLUSH_INTERVAL
        policy.proposed(batch(1), now=late, due=10.0)
        policy.applied(1, now=late)
        # The late batch went alone; the next waits a whole interval, so
        # the two average more than one interval apart.
        assert policy.wait(now=late, held=1, uncommitted=0) == pytest.approx(
            FLUSH_INTERVAL
        )

    def test_a_timer_run_early_counts_as_due_now(self):
        policy = self.policy()
        policy.proposed(batch(1), now=10.0, due=10.0 + 1e-9)
        assert policy.flushed_at == 10.0

    def test_round_is_timed_from_the_proposal_not_the_due_time(self):
        policy = self.policy()
        policy.proposed(batch(1), now=10.0009, due=10.0)
        policy.applied(1, now=10.0029)
        assert policy.round == pytest.approx(0.002)

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


def put_batch(index, *puts):
    """A one-entry batch of ``(op_id, key, value)`` puts."""
    return batch(index, [kv.TaggedPut(key, value, op_id) for op_id, key, value in puts])


def run_sim(scenario, timeout=60.0):
    rt = SimRuntime()
    try:
        return rt.run(scenario(), timeout=timeout)
    finally:
        rt.close()


class TestSessions:
    """The KV machine's session table: a client's put applies once."""

    def test_only_a_higher_counter_applies_and_reads_are_not_tracked(self):
        machine = kv.KVCommandMachine()
        machine.apply(1, put_batch(1, ("c1-2", "k", "a")))
        machine.apply(2, put_batch(2, ("c1-1", "k", "old"), ("c1-2", "k", "b")))
        assert machine.data == {"k": "a"} and machine.applied_count == 1
        machine.apply(3, batch(3, (kv.KvRead("k", "c9-1"),)))
        assert machine.sessions == {"c1": (2, 1)}
        assert machine.effect_index("c1-2", 2) == 1

    @pytest.mark.parametrize(
        "op_id", ["", "7", "c1-", "c1-x", "-3", "c1-+3", "c1-\u0663"]
    )
    def test_an_id_without_a_counter_is_applied_untracked(self, op_id):
        machine = kv.KVCommandMachine()
        for index in (1, 2):
            machine.apply(index, put_batch(index, (op_id, "k", index)))
        assert machine.data == {"k": 2} and machine.sessions == {}
        assert kv.parse_op_id(op_id) is None

    def test_the_table_survives_the_binary_codec_in_eviction_order(self):
        machine = kv.KVCommandMachine()
        for index, client in enumerate(["a", "b", "c", "a"], start=1):
            machine.apply(index, put_batch(index, (f"{client}-{index}", "k", index)))
        assert list(machine.sessions) == ["b", "c", "a"]
        image = binary_loads(binary_dumps(machine.snapshot()))
        copy = kv.KVCommandMachine()
        copy.restore(image)
        assert list(copy.sessions.items()) == list(machine.sessions.items())
        assert copy.data == machine.data
        copy.apply(5, put_batch(5, ("a-4", "k", "again")))
        assert copy.data == {"k": 4}
        copy.reset()
        assert copy.sessions == {} and copy.data == {}

    def test_an_image_from_before_the_table_restores_with_none(self):
        machine = kv.KVCommandMachine()
        machine.restore(({"k": 1}, 1))
        assert machine.data == {"k": 1} and machine.sessions == {}

    def test_replicas_fed_the_same_clients_evict_the_same_one(self):
        machines = [kv.KVCommandMachine(), kv.KVCommandMachine()]
        for machine in machines:
            machine.apply(1, put_batch(1, ("first-1", "k", 0)))
            for index in range(2, kv.SESSION_CAP + 1):
                machine.apply(index, put_batch(index, (f"c{index}-1", "k", index)))
            # Touching the oldest client makes the next one the oldest.
            machine.apply(kv.SESSION_CAP + 1, put_batch(0, ("first-2", "k", 1)))
            assert len(machine.sessions) == kv.SESSION_CAP
            machine.apply(kv.SESSION_CAP + 2, put_batch(0, ("new-1", "k", 2)))
            assert len(machine.sessions) == kv.SESSION_CAP
        evicted = [
            {"first", "new", *(f"c{i}" for i in range(2, kv.SESSION_CAP + 1))}
            - set(machine.sessions)
            for machine in machines
        ]
        assert evicted == [{"c2"}, {"c2"}]
        assert machines[0].sessions == machines[1].sessions

    def test_a_skipped_retry_is_answered_with_the_first_index(self):
        """``c1-1`` commits, another client overwrites the key, and the
        retry of ``c1-1`` commits again: the store keeps the other
        client's value and the retry's waiter gets the first index."""

        async def scenario():
            cluster = LiveKVCluster(3, seed=23, **FAST)
            await cluster.start()
            try:
                server = cluster.servers[await cluster.wait_for_leader(timeout=15.0)]
                put = {"type": "put", "key": "k", "value": 1, "id": "c1-1"}
                first = await server._serve(put)
                other = await server._serve(
                    {"type": "put", "key": "k", "value": 2, "id": "c2-1"}
                )
                retry = await server._serve(put)
                return first, other, retry, server.shards[0].node
            finally:
                await cluster.stop()

        first, other, retry, node = run_sim(scenario)
        assert [r["type"] for r in (first, other, retry)] == ["ok"] * 3
        assert retry["index"] == first["index"] < other["index"]
        assert node.last_applied > other["index"]  # the retry did commit
        assert node.machine.data["k"] == 2

    def test_only_the_node_holding_waiters_works_out_replies(self, monkeypatch):
        """Every replica applies each batch, but only the leader holds its
        waiters, so only the leader looks up what each put answers."""
        machines = []
        effect_index = kv.KVCommandMachine.effect_index

        def recorded(machine, op_id, index):
            machines.append(machine)
            return effect_index(machine, op_id, index)

        monkeypatch.setattr(kv.KVCommandMachine, "effect_index", recorded)

        async def scenario():
            cluster = LiveKVCluster(3, seed=23, **FAST)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=15.0)
                server = cluster.servers[leader]
                for n in (1, 2, 3):
                    reply = await server._serve(
                        {"type": "put", "key": "k", "value": n, "id": f"c1-{n}"}
                    )
                    assert reply["type"] == "ok"
                last = server.shards[0].node.last_applied
                shards = [s.shards[0] for s in cluster.servers]
                await asyncio.gather(*(shard.wait_applied(last) for shard in shards))
                return [shard.node.machine for shard in shards], leader
            finally:
                await cluster.stop()

        replicas, leader = run_sim(scenario)
        assert all(m.data == {"k": 3} for m in replicas)
        assert len(machines) == 3
        assert all(m is replicas[leader] for m in machines)

    @pytest.mark.parametrize("op_id", [None, 7, "", "warm", "c1-x", "c1-" + "9" * 19])
    def test_the_frontend_refuses_a_put_id_without_a_counter(self, op_id):
        server = KVServer(ClusterConfig.simulated(3), 0)
        reply = asyncio.run(
            server._serve({"type": "put", "key": "k", "value": 1, "id": op_id})
        )
        assert reply["type"] == "refused" and "<client>-<n>" in reply["reason"]

    def test_a_durable_restart_still_skips_a_retry(self, tmp_path):
        """Kill every node of a compacting durable cluster and restart
        it: the table comes back from the snapshot and the log, so
        retries of a put from before the last compaction and of one from
        after it are both skipped."""

        async def scenario():
            cluster = LiveKVCluster(
                3, seed=29, data_dir=str(tmp_path), snapshot_threshold=4, **FAST
            )
            await cluster.start()
            try:
                server = cluster.servers[await cluster.wait_for_leader(timeout=15.0)]
                early = {"type": "put", "key": "e", "value": 1, "id": "c1-1"}
                late = {"type": "put", "key": "l", "value": 1, "id": "c4-1"}
                acks = [await server._serve(early)]
                for i in range(8):
                    acks.append(await server._serve(
                        {"type": "put", "key": "e", "value": 2, "id": f"c2-{i}"}
                    ))
                acks.append(await server._serve(late))
                acks.append(await server._serve(
                    {"type": "put", "key": "l", "value": 2, "id": "c3-1"}
                ))
                assert server.shards[0].node.log.snapshot_index > acks[0]["index"]
                for pid in range(3):
                    await cluster.kill(pid)
                for pid in range(3):
                    await cluster.restart(pid)
                server = cluster.servers[await cluster.wait_for_leader(timeout=15.0)]
                retries = [await server._serve(early), await server._serve(late)]
                return acks, retries, server.shards[0].node.machine.data
            finally:
                await cluster.stop()

        acks, retries, data = run_sim(scenario)
        assert [r["index"] for r in retries] == [acks[0]["index"], acks[-2]["index"]]
        assert data["e"] == 2 and data["l"] == 2

    def test_two_tasks_sharing_a_client_both_apply_in_counter_order(self):
        async def scenario():
            cluster = LiveKVCluster(3, seed=23, **FAST)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=15.0)
                client = AsyncKVClient(cluster.cluster, op_id_prefix="s")
                tasks = [
                    asyncio.ensure_future(client.put(f"k{i}", i)) for i in range(6)
                ]
                await asyncio.gather(*tasks)
                await client.close()
                return cluster.servers[leader].shards[0].node
            finally:
                await cluster.stop()

        node = run_sim(scenario)
        assert node.machine.data == {f"k{i}": i for i in range(6)}
        assert node.machine.sessions["s"][0] == 6


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
                put = {"type": "put", "key": "k", "value": 0, "id": "warm-1"}
                assert (await server._serve(put))["type"] == "ok"
                others = [pid for pid in range(3) if pid != old]
                partition_cluster(cluster, [old], others)
                requests = [
                    {"type": "put", "key": "k", "value": 1, "id": "p-1"},
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
                assert not shard.is_leader
                assert not (shard._pending or shard._applied_waiters)
                assert not (shard.reads.waiting or shard.reads.queued)
            finally:
                await cluster.stop()

        rt = SimRuntime()
        try:
            rt.run(scenario(), timeout=60.0)
        finally:
            rt.close()

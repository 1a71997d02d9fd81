"""Linearizable reads: the read-as-log-entry path, and the tier ladder.

A ``get(..., linearizable=True)`` is folded into the write batch pipeline
as a :class:`~repro.live.kv.KvRead` marker and answered at apply time, so
it reflects every write committed before it — unlike the default local
read, which may lag on a follower.  The faster tiers' costs relative to
that path are pinned in virtual time at the end.
"""

import asyncio

import pytest

from repro.core.runtime import SimRuntime
from repro.live import AsyncKVClient, LiveKVCluster, run_closed_loop

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)


def run(coro, timeout=120.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def sim_run(coro, timeout=120.0):
    rt = SimRuntime()
    try:
        return rt.run(coro, timeout=timeout)
    finally:
        rt.close()


class TestLinearizableReads:
    def test_lin_read_sees_every_acked_write(self):
        async def scenario():
            cluster = LiveKVCluster(3, seed=41, **FAST)
            await cluster.start()
            client = AsyncKVClient(cluster.cluster)
            try:
                await cluster.wait_for_leader(timeout=15.0)
                for i in range(5):
                    await client.put("counter", i)
                    response = await client.get("counter", linearizable=True)
                    assert response["found"] and response["value"] == i
                    assert response.get("lin") is True
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_lin_read_of_missing_key(self):
        async def scenario():
            cluster = LiveKVCluster(3, seed=42, **FAST)
            await cluster.start()
            client = AsyncKVClient(cluster.cluster)
            try:
                await cluster.wait_for_leader(timeout=15.0)
                await client.put("exists", 1)  # commit something first
                response = await client.get("missing", linearizable=True)
                assert response["found"] is False
                assert response["value"] is None
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_lin_read_routes_to_owning_shard_leader(self):
        async def scenario():
            cluster = LiveKVCluster(3, seed=43, shards=2, **FAST)
            await cluster.start()
            client = AsyncKVClient(cluster.cluster, shards=2)
            try:
                await cluster.wait_for_all_leaders(20.0)
                for i in range(6):
                    key = f"spread-{i}"  # keys land on both shards
                    await client.put(key, i)
                    response = await client.get(key, linearizable=True)
                    assert response["value"] == i
                    assert response["shard"] == client._router.shard_of(key)
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_lin_read_requires_op_id_at_server(self):
        async def scenario():
            cluster = LiveKVCluster(3, seed=44, **FAST)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=15.0)
                server = cluster.servers[leader]
                response = await server._serve(
                    {"type": "get", "key": "k", "lin": True}
                )
                assert response["type"] == "refused"
            finally:
                await cluster.stop()

        run(scenario())

    def test_kv_read_marker_is_a_noop_for_the_machine(self):
        async def scenario():
            cluster = LiveKVCluster(3, seed=45, **FAST)
            await cluster.start()
            client = AsyncKVClient(cluster.cluster)
            try:
                leader = await cluster.wait_for_leader(timeout=15.0)
                await client.put("k", "v")
                before = dict(cluster.servers[leader].node.machine.data)
                await client.get("k", linearizable=True)
                after = dict(cluster.servers[leader].node.machine.data)
                assert before == after  # the marker wrote nothing
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_unsafe_mode_answers_without_commit(self):
        """The injectable bug: local answer on mere belief of leadership.
        (Correct content on a healthy cluster — the *danger* is that a
        deposed leader would answer too; the chaos campaign pins that.)"""

        async def scenario():
            cluster = LiveKVCluster(3, seed=46, unsafe_lin_reads=True, **FAST)
            await cluster.start()
            client = AsyncKVClient(cluster.cluster)
            try:
                leader = await cluster.wait_for_leader(timeout=15.0)
                await client.put("k", "v")
                commit_before = cluster.servers[leader].node.commit_index
                response = await client.get("k", linearizable=True)
                assert response["value"] == "v"
                # No KvRead marker was committed for the read.
                assert (
                    cluster.servers[leader].node.commit_index == commit_before
                )
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestReadTierLadder:
    """What each tier buys a read-heavy (90 % get), Zipf-skewed closed loop
    of 4 clients on 3 nodes, in virtual time (0.5 ms per hop).

    ``safe`` commits every get as a log marker and waits for the flush
    policy like a put; ``readindex`` confirms leadership with one append
    round per batch of gets; ``lease`` answers at once while the lease is
    live, and ``follower`` reads bounded-stale from the nearest replica.
    """

    #: tier -> (staleness bound, virtual ops/s, get p50 in seconds).
    #: The rates move with the order of callbacks due at one virtual
    #: instant, so adding or removing any timer or wake-up can move them.
    LADDER = {
        "safe": (None, 987.7, 0.004),
        "readindex": (None, 1762.1, 0.002),
        "lease": (None, 2857.1, 0.001),
        "follower": (0.5, 2919.7, 0.001),
    }

    def _mix(self, tier, staleness):
        async def scenario():
            cluster = LiveKVCluster(
                3, seed=18, read_tier=tier,
                election_timeout=(0.3, 0.6), heartbeat_interval=0.06,
            )
            await cluster.start()
            try:
                await cluster.wait_for_leader(30.0)
                # Preload so the reads observe real values, not misses.
                client = AsyncKVClient(cluster.cluster)
                for i in range(0, 256, 4):
                    await client.put(f"k{i}", f"seed-{i}")
                await client.close()
                return await run_closed_loop(
                    cluster.cluster, ops=400, concurrency=4, key_space=256,
                    seed=18, key_dist="zipf", read_ratio=0.9,
                    read_staleness=staleness,
                )
            finally:
                await cluster.stop()

        return sim_run(scenario())

    def test_ladder(self):
        rates = {}
        for tier, (staleness, rate, p50) in self.LADDER.items():
            report = self._mix(tier, staleness)
            assert report.errors == 0, (tier, report.summary())
            assert report.ops == 400 and report.reads > 300, report.summary()
            assert report.throughput == pytest.approx(rate, abs=0.1), tier
            assert report.latency["p50"] == pytest.approx(p50), tier
            rates[tier] = report.throughput
        # Zero rounds beat one confirmation round beat a commit round...
        assert rates["lease"] >= max(rates["safe"], rates["readindex"])
        # ...and a confirmation round never collapses behind a timer.
        assert rates["readindex"] >= 0.4 * rates["safe"]

    def test_lease_read_costs_one_client_round_trip(self):
        async def scenario():
            cluster = LiveKVCluster(
                3, seed=18, read_tier="lease",
                election_timeout=(0.3, 0.6), heartbeat_interval=0.06,
            )
            await cluster.start()
            client = AsyncKVClient(cluster.cluster)
            try:
                await cluster.wait_for_leader(30.0)
                await client.put("k", "v")
                loop = asyncio.get_event_loop()
                start = loop.time()
                response = await client.get("k", linearizable=True)
                return response, loop.time() - start
            finally:
                await client.close()
                await cluster.stop()

        response, took = sim_run(scenario())
        assert response["value"] == "v" and response["read"] == "lease"
        # Client -> leader -> client: two 0.5 ms hops, no round on top.
        assert took == pytest.approx(2 * 0.0005)

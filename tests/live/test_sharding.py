"""Multi-group sharding: routing, leader placement, and live clusters."""

import asyncio

import pytest

from repro.core.runtime import SimRuntime
from repro.live import (
    AsyncKVClient,
    ClusterConfig,
    LiveKVCluster,
    ShardRouter,
    preferred_leader,
    run_closed_loop,
    shard_of,
    staggered_election_timeout,
)


def run(coro, timeout=60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestShardOf:
    def test_stable_across_processes_and_versions(self):
        # Hardcoded expectations: the hash is part of the wire contract
        # (clients and servers of any version must agree), so these values
        # may never change.
        expected = {
            ("alpha", 2): 0, ("alpha", 4): 0, ("alpha", 8): 4,
            ("beta", 2): 1, ("beta", 4): 1, ("beta", 8): 1,
            ("k0", 2): 1, ("k0", 4): 3, ("k0", 8): 3,
            ("k1", 2): 1, ("k1", 4): 1, ("k1", 8): 1,
            ("k2", 2): 0, ("k2", 4): 0, ("k2", 8): 4,
            ("k3", 2): 0, ("k3", 4): 2, ("k3", 8): 2,
            (7, 2): 1, (7, 4): 1, (7, 8): 5,
            (b"raw", 2): 0, (b"raw", 4): 0, (b"raw", 8): 4,
            (True, 2): 0, (True, 4): 2, (True, 8): 6,
            (None, 2): 0, (None, 4): 2, (None, 8): 6,
        }
        for (key, shards), want in expected.items():
            assert shard_of(key, shards) == want, (key, shards)

    def test_single_group_is_always_shard_zero(self):
        for key in ("a", 1, b"b", None):
            assert shard_of(key, 1) == 0
            assert shard_of(key, 0) == 0

    def test_distinct_types_hash_independently(self):
        # "1" vs 1 vs b"1" vs True must not be forced to collide by the
        # canonical encoding (they may still collide mod small S).
        digests = {shard_of(k, 1 << 30) for k in ("1", 1, b"1", True)}
        assert len(digests) == 4

    def test_balanced_over_random_keysets(self):
        import random

        rng = random.Random(42)
        for shards in (2, 4, 8):
            keys = [f"key-{rng.randrange(10**9)}" for _ in range(4000)]
            counts = [0] * shards
            for key in keys:
                counts[shard_of(key, shards)] += 1
            mean = len(keys) / shards
            for count in counts:
                # Binomial(4000, 1/S) stays well within 30% of the mean.
                assert 0.7 * mean < count < 1.3 * mean, counts

    def test_range_is_valid(self):
        for shards in (1, 2, 3, 5, 7, 16):
            for i in range(200):
                assert 0 <= shard_of(f"x{i}", shards) < shards


class TestLeaderPlacement:
    def test_preferred_leader_wraps(self):
        assert [preferred_leader(s, 3) for s in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_preferred_node_keeps_base_range(self):
        base = (0.3, 0.6)
        assert staggered_election_timeout(base, 2, 2, 3) == base
        assert staggered_election_timeout(base, 4, 1, 3) == base

    def test_other_nodes_get_strictly_later_range(self):
        base = (0.3, 0.6)
        for shard in range(4):
            for pid in range(3):
                lo, hi = staggered_election_timeout(base, shard, pid, 3)
                if pid == shard % 3:
                    continue
                assert lo >= base[1]  # never overlaps the preferred range
                assert hi > lo


class TestShardRouter:
    def _cluster(self, n=3):
        return ClusterConfig.localhost(n)

    def test_defaults_to_preferred_leader(self):
        cluster = self._cluster()
        router = ShardRouter(cluster, 4)
        for shard in range(4):
            assert router.target(shard) == cluster[shard % 3].client_addr
            assert router.hint(shard) is None

    def test_note_leader_updates_only_that_shard(self):
        cluster = self._cluster()
        router = ShardRouter(cluster, 4)
        addr = cluster[2].client_addr
        router.note_leader(1, addr)
        assert router.target(1) == addr
        assert router.hint(1) == addr
        assert router.target(0) == cluster[0].client_addr
        assert router.hint(0) is None

    def test_note_failure_rotates_to_a_different_node(self):
        cluster = self._cluster()
        router = ShardRouter(cluster, 2)
        for _ in range(8):
            before = router.target(0)
            router.note_failure(0)
            assert router.target(0) != before
            # The other shard's routing is untouched by shard 0's failures.
            assert router.target(1) == cluster[1].client_addr

    def test_out_of_range_leader_note_ignored(self):
        cluster = self._cluster()
        router = ShardRouter(cluster, 2)
        router.note_leader(5, cluster[0].client_addr)
        router.note_leader(-1, cluster[0].client_addr)
        assert router.hint(0) is None and router.hint(1) is None

    def test_redirect_sequence_bookkeeping(self):
        # A redirect chain (fail, learn, fail, learn) leaves exactly the
        # last learned leader as the hint.
        cluster = self._cluster()
        router = ShardRouter(cluster, 3)
        router.note_failure(2)
        router.note_leader(2, cluster[0].client_addr)
        router.note_failure(2)
        router.note_leader(2, cluster[1].client_addr)
        assert router.target(2) == cluster[1].client_addr


class TestShardedCluster:
    """End-to-end: multiple Raft groups over one shared transport."""

    def test_puts_and_gets_across_shards(self):
        async def scenario():
            kv = LiveKVCluster(
                3, seed=11, shards=4,
                election_timeout=(0.1, 0.2), heartbeat_interval=0.03,
            )
            await kv.start()
            client = AsyncKVClient(kv.cluster)
            try:
                await kv.wait_for_all_leaders(20.0)
                items = {f"key-{i}": f"value-{i}" for i in range(40)}
                shards_hit = set()
                for key, value in items.items():
                    await client.put(key, value)
                    shards_hit.add(shard_of(key, 4))
                assert shards_hit == {0, 1, 2, 3}  # workload spans groups
                for key, value in items.items():
                    response = await client.get(key)
                    assert response["found"] and response["value"] == value
                    assert response["shard"] == shard_of(key, 4)
            finally:
                await client.close()
                await kv.stop()

        run(scenario())

    def test_client_discovers_shard_count(self):
        async def scenario():
            kv = LiveKVCluster(
                3, seed=3, shards=2,
                election_timeout=(0.1, 0.2), heartbeat_interval=0.03,
            )
            await kv.start()
            client = AsyncKVClient(kv.cluster)  # no shards= given
            try:
                await kv.wait_for_all_leaders(20.0)
                assert await client.shard_count() == 2
                status = await client.status()
                assert status["shards"] == 2
                assert len(status["groups"]) == 2
            finally:
                await client.close()
                await kv.stop()

        run(scenario())

    def test_leaders_are_staggered_across_nodes(self):
        async def scenario():
            kv = LiveKVCluster(
                3, seed=5, shards=3,
                election_timeout=(0.1, 0.2), heartbeat_interval=0.03,
            )
            await kv.start()
            try:
                leaders = await kv.wait_for_all_leaders(20.0)
                # On a clean start each shard's first leader is its
                # preferred node, so the three leaders are all distinct.
                assert leaders == {0: 0, 1: 1, 2: 2}
            finally:
                await kv.stop()

        run(scenario())

    def test_redirects_carry_the_shard_id(self):
        async def scenario():
            kv = LiveKVCluster(
                3, seed=7, shards=2,
                election_timeout=(0.1, 0.2), heartbeat_interval=0.03,
            )
            await kv.start()
            client = AsyncKVClient(kv.cluster, shards=2)
            try:
                await kv.wait_for_all_leaders(20.0)
                # Aim a request for shard 1's key at a node that does not
                # lead shard 1: the server must answer with a redirect
                # naming shard 1 and its leader, and the client's router
                # must land the write.
                key = "beta"  # shard_of("beta", 2) == 1
                leader = kv.leader_pid(shard=1)
                follower = next(
                    p for p in range(3) if p != leader
                )
                router = client._router
                router.note_leader(1, kv.cluster[follower].client_addr)
                await client.put(key, "v")
                assert router.hint(1) == kv.cluster[leader].client_addr
            finally:
                await client.close()
                await kv.stop()

        run(scenario())

    def test_shard_failover_after_leader_death(self):
        async def scenario():
            kv = LiveKVCluster(
                3, seed=13, shards=2,
                election_timeout=(0.1, 0.2), heartbeat_interval=0.03,
            )
            await kv.start()
            client = AsyncKVClient(kv.cluster, shards=2, max_attempts=60)
            try:
                await kv.wait_for_all_leaders(20.0)
                await client.put("beta", "before")  # shard 1
                victim = kv.leader_pid(shard=1)
                await kv.kill(victim)
                await kv.wait_for_leader(
                    20.0, shard=1, exclude=(victim,)
                )
                await client.put("beta", "after")
                response = await client.get("beta")
                assert response["value"] == "after"
            finally:
                await client.close()
                await kv.stop()

        run(scenario(), timeout=90.0)

    def test_single_shard_cluster_keeps_legacy_surface(self):
        async def scenario():
            kv = LiveKVCluster(
                3, seed=2, shards=1,
                election_timeout=(0.1, 0.2), heartbeat_interval=0.03,
            )
            await kv.start()
            client = AsyncKVClient(kv.cluster)
            try:
                await kv.wait_for_leader(20.0)
                await client.put("k", "v")
                status = await client.status()
                # Top-level single-group fields stay for old tooling.
                assert {"role", "term", "commit_index", "applied"} <= set(status)
                assert status["shards"] == 1
            finally:
                await client.close()
                await kv.stop()

        run(scenario())


class TestShardedThroughput:
    """Independent groups overlap their commit cycles.

    On a 5 ms link (``SimRuntime(latency=0.005)``) with a shallow
    per-group pipeline (``max_batch=4``, ``max_inflight=1``), one group is
    commit-cycle-bound: the loop idles between replication round trips.
    Staggered leaders let S groups run S cycles at once, so aggregate
    throughput grows with the shard count.  Virtual time makes the rates
    exact: 417.8 / 754.7 / 1379.3 ops/s for 1 / 2 / 4 shards.  They move
    with the order of callbacks due at one virtual instant, so adding or
    removing any timer or wake-up can move them.
    """

    TUNING = dict(
        election_timeout=(0.3, 0.5),
        heartbeat_interval=0.08,
        max_batch=4,
        max_inflight=1,
    )

    def _closed_loop(self, shards):
        async def scenario():
            kv = LiveKVCluster(3, seed=21, shards=shards, **self.TUNING)
            await kv.start()
            try:
                leaders = await kv.wait_for_all_leaders(30.0)
                report = await run_closed_loop(
                    kv.cluster, ops=800, concurrency=48, key_space=512,
                    seed=21, shards=shards,
                )
            finally:
                await kv.stop()
            return report, leaders

        rt = SimRuntime(latency=0.005)
        try:
            return rt.run(scenario(), timeout=120.0)
        finally:
            rt.close()

    def test_throughput_scales_with_staggered_leaders(self):
        rates = {}
        for shards in (1, 2, 4):
            report, leaders = self._closed_loop(shards)
            assert (report.ops, report.errors) == (800, 0), report.summary()
            lat = report.latency
            assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
            # Every shard's first leader is its preferred node.
            assert leaders == {s: s % 3 for s in range(shards)}
            rates[shards] = report.throughput
        assert rates == pytest.approx({1: 417.8, 2: 754.7, 4: 1379.3}, abs=0.1)
        assert rates[2] / rates[1] >= 1.4, rates
        assert rates[4] / rates[1] >= 2.5, rates

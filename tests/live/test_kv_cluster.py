"""Replicated KV service tests: redirects, leader failover.

The batching (flush policy) contract is pinned in virtual time by
``test_flush_policy.py``.

`test_leader_kill_loses_no_acked_write` is the CI smoke's core guarantee:
every write acknowledged before the leader is killed must be readable
after re-election, because acks only happen on majority commit.

The timing-heavy failover tests run under
:class:`~repro.core.runtime.SimRuntime`: identical production code, but
elections, retry backoffs and leader waits burn *virtual* seconds — the
tests are faster and cannot flake on a loaded CI box.  The rest stay on
real asyncio/TCP so this file keeps covering both sides of the seam.
"""

import asyncio

import pytest

from repro.core.runtime import SimRuntime
from repro.live import (
    AsyncKVClient,
    ClusterUnavailableError,
    LiveKVCluster,
    run_closed_loop,
)

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)


def run(coro, timeout=120.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def sim_run(coro, timeout=120.0):
    """Run a scenario in virtual time; ``timeout`` is virtual seconds.

    ``SimRuntime.run`` installs the runtime as the ambient default, so
    scenario bodies build clusters and clients exactly as the asyncio
    tests do — no plumbing changes, which is the point of the seam.
    """
    rt = SimRuntime()
    try:
        return rt.run(coro, timeout=timeout)
    finally:
        rt.close()


async def _read_from_leader(cluster, client, key):
    """Read via the leader so the check is not racing replication lag."""
    leader = await cluster.wait_for_leader(timeout=15.0)
    return await client.status_of(leader), await _get_via(cluster, leader, key)


async def _get_via(cluster, pid, key):
    probe = AsyncKVClient(cluster.cluster)
    probe._target = cluster.cluster[pid].client_addr
    try:
        return await probe.get(key)
    finally:
        await probe.close()


class TestBasicService:
    def test_put_get_and_status(self):
        async def scenario():
            cluster = LiveKVCluster(3, seed=11, **FAST)
            await cluster.start()
            try:
                await cluster.wait_for_leader(timeout=15.0)
                client = AsyncKVClient(cluster.cluster)
                index = await client.put("alpha", "beta")
                assert index >= 1
                response = await client.get("alpha")
                assert response["found"] and response["value"] == "beta"
                status = await client.status()
                assert status["n"] == 3 and status["commit_index"] >= index
                await client.close()
            finally:
                await cluster.stop()

        run(scenario())

    def test_put_with_a_list_value_is_acknowledged(self):
        # A list value makes the whole batch unhashable: the leader's
        # duplicate-proposal check must fall back to a scan, not raise.
        async def scenario():
            cluster = LiveKVCluster(3, seed=14, **FAST)
            await cluster.start()
            try:
                await cluster.wait_for_leader(timeout=15.0)
                client = AsyncKVClient(cluster.cluster, max_attempts=2)
                index = await client.put("listy", [1, [2, 3]])
                assert index >= 1
                response = await client.get("listy", linearizable=True)
                assert response["found"] and list(response["value"])[0] == 1
                assert await client.put("after", "ok") > index
                await client.close()
            finally:
                await cluster.stop()

        sim_run(scenario())

    def test_follower_redirects_to_leader(self):
        async def scenario():
            cluster = LiveKVCluster(3, seed=13, **FAST)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=15.0)
                follower = next(
                    pid for pid in range(3) if pid != leader
                )
                client = AsyncKVClient(cluster.cluster)
                # Pin the first connection to a follower: the put must
                # still succeed via the redirect.
                client._target = cluster.cluster[follower].client_addr
                index = await client.put("via-follower", "ok")
                assert index >= 1
                status = await client.status()
                assert status["pid"] == leader
                await client.close()
            finally:
                await cluster.stop()

        run(scenario())


class TestFailover:
    def test_leader_kill_loses_no_acked_write(self):
        async def scenario():
            cluster = LiveKVCluster(3, seed=1, **FAST)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=15.0)
                client = AsyncKVClient(cluster.cluster)
                acked = {}
                for i in range(50):
                    key = f"k{i % 10}"
                    await client.put(key, f"v{i}")
                    acked[key] = f"v{i}"

                await cluster.kill(leader)
                new_leader = await cluster.wait_for_leader(
                    timeout=20.0, exclude=(leader,)
                )
                assert new_leader != leader

                # The cluster keeps accepting writes with 2/3 nodes up.
                for i in range(50, 60):
                    key = f"k{i % 10}"
                    await client.put(key, f"v{i}")
                    acked[key] = f"v{i}"

                lost = []
                for key, value in acked.items():
                    response = await _get_via(cluster, new_leader, key)
                    if not response["found"] or response["value"] != value:
                        lost.append((key, value))
                assert not lost, f"acked writes lost after failover: {lost}"
                await client.close()
            finally:
                await cluster.stop()

        sim_run(scenario())

    def test_all_nodes_down_is_unavailable(self):
        async def scenario():
            cluster = LiveKVCluster(3, seed=2, **FAST)
            await cluster.start()
            await cluster.stop()
            client = AsyncKVClient(
                cluster.cluster, max_attempts=3, retry_delay=0.05,
                request_timeout=0.5,
            )
            with pytest.raises(ClusterUnavailableError):
                await client.put("k", "v")
            await client.close()

        sim_run(scenario())


class TestLoadgen:
    def test_closed_loop_reports_all_ops(self):
        async def scenario():
            cluster = LiveKVCluster(3, seed=21, **FAST)
            await cluster.start()
            try:
                await cluster.wait_for_leader(timeout=15.0)
                report = await run_closed_loop(
                    cluster.cluster, ops=60, concurrency=4, seed=3
                )
                assert report.ops + report.errors == 60
                assert report.errors == 0
                assert report.throughput > 0
                summary = report.latency
                assert summary["count"] == 60
                assert 0 < summary["p50"] <= summary["p95"] <= summary["max"]
                # Every acknowledged write is durable and readable.
                client = AsyncKVClient(cluster.cluster)
                for key, value in list(report.acked.items())[:5]:
                    response = await client.get(key)
                    assert response["found"]
                await client.close()
            finally:
                await cluster.stop()

        run(scenario())

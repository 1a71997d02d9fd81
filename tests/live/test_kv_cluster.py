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

from repro.algorithms.raft.log import Entry
from repro.algorithms.raft.replication import LEADER
from repro.core.runtime import SimRuntime
from repro.live import (
    AsyncKVClient,
    ClusterConfig,
    ClusterUnavailableError,
    LiveKVCluster,
    run_closed_loop,
    run_open_loop,
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


class TestOpIds:
    def test_one_client_counts_up_under_one_prefix(self):
        cluster = ClusterConfig.localhost(3)
        one, two = AsyncKVClient(cluster), AsyncKVClient(cluster)
        ids = [one._next_op_id() for _ in range(3)]
        prefixes = {op_id.rsplit("-", 1)[0] for op_id in ids}
        assert [op_id.rsplit("-", 1)[1] for op_id in ids] == ["1", "2", "3"]
        assert len(prefixes) == 1 and len(prefixes.pop()) == 12
        assert two._next_op_id().rsplit("-", 1)[0] != ids[0].rsplit("-", 1)[0]


class TestBasicService:
    @pytest.mark.parametrize("n", [0, -1])
    def test_a_cluster_needs_a_node(self, n):
        # An empty cluster never elects a leader: a campaign on one
        # waits out its whole leader deadline before it fails.
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            LiveKVCluster(n)

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


class TestLeaderPid:
    def test_names_the_believer_with_the_highest_term(self):
        # A leader cut off by a partition still believes it leads after
        # the majority elects a successor: pid 2 led term 3, pid 0 leads 5.
        rt = SimRuntime()
        try:
            cluster = LiveKVCluster(3, runtime=rt, **FAST)
            for pid, term in ((0, 5), (2, 3)):
                node = cluster.servers[pid].node
                node.state, node.current_term = LEADER, term
            assert cluster.leader_pid() == 0
        finally:
            rt.close()


class TestWaitForLeader:
    """``wait_for_leader`` names the believer :meth:`leader_pid` names,
    once it has committed an entry of its own term.  Unstarted clusters,
    so nothing but the test moves a node's state."""

    @staticmethod
    def believe(cluster, pid, term, committed):
        node = cluster.servers[pid].node
        node.state, node.current_term = LEADER, term
        node.log.append_new(Entry(term, None))
        node.commit_index = node.log.last_index if committed else 0

    def test_names_the_believer_with_the_highest_term(self):
        # Pid 0 led term 3 and was cut off; pid 2 leads term 5.
        async def scenario():
            cluster = LiveKVCluster(3, **FAST)
            self.believe(cluster, 0, 3, committed=True)
            self.believe(cluster, 2, 5, committed=True)
            return await cluster.wait_for_leader(1.0)

        assert sim_run(scenario()) == 2

    def test_waits_until_the_leader_committed_in_its_term(self):
        async def scenario():
            cluster = LiveKVCluster(3, **FAST)
            self.believe(cluster, 0, 3, committed=True)
            self.believe(cluster, 2, 5, committed=False)
            with pytest.raises(TimeoutError):
                await cluster.wait_for_leader(0.1)
            assert await cluster.wait_for_leader(0.1, exclude=(2,)) == 0
            cluster.servers[2].node.commit_index = 1
            return await cluster.wait_for_leader(0.1)

        assert sim_run(scenario()) == 2


class TestLoadgen:
    """``run_closed_loop`` / ``run_open_loop`` read the runtime's clock, so
    under :class:`SimRuntime` (0.5 ms per hop) every figure they report is
    exact: a put is two client hops plus one replication round, plus
    whatever the leader's flush policy holds it for."""

    @pytest.mark.parametrize(
        "n, closed_duration, open_duration, connections",
        [(3, 0.063, 1.0013333, 2), (5, 0.065, 1.0026667, 3)],
    )
    def test_closed_then_open_loop(
        self, n, closed_duration, open_duration, connections
    ):
        async def scenario():
            cluster = LiveKVCluster(n, seed=21, **FAST)
            await cluster.start()
            try:
                await cluster.wait_for_leader(timeout=15.0)
                commit = cluster.servers[0].node.commit_index
                closed = await run_closed_loop(
                    cluster.cluster, ops=60, concurrency=4, seed=3
                )
                assert cluster.servers[0].node.commit_index > commit
                opened = await run_open_loop(
                    cluster.cluster, rate=300.0, duration=1.0, seed=3
                )
                # Every acknowledged write is durable and readable.
                client = AsyncKVClient(cluster.cluster)
                for key, value in list(closed.acked.items())[:5]:
                    response = await client.get(key)
                    assert response["found"]
                await client.close()
            finally:
                await cluster.stop()
            return closed, opened

        closed, opened = sim_run(scenario())
        for report, ops in ((closed, 60), (opened, 300)):
            assert (report.ops, report.errors) == (ops, 0), report.summary()
            lat = report.latency
            assert lat["count"] == ops
            assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert closed.latency["p50"] == pytest.approx(0.004)
        assert closed.duration == pytest.approx(closed_duration)
        # Open loop: 300 arrivals on a 1 s schedule, the last one answered
        # a few ms after it; arrivals find idle connections, so only a
        # couple are ever opened.
        assert opened.latency["p50"] == pytest.approx(0.0046667, abs=1e-6)
        assert opened.duration == pytest.approx(open_duration)
        assert opened.concurrency == connections

    @pytest.mark.parametrize(
        "engine, rate",
        [("raft", 3703.7), ("paxos", 3703.7), ("ct", 3797.5)],
    )
    def test_closed_loop_is_error_free_on_every_engine(self, engine, rate):
        async def scenario():
            cluster = LiveKVCluster(
                3, seed=17, engine=engine,
                election_timeout=(0.3, 0.6), heartbeat_interval=0.06,
            )
            await cluster.start()
            try:
                await cluster.wait_for_leader(30.0)
                return await run_closed_loop(
                    cluster.cluster, ops=300, concurrency=16, key_space=256,
                    seed=17,
                )
            finally:
                await cluster.stop()

        report = sim_run(scenario())
        assert (report.ops, report.errors) == (300, 0), report.summary()
        assert report.latency["p50"] == pytest.approx(0.004)
        assert report.throughput == pytest.approx(rate, abs=0.1)

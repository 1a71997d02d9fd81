"""Live-cluster crash recovery — kill -9 every node, cold restart from disk.

The ISSUE's acceptance criterion, verbatim: a 3-node cluster with a
``--data-dir`` must survive kill -9 of every node in turn, each
replacement performing **real** recovery (term, vote, log, snapshot read
back from its WAL), and a full-cluster power failure must preserve every
acknowledged write.  Marked ``storage``: opt in with ``pytest -m storage``.
"""

import asyncio
import os

import pytest

from repro.live import AsyncKVClient, LiveKVCluster
from repro.storage import RaftStorage

pytestmark = pytest.mark.storage

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)


def run(coro, timeout=180.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _read_back(client, expected):
    for key, value in expected.items():
        response = await client.get(key, linearizable=True)
        assert response["found"], f"acked key {key!r} vanished"
        assert response["value"] == value


class TestRollingKillMinus9:
    def test_every_node_survives_kill_and_cold_restart(self, tmp_path):
        async def scenario():
            cluster = LiveKVCluster(
                3, seed=11, data_dir=str(tmp_path), **FAST
            )
            await cluster.start()
            client = AsyncKVClient(cluster.cluster, request_timeout=2.0)
            expected = {}
            try:
                await cluster.wait_for_leader(20.0)
                for round_no, victim in enumerate((0, 1, 2)):
                    key = f"round-{round_no}"
                    await client.put(key, f"value-{round_no}")
                    expected[key] = f"value-{round_no}"
                    torn = round_no % 2 == 1  # alternate torn final frames
                    await cluster.kill(victim, torn=torn)
                    await cluster.wait_for_leader(20.0, exclude=(victim,))
                    # Majority still up: acked writes stay readable.
                    await _read_back(client, expected)
                    await cluster.restart(victim)
                    await cluster.wait_for_leader(20.0)
                    # The revived node recovered real state from disk.
                    server = cluster.servers[victim]
                    storage = server.shards[0].storage
                    assert storage is not None
                    assert (
                        storage.term > 0 or storage.entries
                    ), "restart skipped recovery: node came back empty"
                await _read_back(client, expected)
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_full_power_failure_preserves_acked_writes(self, tmp_path):
        async def scenario():
            cluster = LiveKVCluster(
                3, seed=13, data_dir=str(tmp_path), **FAST
            )
            await cluster.start()
            client = AsyncKVClient(cluster.cluster, request_timeout=2.0)
            expected = {}
            try:
                await cluster.wait_for_leader(20.0)
                for i in range(10):
                    await client.put(f"k{i}", f"v{i}")
                    expected[f"k{i}"] = f"v{i}"
                # Pull the plug on the whole rack at once.
                for pid in list(cluster.alive()):
                    await cluster.kill(pid)
                assert cluster.alive() == []
                for pid in range(3):
                    await cluster.restart(pid)
                await cluster.wait_for_leader(30.0)
                await _read_back(client, expected)
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestHarnessRestartIsRealRecovery:
    """Regression pin: ``LiveKVCluster.restart`` must go through disk.

    The harness used to rebuild a restarted node as a blank server that
    re-learned everything over the network — fine for availability
    testing, useless for proving durability.  With a ``data_dir`` the
    replacement must read its pre-crash Figure-2 state back before it
    says hello to anyone.
    """

    def test_restarted_node_recovers_state_not_emptiness(self, tmp_path):
        async def scenario():
            cluster = LiveKVCluster(
                3, seed=17, data_dir=str(tmp_path), **FAST
            )
            await cluster.start()
            client = AsyncKVClient(cluster.cluster, request_timeout=2.0)
            try:
                await cluster.wait_for_leader(20.0)
                for i in range(5):
                    await client.put(f"pin-{i}", str(i))
                victim = cluster.leader_pid()
                await cluster.kill(victim)

                # Inspect the victim's directory offline: its durable log
                # must already hold the acked entries.
                offline = RaftStorage(
                    os.path.join(cluster.node_data_dir(victim), "shard-0")
                )
                persisted = offline.snapshot_index + len(offline.entries)
                offline.close()
                assert persisted >= 5, "acked writes missing from the WAL"

                server = await cluster.restart(victim)
                storage = server.shards[0].storage
                assert storage is not None
                recovered = storage.snapshot_index + len(storage.entries)
                assert recovered >= 5, (
                    "restart handed the node an empty log instead of "
                    "replaying its WAL"
                )
                await cluster.wait_for_leader(20.0)
                response = await client.get("pin-0", linearizable=True)
                assert response["found"] and response["value"] == "0"
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_diskless_restart_still_comes_back_empty(self, tmp_path):
        """Contrast pin: without a data_dir the old semantics remain —
        a restarted node starts blank and relies on replication."""

        async def scenario():
            cluster = LiveKVCluster(3, seed=19, **FAST)
            await cluster.start()
            client = AsyncKVClient(cluster.cluster, request_timeout=2.0)
            try:
                await cluster.wait_for_leader(20.0)
                await client.put("k", "v")
                victim = cluster.leader_pid()
                await cluster.kill(victim)
                server = await cluster.restart(victim)
                assert server.shards[0].storage is None
                await cluster.wait_for_leader(20.0)
                response = await client.get("k", linearizable=True)
                assert response["found"] and response["value"] == "v"
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

"""The asynchronous commit pipeline: off-loop fsync behind a watermark.

On a real clock :meth:`RaftStorage.begin_sync` hands group fsync to a
dedicated thread and releases acknowledgements only when the
*durability watermark* covers the storage generation they depend on.
Under :class:`SimRuntime` the same call is a sync point kept inline by
bookkeeping: the watermark advances and no fsync syscall is made.  The
contract under test:

* a callback registered via ``notify_durable`` fires only after the WAL
  bytes its generation depends on are really on the platter — so a power
  failure after the callback can never lose the write it acknowledged;
* callbacks release strictly in registration order (wire order survives
  the asynchronous barrier);
* the deliberate ``sync_policy="none"`` lost-ack bug still loses acked
  writes behind the barrier (the chaos canary's precondition).

Every claim is proven the honest way: write, pull the power at the
interesting moment, cold-restart, compare.  Tier-1: in-process power
failures are cheap, so this runs everywhere.

Three cluster-level claims close the file: group commit amortises one
fsync over many client ops, compaction keeps one snapshot file per
group (both tier-1, virtual time), and durable nodes elect and ack in
virtual time; a wall-clock cluster with the fsync thread compacting
under load is ``storage``-marked.
"""

import asyncio
import errno
import os
import random
import threading
import time

import pytest

from repro.algorithms.raft.log import Entry
from repro.core.runtime import AsyncioRuntime, SimRuntime
from repro.live import AsyncKVClient, LiveKVCluster, run_closed_loop
from repro.storage import RaftStorage

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)


def recovered_commands(directory):
    """Cold-restart and return the recovered log's command list."""
    recovered = RaftStorage(str(directory))
    commands = [entry.command for entry in recovered.entries]
    recovered.close()
    return commands


class TestPipelinedBarrier:
    def test_acked_generation_survives_power_failure(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        for index in range(1, 6):
            storage.record_append(index, Entry(1, f"cmd-{index}"))
        storage.begin_sync()
        assert storage.wait_durable(timeout=5.0), "fsync thread stalled"
        assert storage.watermark_lag == 0
        storage.crash()
        assert recovered_commands(tmp_path) == [f"cmd-{i}" for i in range(1, 6)]

    def test_unacked_generation_may_vanish(self, tmp_path):
        """Before the watermark advances nothing was promised: a crash
        right after ``begin_sync`` legally loses the in-flight batch."""
        storage = RaftStorage(str(tmp_path))
        storage.record_append(1, Entry(1, "never-acked"))
        released = []
        storage.notify_durable(storage.generation, lambda: released.append(1))
        # Power fails with the fsync still queued: the callback must not
        # have fired, so no ack escaped and the loss is invisible.
        storage.crash()
        assert recovered_commands(tmp_path) in ([], ["never-acked"])
        storage2 = RaftStorage(str(tmp_path))
        storage2.close()

    def test_callbacks_release_in_registration_order(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        order = []
        for index in range(1, 8):
            storage.record_append(index, Entry(1, f"cmd-{index}"))
            storage.notify_durable(
                storage.generation, lambda i=index: order.append(i)
            )
            if index % 3 == 0:
                storage.begin_sync()
        storage.begin_sync()
        assert storage.wait_durable(timeout=5.0)
        assert order == list(range(1, 8))
        storage.close()

    def test_callback_at_durable_generation_fires_inline(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        storage.record_append(1, Entry(1, "cmd"))
        storage.begin_sync()
        assert storage.wait_durable(timeout=5.0)
        fired = []
        storage.notify_durable(storage.generation, lambda: fired.append(1))
        assert fired == [1], "already-durable generation must not queue"
        storage.close()

    def test_sim_runtime_barrier_completes_before_begin_sync_returns(
        self, tmp_path
    ):
        rt = SimRuntime()
        try:
            storage = RaftStorage(str(tmp_path), runtime=rt)
            storage.record_append(1, Entry(1, "cmd"))
            fired = []
            storage.begin_sync()
            assert storage.watermark_lag == 0
            storage.notify_durable(storage.generation, lambda: fired.append(1))
            assert fired == [1]
            assert storage.fsync_queue_depth == 0
            storage.close()
        finally:
            rt.close()

    def test_fsyncs_run_off_the_caller_and_overlap_across_shards(
        self, tmp_path, monkeypatch
    ):
        """With every fsync parked on an event: ``begin_sync`` still
        returns, two shards' fsyncs are in flight at once, and no
        ``notify_durable`` callback fires before the event is set."""
        release = threading.Event()
        lock = threading.Lock()
        inflight = [0, 0]  # now, peak

        def fsync(fd):
            with lock:
                inflight[0] += 1
                inflight[1] = max(inflight)
            release.wait(5.0)
            with lock:
                inflight[0] -= 1

        # Construction checkpoints with an inline fsync: open them first.
        shards = [RaftStorage(str(tmp_path / f"shard-{s}")) for s in range(2)]
        monkeypatch.setattr(os, "fsync", fsync)
        fired = []
        for shard_id, storage in enumerate(shards):
            storage.record_append(1, Entry(1, f"cmd-{shard_id}"))
            storage.notify_durable(
                storage.generation, lambda s=shard_id: fired.append(s)
            )
            storage.begin_sync()
        deadline = time.monotonic() + 5.0
        while inflight[1] < 2:
            assert time.monotonic() < deadline, f"peak in flight {inflight[1]}"
            time.sleep(0.001)
        for storage in shards:
            storage.wait_durable(timeout=0.02)
        assert fired == [], "a callback fired before its fsync returned"
        assert [s.fsync_queue_depth for s in shards] == [1, 1]
        release.set()
        for storage in shards:
            assert storage.wait_durable(timeout=5.0), "fsync thread stalled"
        assert sorted(fired) == [0, 1]
        for storage in shards:
            storage.close()

    def test_failed_fsync_fails_closed(self, tmp_path, monkeypatch):
        """EIO on one barrier: after it the kernel may have dropped the
        dirty pages, so a later successful barrier — or a clean close —
        must not release the failed generation's acks, and the queue
        depth must still drain."""
        real_fsync = os.fsync
        calls = []

        def fsync(fd):
            calls.append(fd)
            if len(calls) == 1:
                raise OSError(errno.EIO, "injected EIO")
            real_fsync(fd)

        storage = RaftStorage(str(tmp_path))
        monkeypatch.setattr(os, "fsync", fsync)
        released = []
        storage.record_append(1, Entry(1, "a"))
        storage.notify_durable(storage.generation, lambda: released.append("a"))
        storage.begin_sync()
        deadline = time.monotonic() + 5.0
        while not calls:
            assert time.monotonic() < deadline, "fsync thread stalled"
            time.sleep(0.001)
        storage.record_append(2, Entry(1, "b"))
        storage.notify_durable(storage.generation, lambda: released.append("b"))
        storage.begin_sync()
        while storage.fsync_queue_depth:
            assert time.monotonic() < deadline, "queue depth leaked"
            storage.wait_durable(timeout=0.01)
        assert len(calls) == 2
        assert released == [] and storage.durable_generation == 0
        storage.close()
        assert released == [] and storage.durable_generation == 0


class TestNeverAckUnsynced:
    """Seeded property: no interleaving of appends, barriers and a power
    failure ever releases an acknowledgement for state that recovery then
    fails to produce."""

    @pytest.mark.parametrize("seed", range(25))
    def test_crash_never_loses_an_acked_write(self, tmp_path, seed):
        rng = random.Random(seed)
        storage = RaftStorage(str(tmp_path))
        acked = []

        def ack(upto):
            def _fire():
                acked.append(upto)
            return _fire

        index = 0
        for _ in range(rng.randint(3, 30)):
            roll = rng.random()
            if roll < 0.55 or index == 0:
                index += 1
                storage.record_append(index, Entry(1, f"cmd-{index}"))
                storage.notify_durable(storage.generation, ack(index))
            elif roll < 0.85:
                storage.begin_sync()
            else:
                # Give the fsync thread a chance to complete some jobs so
                # the crash point lands between watermark advances.  A
                # timeout is fine — un-begun generations never complete.
                storage.wait_durable(timeout=0.05)
        storage.crash(torn=bool(seed % 2))

        commands = recovered_commands(tmp_path)
        # Every acked prefix must be present in full after recovery.
        promised = max(acked, default=0)
        assert len(commands) >= promised, (
            f"seed {seed}: acked through index {promised} but recovery "
            f"produced only {commands}"
        )
        for i in range(promised):
            assert commands[i] == f"cmd-{i + 1}"


class TestLostAckPrecondition:
    def test_skipped_fsync_still_acks_and_loses(self, tmp_path):
        """The chaos canary's precondition: under ``sync_policy="none"``
        the watermark advances WITHOUT an fsync, the ack
        escapes, and the power failure forgets the write."""
        storage = RaftStorage(str(tmp_path), sync_policy="none")
        storage.record_append(1, Entry(1, "doomed"))
        fired = []
        storage.begin_sync()
        storage.notify_durable(storage.generation, lambda: fired.append(1))
        assert fired == [1], "the bug must still hand out the ack"
        storage.crash()
        assert recovered_commands(tmp_path) == [], (
            "sync_policy='none' must lose the acked write — otherwise the "
            "lost-ack canary can no longer prove the barrier matters"
        )


def _wal_syncs(cluster):
    """Cluster-wide fsync count across every live node's shards."""
    return sum(
        shard.storage.stats.syncs
        for server in cluster.servers
        if server is not None
        for shard in server.shards
    )


class TestSyncPoint:
    """Every sync goes through the runtime's sync point
    (``Runtime.fsync``): real, counted ``os.fsync`` calls on the wall
    clock; none at all on :class:`SimRuntime`, where durability is
    bookkeeping and the power-failure model still holds."""

    def test_simulated_cluster_makes_no_fsync_and_keeps_acked_puts(
        self, tmp_path, monkeypatch
    ):
        calls = []

        def no_fsync(fd):
            calls.append(fd)
            raise AssertionError("a simulated disk made an fsync syscall")

        monkeypatch.setattr(os, "fsync", no_fsync)

        async def scenario():
            cluster = LiveKVCluster(3, seed=7, data_dir=str(tmp_path), **FAST)
            await cluster.start()
            client = AsyncKVClient(cluster.cluster)
            try:
                await cluster.wait_for_leader(timeout=20.0)
                acked = {}
                for i in range(10):
                    await client.put(f"k{i}", i)
                    acked[f"k{i}"] = i
                syncs = _wal_syncs(cluster)
                for pid in cluster.alive():
                    await cluster.kill(pid)
                for pid in range(3):
                    await cluster.restart(pid)
                await cluster.wait_for_leader(timeout=20.0)
                read = {
                    key: (await client.get(key, linearizable=True))["value"]
                    for key in acked
                }
                return acked, syncs, read
            finally:
                await client.close()
                await cluster.stop()

        rt = SimRuntime()
        try:
            acked, syncs, read = rt.run(scenario(), timeout=120.0)
        finally:
            rt.close()
        assert calls == []
        assert syncs > 0
        assert read == acked

    def test_wall_clock_storage_makes_real_fsyncs(self, tmp_path, monkeypatch):
        """Counted per step: the opening checkpoint (segment + two
        directory syncs), a threaded barrier, a compaction (snapshot file
        and directory, then a checkpoint) and a rotation."""
        real_fsync = os.fsync
        calls = []

        def counting(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        storage = RaftStorage(
            str(tmp_path), segment_bytes=512, runtime=AsyncioRuntime()
        )
        steps = [len(calls)]
        storage.record_append(1, Entry(1, "a"))
        storage.begin_sync()
        assert storage.wait_durable(timeout=5.0), "fsync thread stalled"
        steps.append(len(calls))
        storage.record_compact(1, 1, ({"a": 1}, 1), [])
        steps.append(len(calls))
        rotations = storage.stats.rotations
        for index in range(2, 40):
            storage.record_append(index, Entry(1, "x" * 32))
        storage.begin_sync()
        assert storage.stats.rotations == rotations + 1
        steps.append(len(calls))
        storage.close()
        assert [b - a for a, b in zip([0] + steps, steps)] == [3, 1, 5, 3]
        assert storage.stats.syncs >= 4


class TestGroupCommit:
    def test_one_fsync_covers_many_ops(self, tmp_path):
        """A batch of concurrent puts is one WAL record, hence one fsync
        per node: 400 ops from 8 clients need far fewer than 400 fsyncs
        on each of the 3 nodes."""

        async def scenario():
            cluster = LiveKVCluster(3, seed=16, data_dir=str(tmp_path), **FAST)
            await cluster.start()
            try:
                await cluster.wait_for_leader(timeout=20.0)
                before = _wal_syncs(cluster)
                report = await run_closed_loop(
                    cluster.cluster, ops=400, concurrency=8, seed=16
                )
                return report, _wal_syncs(cluster) - before
            finally:
                await cluster.stop()

        rt = SimRuntime()
        try:
            report, syncs = rt.run(scenario(), timeout=120.0)
        finally:
            rt.close()
        assert (report.ops, report.errors) == (400, 0), report.summary()
        lat = report.latency
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert report.throughput == pytest.approx(1951.2, abs=0.1)
        assert syncs == 153
        assert report.ops / (syncs / 3) > 1.0


class TestCompactionOnTheLiveStack:
    def test_each_shard_keeps_one_full_snapshot(self, tmp_path):
        """Compaction on the real stack leaves exactly one ``snap-`` image
        per group, and a restarted follower rebuilt from it (plus its
        WAL and catch-up) holds the leader's data."""

        async def scenario():
            cluster = LiveKVCluster(
                3, seed=16, data_dir=str(tmp_path), snapshot_threshold=16, **FAST
            )
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                report = await run_closed_loop(
                    cluster.cluster, ops=400, concurrency=1, key_space=7, seed=16
                )
                compactions = [
                    server.shards[0].storage.compactions for server in cluster.servers
                ]
                listings = {
                    f"{node}/{shard}": sorted(
                        name for name in os.listdir(tmp_path / node / shard)
                        if name.startswith("snap")
                    )
                    for node in os.listdir(tmp_path)
                    for shard in os.listdir(tmp_path / node)
                }
                follower = (leader + 1) % 3
                await cluster.kill(follower)
                revived = await cluster.restart(follower)
                recovered = revived.shards[0].storage.snapshot_index
                want = cluster.servers[leader].node.machine.data
                deadline = cluster.rt.now() + 5.0
                while revived.node.machine.data != want:
                    assert cluster.rt.now() < deadline, "follower never caught up"
                    await cluster.rt.sleep(0.05)
                return report, compactions, listings, recovered
            finally:
                await cluster.stop()

        rt = SimRuntime()
        try:
            report, compactions, listings, recovered = rt.run(
                scenario(), timeout=120.0
            )
        finally:
            rt.close()
        assert (report.ops, report.errors) == (400, 0), report.summary()
        # One put per entry: every node compacts about 400 / 16 times.
        assert min(compactions) > 20, compactions
        assert sorted(listings) == [f"node-{pid}/shard-0" for pid in range(3)]
        for path, names in listings.items():
            assert len(names) == 1, (path, names)
            assert names[0].startswith("snap-") and names[0].endswith(".bin")
        assert recovered > 0, "the restarted follower recovered no snapshot"


class TestVirtualTimeDurableCluster:
    def test_durable_nodes_elect_and_ack_without_fsync_threads(self, tmp_path):
        """Durable nodes on :class:`SimRuntime` elect a leader and ack
        puts, and the barrier never leaves the loop thread: no fsync
        worker is started, so the schedule stays deterministic."""

        async def scenario():
            cluster = LiveKVCluster(3, seed=7, data_dir=str(tmp_path), **FAST)
            await cluster.start()
            client = AsyncKVClient(cluster.cluster)
            try:
                await cluster.wait_for_leader(timeout=20.0)
                indices = [await client.put(f"k{i}", i) for i in range(10)]
                workers = [
                    thread.name for thread in threading.enumerate()
                    if thread.name.startswith("wal-fsync")
                ]
                depths = [
                    server.pipeline_status()["fsync_queue_depth"]
                    for server in cluster.servers
                ]
                return indices, workers, depths
            finally:
                await client.close()
                await cluster.stop()

        rt = SimRuntime()
        try:
            indices, workers, depths = rt.run(scenario(), timeout=120.0)
        finally:
            rt.close()
        assert indices == sorted(set(indices)) and len(indices) == 10
        assert workers == [] and depths == [0, 0, 0]


@pytest.mark.storage
class TestWallClockCluster:
    """3 nodes x 4 shards, 8 closed-loop clients, on a real clock: the
    fsync worker threads carry a compacting cluster under load."""

    def test_snapshot_run_compacts(self, tmp_path):
        async def scenario():
            cluster = LiveKVCluster(
                3, seed=19, shards=4, data_dir=str(tmp_path),
                snapshot_threshold=32, **FAST,
            )
            await cluster.start()
            try:
                await cluster.wait_for_all_leaders(20.0)
                report = await run_closed_loop(
                    cluster.cluster, ops=400, concurrency=8, seed=19, shards=4
                )
                compactions = sum(
                    server.pipeline_status()["compactions"]
                    for server in cluster.servers
                    if server is not None
                )
                return report, compactions
            finally:
                await cluster.stop()

        report, compactions = asyncio.run(asyncio.wait_for(scenario(), 300.0))
        assert report.errors == 0, report.summary()
        assert compactions > 0

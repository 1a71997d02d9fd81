"""One conformance harness, every consensus engine.

The engine seam (:mod:`repro.live.engine`) promises that ``raft``,
``paxos`` and ``ct`` are interchangeable behind the node contract the KV
layer consumes.  This suite is that promise, executable: every scenario
— election, commit, duplicate proposals, follower redirect, crash +
restart from a data directory — runs identically against all three
backends via ``pytest.mark.parametrize``.  A new engine earns its place
in :data:`repro.live.engine.ENGINES` by passing this file unmodified.
"""

import asyncio
import itertools

import pytest

from repro.algorithms.raft.messages import ClientPropose
from repro.algorithms.readpath import ReadBarrier
from repro.core.runtime import SimRuntime
from repro.live import (
    ENGINES,
    AsyncKVClient,
    EngineError,
    LiveKVCluster,
    get_engine,
    parse_engine_spec,
)
from repro.live.kv import KvBatch
from repro.sim import trace as tr

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)

ENGINE_NAMES = sorted(ENGINES)  # ct, paxos, raft


def run(coro, timeout=120.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def sim_run(coro, timeout=120.0):
    """Run ``coro`` in virtual time (0.5 ms per hop, see test_flush_policy)."""
    rt = SimRuntime()
    try:
        return rt.run(coro, timeout=timeout)
    finally:
        rt.close()


async def _get_via(cluster, pid, key):
    probe = AsyncKVClient(cluster.cluster)
    probe._target = cluster.cluster[pid].client_addr
    try:
        return await probe.get(key)
    finally:
        await probe.close()


class TestEngineRegistry:
    def test_wire_families_are_pairwise_disjoint(self):
        # Self-describing frames rely on no message class being claimed
        # by two engines.
        for a, b in itertools.combinations(ENGINE_NAMES, 2):
            overlap = ENGINES[a].wire_classes & ENGINES[b].wire_classes
            assert not overlap, (a, b, overlap)

    def test_accepts_matches_wire_family(self):
        raft, paxos = get_engine("raft"), get_engine("paxos")
        sample = next(iter(paxos.wire_classes))
        assert not raft.accepts(sample.__new__(sample))
        assert paxos.accepts(sample.__new__(sample))

    def test_parse_spec_single_name_covers_all_shards(self):
        engines = parse_engine_spec("ct", 3)
        assert [e.name for e in engines] == ["ct", "ct", "ct"]

    def test_parse_spec_per_shard_list(self):
        engines = parse_engine_spec("raft,ct", 2)
        assert [e.name for e in engines] == ["raft", "ct"]

    def test_parse_spec_errors(self):
        with pytest.raises(EngineError):
            parse_engine_spec("raft,ct", 3)  # count mismatch
        with pytest.raises(EngineError):
            parse_engine_spec("zab", 1)  # unknown engine
        with pytest.raises(EngineError):
            parse_engine_spec("", 1)  # empty
        # An empty entry is an error, not silently dropped.
        for spec, shards in ((",ct", 2), ("raft,", 2), ("raft,,ct", 2),
                             ("raft,,ct", 3)):
            with pytest.raises(EngineError, match="empty entry"):
                parse_engine_spec(spec, shards)

    def test_registry_order_is_fixed(self):
        # generate_live_scenarios picks schedule i's engine as
        # engines[i % len(engines)], so every recorded sweep digest
        # depends on this order.
        assert list(ENGINES) == ["raft", "paxos", "ct"]


@pytest.mark.parametrize("engine", ENGINE_NAMES)
class TestEngineConformance:
    def test_elects_single_leader_and_commits(self, engine):
        async def scenario():
            cluster = LiveKVCluster(3, seed=31, engine=engine, **FAST)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                believers = [
                    s.pid for s in cluster.servers if s.shards[0].is_leader
                ]
                assert believers == [leader]
                client = AsyncKVClient(cluster.cluster)
                index = await client.put("alpha", "beta")
                assert index >= 1
                response = await client.get("alpha")
                assert response["found"] and response["value"] == "beta"
                lin = await client.get("alpha", linearizable=True)
                assert lin["found"] and lin["value"] == "beta"
                status = await client.status()
                assert status["engine"] == engine
                assert status["commit_index"] >= index
                await client.close()
            finally:
                await cluster.stop()

        run(scenario())

    def test_duplicate_proposal_applies_once(self, engine):
        async def scenario():
            cluster = LiveKVCluster(3, seed=32, engine=engine, **FAST)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                shard = cluster.servers[leader].shards[0]
                batch = KvBatch((), batch_id=("dup-test", 0))
                proposal = ClientPropose(batch.batch_id, batch)
                shard.runtime.inject(proposal)
                shard.runtime.inject(proposal)  # client retry, same id
                client = AsyncKVClient(cluster.cluster)
                await client.put("after-dup", 1)  # forces commit progress
                await client.close()
                applied = [
                    detail
                    for pid, _t, detail in cluster.merged_trace().annotations(
                        "applied"
                    )
                    if pid == leader
                    and getattr(detail[2], "batch_id", None) == batch.batch_id
                ]
                assert len(applied) == 1, applied
            finally:
                await cluster.stop()

        run(scenario())

    def test_follower_redirects_to_leader(self, engine):
        async def scenario():
            cluster = LiveKVCluster(3, seed=33, engine=engine, **FAST)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                follower = next(pid for pid in range(3) if pid != leader)
                client = AsyncKVClient(cluster.cluster)
                client._target = cluster.cluster[follower].client_addr
                index = await client.put("via-follower", "ok")
                assert index >= 1
                status = await client.status()
                assert status["pid"] == leader
                await client.close()
            finally:
                await cluster.stop()

        run(scenario())

    def test_leader_crash_keeps_acked_writes(self, engine):
        async def scenario():
            cluster = LiveKVCluster(3, seed=34, engine=engine, **FAST)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                client = AsyncKVClient(cluster.cluster)
                acked = {}
                for i in range(20):
                    key = f"k{i % 5}"
                    await client.put(key, f"v{i}")
                    acked[key] = f"v{i}"
                await cluster.kill(leader)
                new_leader = await cluster.wait_for_leader(
                    timeout=30.0, exclude=(leader,)
                )
                assert new_leader != leader
                for key, value in acked.items():
                    response = await _get_via(cluster, new_leader, key)
                    assert response["found"] and response["value"] == value
                await client.close()
            finally:
                await cluster.stop()

        run(scenario())

    def test_crash_restart_recovers_from_data_dir(self, engine, tmp_path):
        async def scenario():
            cluster = LiveKVCluster(
                3, seed=35, engine=engine, data_dir=str(tmp_path), **FAST
            )
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                client = AsyncKVClient(cluster.cluster)
                for i in range(10):
                    await client.put(f"d{i}", i)
                await cluster.kill(leader)
                await cluster.wait_for_leader(timeout=30.0, exclude=(leader,))
                await client.put("post-crash", "yes")
                restarted = await cluster.restart(leader)
                # The replacement recovered its durable epoch from disk
                # (non-zero before any new leadership contact is needed).
                assert restarted.shards[0].node.current_term > 0
                deadline = asyncio.get_event_loop().time() + 20.0
                target = max(
                    s.shards[0].node.last_applied
                    for s in cluster.servers
                    if s is not None and s.pid != leader
                )
                while asyncio.get_event_loop().time() < deadline:
                    if restarted.shards[0].node.last_applied >= target:
                        break
                    await asyncio.sleep(0.05)
                assert restarted.shards[0].node.last_applied >= target
                response = await _get_via(cluster, leader, "d7")
                assert response["found"] and response["value"] == 7
                await client.close()
            finally:
                await cluster.stop()

        run(scenario())


@pytest.mark.parametrize("engine", ENGINE_NAMES)
class TestReadTierConformance:
    """The fast read tiers are part of the node contract: every engine
    must confirm ReadIndex barriers, honour leases, and prove freshness.
    Each case runs in virtual time, so its deadlines are exact."""

    def test_readindex_serves_without_log_growth(self, engine):
        async def scenario():
            cluster = LiveKVCluster(
                3, seed=41, engine=engine, read_tier="readindex", **FAST
            )
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                client = AsyncKVClient(cluster.cluster)
                await client.put("ri", "v1")
                await client.close()
                server = cluster.servers[leader]
                shard = server.shards[0]
                before_log = shard.node.log.last_index
                before_rounds = shard._ri_counter
                responses = await asyncio.gather(*(
                    server._serve(
                        {"type": "get", "key": "ri", "lin": True,
                         "id": f"r{i}", "tier": "readindex"}
                    )
                    for i in range(6)
                ))
                for response in responses:
                    assert response["type"] == "value", response
                    assert response["value"] == "v1"
                    assert response.get("read") == "readindex"
                # The batch shared barriers (first read opens one, the
                # rest join the next) and wrote nothing to the log.
                assert shard._ri_counter - before_rounds <= 2
                assert shard.node.log.last_index == before_log
            finally:
                await cluster.stop()
            # The confirmations rode the engine's own appends: no frame
            # outside its wire family was ever sent.
            family = get_engine(engine).wire_classes
            sent = {
                type(event.detail.payload)
                for event in cluster.merged_trace().events
                if event.kind == tr.SEND
            }
            assert sent and sent <= family, sent - family

        sim_run(scenario())

    def test_lease_reads_refuse_after_expiry(self, engine):
        async def scenario():
            cluster = LiveKVCluster(
                3, seed=42, engine=engine, read_tier="lease", **FAST
            )
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                client = AsyncKVClient(cluster.cluster)
                await client.put("lease-key", "v1")
                await client.close()
                server = cluster.servers[leader]
                shard = server.shards[0]
                # Renewal barriers establish the lease within a heartbeat
                # or two; a lease read then touches no peer.
                deadline = asyncio.get_event_loop().time() + 5.0
                while not shard.lease_serveable():
                    assert asyncio.get_event_loop().time() < deadline
                    await asyncio.sleep(0.02)
                response = await server._serve(
                    {"type": "get", "key": "lease-key", "lin": True,
                     "id": "l1", "tier": "lease"}
                )
                assert response["type"] == "value" and response["value"] == "v1"
                assert response.get("read") == "lease"
                # Kill the followers: renewals can no longer complete, so
                # the lease must lapse within its window (plus drift) even
                # though the leader still *believes* it leads.
                for pid in range(3):
                    if pid != leader:
                        await cluster.kill(pid)
                await asyncio.sleep(
                    server.lease_duration + server.drift_bound + 0.2
                )
                assert not shard.lease_serveable()
                server.commit_timeout = 0.5  # keep the refusal quick
                refused = await server._serve(
                    {"type": "get", "key": "lease-key", "lin": True,
                     "id": "l2", "tier": "lease"}
                )
                # Without a quorum the fallback ReadIndex barrier cannot
                # be confirmed either: the read times out instead of serving
                # possibly-stale state.
                assert refused["type"] == "error", refused
            finally:
                await cluster.stop()

        sim_run(scenario())

    def test_lease_renews_from_replication_acks_under_writes(self, engine):
        """The lease piggyback is the shared core's: under steady writes
        every engine's leader extends its lease from the append acks it
        collects anyway, and the renewal loop injects no barrier."""

        async def scenario():
            # A long lease (the election-timeout floor) keeps the
            # fallback threshold far from scheduling noise.
            cluster = LiveKVCluster(
                3, seed=44, engine=engine, read_tier="lease",
                election_timeout=(0.6, 1.2), heartbeat_interval=0.05,
            )
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                client = AsyncKVClient(cluster.cluster)
                await client.put("piggy", 0)
                server = cluster.servers[leader]
                shard = server.shards[0]
                rounds = shard._ri_counter
                loop = asyncio.get_event_loop()
                deadline = loop.time() + server.lease_duration
                writes = 0
                while loop.time() < deadline:
                    writes += 1
                    await client.put("piggy", writes)
                await client.close()
                assert shard.is_leader
                assert shard._ri_counter == rounds, "a renewal barrier ran"
                assert shard.lease_remaining() > server.lease_duration * 0.5
                response = await server._serve(
                    {"type": "get", "key": "piggy", "lin": True,
                     "id": "p1", "tier": "lease"}
                )
                assert response["value"] == writes
                assert response.get("read") == "lease"
            finally:
                await cluster.stop()

        sim_run(scenario())

    def test_follower_reads_respect_staleness_bound(self, engine):
        async def scenario():
            cluster = LiveKVCluster(
                3, seed=43, engine=engine, read_tier="follower", **FAST
            )
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                client = AsyncKVClient(cluster.cluster)
                await client.put("f-key", "v1")
                follower = next(pid for pid in range(3) if pid != leader)
                server = cluster.servers[follower]
                # Freshness proofs ride the renewal barriers: the
                # follower becomes serveable within a heartbeat or two.
                deadline = asyncio.get_event_loop().time() + 5.0
                while server.shards[0].staleness() > 0.5:
                    assert asyncio.get_event_loop().time() < deadline
                    await asyncio.sleep(0.02)
                response = await server._serve(
                    {"type": "get", "key": "f-key", "staleness": 5.0}
                )
                assert response["type"] == "value" and response["value"] == "v1"
                assert response.get("read") == "follower"
                assert 0.0 <= response["staleness"] <= 0.5
                # An unmeetable bound is refused, not silently stretched.
                refused = await server._serve(
                    {"type": "get", "key": "f-key", "staleness": 1e-9}
                )
                assert refused["type"] == "error", refused
                assert refused["reason"] == "stale"
                # The client-side fan-out finds a serveable replica.
                fanned = await client.get("f-key", staleness=5.0)
                assert fanned["found"] and fanned["value"] == "v1"
                assert fanned.get("read") == "follower"
                await client.close()
            finally:
                await cluster.stop()

        sim_run(scenario())

    def test_partitioned_follower_goes_stale_while_the_majority_serves(
        self, engine
    ):
        """Five nodes: the leader and one follower are cut off from the
        other three.  The cut-off leader can no longer confirm a barrier,
        so its follower's staleness passes the bound and it refuses
        bounded-stale reads, while the majority elects a leader and
        serves, bounded-stale reads included."""

        async def scenario():
            cluster = LiveKVCluster(
                5, seed=45, engine=engine, read_tier="follower", **FAST
            )
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                client = AsyncKVClient(cluster.cluster)
                await client.put("p-key", "v1")
                await client.close()
                cohort = next(pid for pid in range(5) if pid != leader)
                stale = cluster.servers[cohort]
                bound = stale.staleness_bound
                loop = asyncio.get_event_loop()
                deadline = loop.time() + 5.0
                while stale.shards[0].staleness() > bound / 2:
                    assert loop.time() < deadline
                    await asyncio.sleep(0.02)
                minority = {leader, cohort}
                for server in cluster.servers:
                    others = (
                        set(range(5)) - minority
                        if server.pid in minority else minority
                    )
                    for peer in others:
                        server.transport.set_link_fault(peer, blackhole=True)
                new_leader = await cluster.wait_for_leader(
                    timeout=20.0, exclude=minority
                )
                majority = [
                    pid for pid in range(5)
                    if pid not in minority and pid != new_leader
                ]
                writer = AsyncKVClient(cluster.cluster)
                writer._target = cluster.cluster[new_leader].client_addr
                await writer.put("p-key", "v2")
                await writer.close()
                await asyncio.sleep(bound + 0.1)
                assert stale.shards[0].staleness() > bound
                refused = await stale._serve(
                    {"type": "get", "key": "p-key", "staleness": bound}
                )
                assert refused["type"] == "error", refused
                assert refused["reason"] == "stale"
                # The deposed leader cannot vouch for itself either.
                deposed = await cluster.servers[leader]._serve(
                    {"type": "get", "key": "p-key", "staleness": bound}
                )
                assert deposed["type"] == "error", deposed
                served = await cluster.servers[majority[0]]._serve(
                    {"type": "get", "key": "p-key", "staleness": bound}
                )
                assert served["type"] == "value", served
                assert served["value"] == "v2"
                assert served["staleness"] <= bound
            finally:
                for server in cluster.servers:
                    server.transport.heal_link()
                await cluster.stop()

        sim_run(scenario())


class TestWireIsolation:
    def test_foreign_frames_are_counted_and_dropped(self):
        async def scenario():
            cluster = LiveKVCluster(3, seed=36, engine="raft", **FAST)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                runtime = cluster.servers[leader].shards[0].runtime
                foreign = get_engine("paxos")
                sample_cls = next(iter(foreign.wire_classes))
                frame = sample_cls.__new__(sample_cls)
                before = runtime.foreign_frames
                runtime._on_peer_message(1, frame, None)
                runtime._on_peer_message(1, frame, None)
                assert runtime.foreign_frames == before + 2
                client = AsyncKVClient(cluster.cluster)
                status = await client.status()
                assert status["groups"][0]["foreign_frames"] >= 2
                # The cluster shrugged it off: still serving.
                await client.put("still-alive", 1)
                await client.close()
            finally:
                await cluster.stop()

        run(scenario())

    def test_peer_sent_read_barrier_is_foreign(self):
        # A barrier is a local request: a peer that sends one must not be
        # able to make a leader run confirmations.
        for engine in ENGINES.values():
            assert not engine.accepts(ReadBarrier(("peer", 1)))

        async def scenario():
            cluster = LiveKVCluster(3, seed=38, engine="raft", **FAST)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                shard = cluster.servers[leader].shards[0]
                before = shard.runtime.foreign_frames
                shard.runtime._on_peer_message(1, ReadBarrier(("peer", 1)), None)
                assert shard.runtime.foreign_frames == before + 1
                await asyncio.sleep(0.1)
                ready = [
                    detail
                    for _pid, _t, detail in cluster.merged_trace().annotations(
                        "read_ready"
                    )
                ]
                assert ready == []
            finally:
                await cluster.stop()

        sim_run(scenario())

    def test_mixed_per_shard_engines_serve(self):
        async def scenario():
            cluster = LiveKVCluster(
                3, seed=37, shards=2, engine="raft,ct", **FAST
            )
            await cluster.start()
            try:
                await cluster.wait_for_all_leaders(timeout=30.0)
                client = AsyncKVClient(cluster.cluster, shards=2)
                for i in range(12):
                    await client.put(f"mix{i}", i)
                for i in range(12):
                    response = await client.get(f"mix{i}")
                    assert response["found"] and response["value"] == i
                status = await client.status()
                engines = {g["shard"]: g["engine"] for g in status["groups"]}
                assert engines == {0: "raft", 1: "ct"}
                await client.close()
            finally:
                await cluster.stop()

        run(scenario())


class TestStalenessBound:
    def test_bound_must_be_a_finite_non_negative_number(self):
        # ``min(nan, cap)`` is nan and ``staleness > nan`` is false, so a
        # nan bound once served any replica, proven fresh or not.
        async def scenario():
            cluster = LiveKVCluster(3, seed=39, **FAST)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout=20.0)
                client = AsyncKVClient(cluster.cluster)
                await client.put("b-key", "v1")
                await client.close()
                # A safe-tier follower is never proven fresh.
                follower = cluster.servers[(leader + 1) % 3]
                stale = await follower._serve(
                    {"type": "get", "key": "b-key", "staleness": 5.0}
                )
                assert stale["reason"] == "stale", stale
                for bound in ("nan", float("nan"), float("inf"), -1.0, "soon"):
                    refused = await follower._serve(
                        {"type": "get", "key": "b-key", "staleness": bound}
                    )
                    assert refused["type"] == "error", (bound, refused)
                    assert refused["reason"] != "stale", (bound, refused)
            finally:
                await cluster.stop()

        sim_run(scenario())

"""The write path's self-clocked flush policy, pinned in virtual time.

A shard leader holds client ops and proposes them as one batch when
(a) the batch is full and the pipeline has room, or (b) nothing is
uncommitted and the clients the last commit released are back.  An idle
pipeline waits for those clients at most ``IDLE_WAIT_ROUNDS`` measured
rounds, a partial batch waits until ``FLUSH_INTERVAL`` has passed since
the previous proposal, and a backstop timer (``BATCH_WINDOW``) proposes
whatever is held.  Every case runs on
:class:`~repro.core.runtime.SimRuntime` — 0.5 ms per hop, so a
replication round is 1 ms and a put 2 ms end to end — which makes the
timing assertions exact instead of flaky.  The interval is longer than a
simulated round, so the cases that pin the release and idle-wait rules
(``no_interval``) set it to zero; the others run the shipped value.
"""

import asyncio
import random
import statistics

import pytest

from repro.core.runtime import SimRuntime
from repro.live import AsyncKVClient, LiveKVCluster, kv
from repro.live.kv import BATCH_WINDOW, FLUSH_INTERVAL, IDLE_WAIT_ROUNDS

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)
HOP = 0.0005  # SimRuntime's one-way link latency
ROUND = 2 * HOP  # propose → append at a follower → ack


@pytest.fixture
def no_interval(monkeypatch):
    monkeypatch.setattr(kv, "FLUSH_INTERVAL", 0.0)


def sim_run(coro, timeout=120.0):
    rt = SimRuntime()
    try:
        return rt.run(coro, timeout=timeout)
    finally:
        rt.close()


async def booted(**options):
    """A 3-node cluster and its leader's shard, the barrier committed."""
    cluster = LiveKVCluster(3, seed=21, **FAST, **options)
    await cluster.start()
    leader = await cluster.wait_for_leader(timeout=15.0)
    return cluster, cluster.servers[leader].shards[0]


async def connected(cluster, count):
    """``count`` clients that already found the leader (one lone put each,
    one after another, so nothing here is batched)."""
    clients = [AsyncKVClient(cluster.cluster) for _ in range(count)]
    for i, client in enumerate(clients):
        await client.put(f"warm-{i}", i)
    return clients


async def timed(awaitable):
    loop = asyncio.get_event_loop()
    start = loop.time()
    await awaitable
    return loop.time() - start


def counters(shard):
    return shard.flushed_batches, shard.flushed_ops


def since(shard, before):
    return shard.flushed_batches - before[0], shard.flushed_ops - before[1]


async def mid_round(client, i):
    """A put sent half a hop after the round it should miss began; its
    latency."""
    await asyncio.sleep(HOP / 2)
    return await timed(client.put(f"b{i}", i))


async def closed_loop(clients, puts, seed, think=0.001):
    """Every client puts ``puts`` times back to back, pausing a seeded
    0..``think`` seconds before each send."""
    async def one(c, client):
        rng = random.Random(seed * 1000 + c)
        for i in range(puts):
            await asyncio.sleep(rng.uniform(0.0, think))
            await client.put(f"c{c}-{i % 4}", i)

    await asyncio.gather(*(one(c, client) for c, client in enumerate(clients)))


async def close_all(cluster, clients):
    for client in clients:
        await client.close()
    await cluster.stop()


class TestFlushPolicy:
    def test_lone_put_into_idle_pipeline_commits_in_one_round(self):
        async def scenario():
            cluster, shard = await booted()
            (client,) = clients = await connected(cluster, 1)
            try:
                await asyncio.sleep(FLUSH_INTERVAL)  # a quiet shard
                before = counters(shard)
                took = await timed(client.put("k", "v"))
                assert since(shard, before) == (1, 1)
                # Two client hops and one replication round trip — no
                # batch window on top.
                assert took < 4 * HOP + 1e-4 < BATCH_WINDOW, took
            finally:
                await close_all(cluster, clients)

        sim_run(scenario())

    def test_puts_arriving_during_a_round_share_one_entry(self, no_interval):
        async def scenario():
            cluster, shard = await booted()
            clients = await connected(cluster, 4)
            first, others = clients[0], clients[1:]
            try:
                before = counters(shard)

                async def returning_client():
                    await first.put("a", 1)  # proposed alone: idle pipeline
                    await first.put("a", 2)  # back: releases the held batch

                results = await asyncio.gather(
                    returning_client(),
                    *(mid_round(c, i) for i, c in enumerate(others)),
                )
                # The three latecomers and the returning client's second
                # put form one entry, proposed without the backstop.
                assert since(shard, before) == (2, 5)
                assert max(results[1:]) < BATCH_WINDOW, results
            finally:
                await close_all(cluster, clients)

        sim_run(scenario())

    @pytest.mark.parametrize("interval", [True, False], ids=["interval", "no-interval"])
    def test_closed_loop_clients_fill_every_batch(self, interval, monkeypatch):
        if not interval:
            monkeypatch.setattr(kv, "FLUSH_INTERVAL", 0.0)

        async def scenario():
            cluster, shard = await booted()
            clients = await connected(cluster, 16)
            try:
                before = counters(shard)
                await closed_loop(clients, puts=40, seed=3)
                batches, ops = since(shard, before)
                assert ops == 16 * 40
                assert ops / batches >= 15.5, (ops, batches)
            finally:
                await close_all(cluster, clients)

        sim_run(scenario())

    def test_client_that_never_returns_costs_the_idle_wait_not_the_backstop(
        self, no_interval
    ):
        async def scenario():
            cluster, shard = await booted()
            clients = await connected(cluster, 4)
            gone, others = clients[0], clients[1:]
            try:
                before = counters(shard)
                results = await asyncio.gather(
                    gone.put("a", 1),  # its client never puts again
                    *(mid_round(c, i) for i, c in enumerate(others)),
                )
                waited = results[1:]
                assert since(shard, before) == (2, 4)
                # Sent half a hop into the lone put's round, they wait for
                # its commit, then IDLE_WAIT_ROUNDS rounds for the client
                # it released, then their own round and the reply hop.
                expected = (ROUND + HOP / 2) + IDLE_WAIT_ROUNDS * ROUND + ROUND + HOP
                assert waited == [pytest.approx(expected, abs=1e-6)] * 3
                # The target the wait left is what came back: the next
                # round needs no wait.
                before = counters(shard)
                again = await asyncio.gather(
                    *(timed(c.put(f"b{i}", -i)) for i, c in enumerate(others))
                )
                assert since(shard, before) == (1, 3)
                assert max(again) < BATCH_WINDOW, again
            finally:
                await close_all(cluster, clients)

        sim_run(scenario())

    def test_sparse_clients_wait_at_most_the_idle_bound(self, no_interval):
        # Open traffic: 32 clients that think 5-15 ms, far longer than a
        # round, so the clients a commit releases are not the next to
        # send.  Batches must not grow round over round until the
        # backstop fires; each put waits at most for the round in flight,
        # the idle wait and its own round.
        async def scenario():
            cluster, shard = await booted()
            clients = await connected(cluster, 32)
            latencies = []

            async def sparse(c, client):
                rng = random.Random(c)
                await asyncio.sleep(rng.uniform(0.0, 0.015))
                for i in range(10):
                    latencies.append(await timed(client.put(f"s{c}", i)))
                    await asyncio.sleep(rng.uniform(0.005, 0.015))

            try:
                await asyncio.gather(*(sparse(c, client) for c, client in enumerate(clients)))
                bound = 2 * HOP + ROUND + IDLE_WAIT_ROUNDS * ROUND + ROUND
                assert max(latencies) <= bound + 1e-6, max(latencies)
                assert statistics.median(latencies) < bound - ROUND
            finally:
                await close_all(cluster, clients)

        sim_run(scenario())

    def test_partial_batches_are_spaced_by_the_interval(self):
        # Two closed-loop clients are back 2 ms after each flush, before
        # the interval is up: every entry carries both, and each put takes
        # exactly the interval instead of one round plus two hops.
        async def scenario():
            cluster, shard = await booted()
            clients = await connected(cluster, 2)
            latencies = []

            async def loop(c, client):
                for i in range(20):
                    latencies.append(await timed(client.put(f"p{c}", i)))

            try:
                await asyncio.sleep(FLUSH_INTERVAL)
                before = counters(shard)
                await asyncio.gather(*(loop(c, client) for c, client in enumerate(clients)))
                batches, ops = since(shard, before)
                assert (ops, batches) == (40, 21)  # the first put is alone
                # The first put commits at once (quiet shard), its partner
                # waits out the first interval, everything after takes one.
                assert sorted(latencies)[1:-1] == [pytest.approx(FLUSH_INTERVAL, abs=1e-6)] * 38
            finally:
                await close_all(cluster, clients)

        sim_run(scenario())

    def test_full_batches_are_not_held_by_the_interval(self):
        async def scenario():
            cluster, shard = await booted(max_batch=2)
            clients = await connected(cluster, 2)
            latencies = []

            async def loop(c, client):
                for i in range(10):
                    latencies.append(await timed(client.put(f"f{c}", i)))

            try:
                await asyncio.sleep(FLUSH_INTERVAL)
                before = counters(shard)
                await asyncio.gather(*(loop(c, client) for c, client in enumerate(clients)))
                batches, ops = since(shard, before)
                assert (ops, batches) == (20, 11)
                # Full pairs go at once: a round and two hops per put.
                assert statistics.median(latencies) == pytest.approx(4 * HOP, abs=1e-6)
                assert 4 * HOP < FLUSH_INTERVAL
            finally:
                await close_all(cluster, clients)

        sim_run(scenario())

    def test_backstop_proposes_while_the_pipeline_is_busy(self):
        # Acks reach the leader 20 ms late, so its first entry stays
        # uncommitted; an op arriving meanwhile is proposed behind it at
        # the backstop instead of waiting for the commit.
        async def scenario():
            cluster, shard = await booted()
            clients = await connected(cluster, 2)
            server = cluster.servers[shard.pid]
            try:
                for peer in range(3):
                    if peer != shard.pid:
                        server.transport.set_link_fault(peer, delay=0.02, direction="in")
                await asyncio.sleep(FLUSH_INTERVAL)  # a quiet shard
                before, committed = counters(shard), shard.node.commit_index
                puts = [asyncio.ensure_future(clients[0].put("a", 1))]
                await asyncio.sleep(HOP / 2)
                puts.append(asyncio.ensure_future(clients[1].put("b", 2)))
                await asyncio.sleep(HOP + BATCH_WINDOW - HOP / 4)
                assert since(shard, before) == (1, 1)
                await asyncio.sleep(HOP / 2)
                assert since(shard, before) == (2, 2)
                assert shard.node.commit_index == committed
                await asyncio.gather(*puts)
            finally:
                server.transport.heal_link()
                await close_all(cluster, clients)

        sim_run(scenario())

    def test_new_leader_starts_without_the_old_leaders_target(self):
        # Followers apply the old leader's 16-op batches; the node that
        # takes over must not wait for 16 clients that were never its.
        async def scenario():
            cluster, shard = await booted()
            clients = await connected(cluster, 16)
            try:
                await closed_loop(clients, puts=5, seed=5)
                await cluster.kill(shard.pid)
                new = await cluster.wait_for_leader(timeout=15.0, exclude=[shard.pid])
                new_shard = cluster.servers[new].shards[0]
                # Find the new leader without a put of its own.
                await clients[0].get("warm-0", tier="readindex")
                before = counters(new_shard)
                took = await timed(clients[0].put("k", "v"))
                assert since(new_shard, before) == (1, 1)
                assert took < 4 * HOP + 1e-4, took
            finally:
                await close_all(cluster, clients)

        sim_run(scenario())

    def test_full_batches_still_pipeline_up_to_max_inflight(self):
        async def scenario():
            cluster, shard = await booted(max_batch=4, max_inflight=2)
            clients = await connected(cluster, 16)
            node = shard.node
            depths = []
            shard.runtime.trace.subscribe(
                lambda _event: depths.append(node.log.last_index - node.commit_index)
            )
            try:
                before = counters(shard)
                await closed_loop(clients, puts=10, seed=4)
                batches, ops = since(shard, before)
                assert max(depths) == 2  # pipelined, and no deeper
                assert ops / batches >= 3.5, (ops, batches)
            finally:
                await close_all(cluster, clients)

        sim_run(scenario())

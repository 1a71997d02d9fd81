"""Memory follows state, not uptime.

A node's bookkeeping must be bounded by what it has to remember — the
retained log, the pending timers — and not by how long it has run or
how many operations it has served.  Both cases run in virtual time, so
their counts are exact.
"""

import gc
import math

from repro.core.runtime import SimRuntime
from repro.live import LiveKVCluster, run_closed_loop
from repro.live.kv import TaggedPut


def sim_run(coro, timeout):
    rt = SimRuntime()
    try:
        return rt.run(coro, timeout=timeout)
    finally:
        rt.close()


def _bookkeeping(runtime):
    """Total size of every container a node runtime holds."""
    return sum(
        len(value)
        for value in vars(runtime).values()
        if isinstance(value, (dict, list, set))
    )


def test_idle_follower_timer_bookkeeping_does_not_grow():
    # Every leader contact arms a freshly named election timer.  Only the
    # timers still pending may be remembered, and at most about one per
    # heartbeat within an election timeout is.  (Five times ``serve``'s
    # defaults, so 600 idle seconds are 2 000 contacts per follower.)
    election_timeout, heartbeat = (1.5, 3.0), 0.3
    bound = 2 * math.ceil(election_timeout[1] / heartbeat)

    async def scenario():
        cluster = LiveKVCluster(
            3, election_timeout=election_timeout, heartbeat_interval=heartbeat
        )
        await cluster.start()
        try:
            leader = await cluster.wait_for_leader(timeout=20.0)
            followers = [
                server.shards[0].runtime
                for server in cluster.servers
                if server.pid != leader
            ]
            sizes = {}
            for idle_until in (60.0, 600.0):
                await cluster.rt.sleep(
                    cluster.epoch + idle_until - cluster.rt.now()
                )
                assert cluster.leader_pid() == leader
                sizes[idle_until] = [_bookkeeping(r) for r in followers]
            return sizes
        finally:
            await cluster.stop()

    sizes = sim_run(scenario(), timeout=700.0)
    for idle_until, per_follower in sizes.items():
        assert max(per_follower) <= bound, (idle_until, sizes)


def test_retained_puts_are_bounded_by_the_log_not_the_run():
    # Compaction must free what it drops: every put still alive sits in
    # some node's retained log, and a batch holds at most one put per
    # closed-loop client.
    clients, threshold, ops = 8, 64, 4000

    async def scenario():
        cluster = LiveKVCluster(3, snapshot_threshold=threshold)
        await cluster.start()
        try:
            await cluster.wait_for_leader(timeout=20.0)
            report = await run_closed_loop(
                cluster.cluster, ops=ops, concurrency=clients
            )
            assert report.errors == 0
            gc.collect()
            alive = sum(1 for o in gc.get_objects() if type(o) is TaggedPut)
            shard = cluster.servers[0].shards[0]
            retained = threshold + shard.policy.max_inflight
            return alive, 3 * retained * clients
        finally:
            await cluster.stop()

    alive, bound = sim_run(scenario(), timeout=600.0)
    assert alive <= bound < ops, (alive, bound)

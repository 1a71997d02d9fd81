"""Replication cost on the wire stays linear as the pipeline deepens.

Delta replication's observable guarantee at the transport level: the
leader ships each committed entry roughly once, so the peer-link bytes
per committed entry must be about the same at ``max_inflight=16`` as at
``max_inflight=2``.  Before the per-follower cursors, every AppendEntries
resent the whole unacknowledged suffix — bytes per entry then grow
roughly linearly with the pipeline depth, which is exactly what this
test rejects.  Both runs are in virtual time, so the byte counts are exact.
"""

import pytest

from repro.core.runtime import SimRuntime
from repro.live import LiveKVCluster, run_closed_loop

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)


def sim_run(coro, timeout=120.0):
    rt = SimRuntime()
    try:
        return rt.run(coro, timeout=timeout)
    finally:
        rt.close()


def _totals(cluster):
    bytes_sent = sum(
        server.runtime.transport.stats.bytes_sent
        for server in cluster.servers
        if server is not None
    )
    commit = max(
        server.node.commit_index
        for server in cluster.servers
        if server is not None
    )
    return bytes_sent, commit


async def _replicated(max_inflight, *, seed):
    cluster = LiveKVCluster(3, seed=seed, max_inflight=max_inflight, **FAST)
    await cluster.start()
    try:
        await cluster.wait_for_leader(timeout=15.0)
        bytes_before, commit_before = _totals(cluster)
        report = await run_closed_loop(
            cluster.cluster, ops=120, concurrency=16, value_size=64, seed=seed
        )
        bytes_after, commit_after = _totals(cluster)
    finally:
        await cluster.stop()
    assert report.errors == 0, report.summary()
    return bytes_after - bytes_before, commit_after - commit_before


class TestReplicationBytesLinear:
    def test_bytes_per_entry_flat_across_pipeline_depths(self):
        shallow_bytes, shallow_entries = sim_run(_replicated(2, seed=21))
        deep_bytes, deep_entries = sim_run(_replicated(16, seed=22))
        # 120 puts from 16 clients batch into nine entries either way.
        assert shallow_entries == deep_entries == 9
        shallow = shallow_bytes / shallow_entries
        deep = deep_bytes / deep_entries
        # Full-suffix resends would make the deep pipeline several times
        # costlier per entry; delta replication keeps the two equal.
        assert deep == pytest.approx(shallow, rel=0.02), (shallow, deep)

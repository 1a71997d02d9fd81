"""The flush interval on a real clock — opt in with ``pytest -m live``.

``FLUSH_INTERVAL`` caps a shard at one partial entry per interval.  On
asyncio the flush timer runs late (the epoll wait rounds up to a whole
millisecond), and if each interval started when the late timer ran,
that lateness would add to every gap: two closed-loop clients would get
an entry every ~4.6 ms instead of every 4 ms.  Each interval starts when
the previous flush was due, so the mean gap between entries is the
interval itself.
"""

import asyncio

import pytest

from repro.live import AsyncKVClient, LiveKVCluster
from repro.live.kv import FLUSH_INTERVAL

pytestmark = pytest.mark.live

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)

#: Seconds of steady traffic the mean gap is taken over.
WINDOW = 2.0

#: How far above the interval the mean gap may read.  A tenth of the
#: interval: the lateness that used to add to every gap is 0.6 ms on
#: average, while a gap stretched now and then by a slow round adds a
#: few microseconds to the mean.
MARGIN = 0.1 * FLUSH_INTERVAL


def test_two_closed_loop_clients_get_an_entry_per_interval():
    async def scenario():
        cluster = LiveKVCluster(3, seed=41, **FAST)
        await cluster.start()
        clients = [AsyncKVClient(cluster.cluster) for _ in range(2)]
        stop = asyncio.Event()

        async def closed_loop(c, client):
            i = 0
            while not stop.is_set():
                await client.put(f"c{c}", i)
                i += 1

        try:
            leader = await cluster.wait_for_leader(timeout=15.0)
            shard = cluster.servers[leader].shards[0]
            loops = [
                asyncio.ensure_future(closed_loop(c, client))
                for c, client in enumerate(clients)
            ]
            await asyncio.sleep(0.5)  # both clients found the leader
            loop = asyncio.get_running_loop()
            start, before = loop.time(), shard.flushed_batches
            await asyncio.sleep(WINDOW)
            took, batches = loop.time() - start, shard.flushed_batches - before
            stop.set()
            await asyncio.gather(*loops)
            gap = took / batches
            # No faster than the cap, and no slower than the cap plus the
            # margin.
            assert FLUSH_INTERVAL * 0.98 <= gap <= FLUSH_INTERVAL + MARGIN, (
                f"mean gap {gap * 1e3:.3f} ms over {batches} entries"
            )
        finally:
            for client in clients:
                await client.close()
            await cluster.stop()

    asyncio.run(asyncio.wait_for(scenario(), 60.0))

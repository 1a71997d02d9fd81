"""What one replicated put costs on the wire and on the event loop.

All in virtual time (:class:`~repro.core.runtime.SimRuntime`, 0.5 ms per
hop), so every count is exact:

* a follower answers an append that carries entries and applies the
  leader's commit broadcast without answering it — the reply has no
  field for the commit index — so a committed single-put entry costs two
  append replies on 3 nodes, one per follower;
* a peer frame read or an idle wait arms no loop timer: one sweep per
  transport and heartbeat interval pings idle links and closes silent
  inbound connections.
"""

import asyncio
import sys

import pytest

from repro.core import runtime as runtime_module
from repro.core.runtime import SimRuntime
from repro.live import ClusterConfig, LiveKVCluster
from repro.live.client import AsyncKVClient
from repro.live.transport import PeerTransport
from repro.sim import trace as tr

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)

#: Puts in the measured window, one every ``SPACING`` virtual seconds, so
#: each is an entry of its own.
PUTS = 40
SPACING = 0.02


def sim_run(coro, timeout=60.0):
    rt = SimRuntime()
    try:
        return rt.run(coro, timeout=timeout)
    finally:
        rt.close()


class TimerTap:
    """Counts the loop timers whose nearest caller outside asyncio and
    :mod:`repro.core.runtime` is one of ``methods``.  The simulated wire's
    own delivery timers (a socket write on a real runtime) are not
    counted."""

    SKIP = (asyncio.__file__.rsplit("/", 1)[0], runtime_module.__file__)

    def __init__(self, methods):
        self.codes = {method.__code__ for method in methods}
        self.armed = 0
        self.on = False

    def install(self, loop):
        call_at = loop.call_at

        def counted(when, callback, *args, **kwargs):
            if self.on and self._armed_here(callback):
                self.armed += 1
            return call_at(when, callback, *args, **kwargs)

        loop.call_at = counted

    def _armed_here(self, callback):
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, runtime_module._SimConnection):
            return False
        frame = sys._getframe(2)
        while frame is not None and frame.f_code.co_filename.startswith(self.SKIP):
            frame = frame.f_back
        return frame is not None and frame.f_code in self.codes


@pytest.mark.parametrize("engine", ["raft", "paxos", "ct"])
def test_a_committed_single_put_entry_costs_two_append_replies(engine):
    replies = []
    reads = TimerTap([PeerTransport._handle_inbound, PeerTransport._pump])
    counting = [False]

    def watch(event):
        if counting[0] and event.kind == tr.SEND:
            replies.append(type(event.detail.payload))

    async def scenario():
        reads.install(asyncio.get_running_loop())
        cluster = LiveKVCluster(
            3, seed=5, engine=engine, observers=(watch,), **FAST
        )
        await cluster.start()
        client = AsyncKVClient(cluster.cluster)
        try:
            leader = await cluster.wait_for_leader(10.0)
            await client.put("warm", 0)
            await asyncio.sleep(0.01)
            node = cluster.servers[leader].node
            reply_class = node.family.append_reply
            committed = node.commit_index
            received = sum(s.transport.stats.received for s in cluster.servers)
            counting[0] = reads.on = True
            for i in range(PUTS):
                due = asyncio.get_running_loop().time() + SPACING
                await client.put(f"k{i}", i)
                await asyncio.sleep(due - asyncio.get_running_loop().time())
            counting[0] = reads.on = False
            assert cluster.leader_pid() == leader
            entries = node.commit_index - committed
            received = (
                sum(s.transport.stats.received for s in cluster.servers)
                - received
            )
            return entries, replies.count(reply_class), received
        finally:
            await client.close()
            await cluster.stop()

    entries, append_replies, frames_read = sim_run(scenario())
    assert entries == PUTS
    assert append_replies == 2 * entries
    # No frame read and no idle wait armed a timer of the transport's own.
    assert frames_read > 4 * PUTS
    assert reads.armed == 0


def transport_pair(heartbeat_interval):
    cluster = ClusterConfig.simulated(2)
    return [
        PeerTransport(
            cluster, pid, lambda *args: None,
            heartbeat_interval=heartbeat_interval, connect_timeout=0.5,
            jitter_seed=pid,
        )
        for pid in (0, 1)
    ]


def test_a_black_holed_link_closes_within_one_sweep_of_the_idle_timeout():
    beat = 0.05

    async def scenario():
        sender, receiver = transport_pair(beat)
        await receiver.start()
        await sender.start()
        try:
            while not receiver._inbound_tasks:
                await asyncio.sleep(0.001)
            await asyncio.sleep(3 * beat)
            sender.set_link_fault(1, blackhole=True, direction="out")
            # Frames already on the wire land within one hop.
            await asyncio.sleep(0.01)
            (last_frame,) = receiver._last_read.values()
            (handler,) = receiver._inbound_tasks
            await asyncio.wait({handler})
            closed = asyncio.get_running_loop().time() - last_frame
            return closed, receiver.idle_timeout
        finally:
            await sender.stop()
            await receiver.stop()

    closed, idle_timeout = sim_run(scenario())
    assert idle_timeout <= closed <= idle_timeout + beat


def test_an_idle_link_pings_and_redials_a_closed_peer():
    beat = 0.05

    async def scenario():
        sender, receiver = transport_pair(beat)
        await receiver.start()
        await sender.start()
        try:
            await asyncio.sleep(20 * beat)
            # Nothing was sent: the sweep kept the link alive with pings,
            # at least one every two intervals, and the receiver never
            # timed it out.
            pings = sender.stats.pings
            assert pings >= 20 // 2 - 1
            assert sender.stats.reconnects == 0 and len(receiver._last_read) == 1
            # The receiver drops the connection; the next ping's drain
            # finds it closed and the idle sender dials again.
            (writer,) = receiver._last_read
            writer.close()
            await asyncio.sleep(4 * beat)
            return sender.stats.reconnects, len(receiver._last_read)
        finally:
            await sender.stop()
            await receiver.stop()

    reconnects, inbound = sim_run(scenario())
    assert reconnects == 1 and inbound == 1

"""One election timer per node.

:class:`~repro.algorithms.trigger.TimerTrigger` arms a single timer named
``election`` and relies on the runtime to replace a pending timer of the
same name.  This file pins the live runtime's timer contract (on
:class:`~repro.core.runtime.SimRuntime`, mirroring
``tests/sim/test_async_runtime.py``), the trigger's own rule, and the
result on a loaded cluster: a steady leader's followers never see their
election timer fire.
"""

import random
from collections import Counter
from types import SimpleNamespace

from repro.algorithms.raft.replication import FOLLOWER, LEADER
from repro.algorithms.trigger import TimerTrigger
from repro.core.runtime import SimRuntime
from repro.live import LiveCluster, LiveKVCluster, run_closed_loop
from repro.sim import trace as tr
from repro.sim.ops import CancelTimer, Decide, Receive, SetTimer, TimerFired
from repro.sim.process import FunctionProcess

FAST = dict(election_timeout=(0.15, 0.3), heartbeat_interval=0.05)


def sim_run(coro, timeout=60.0):
    rt = SimRuntime()
    try:
        return rt.run(coro, timeout=timeout)
    finally:
        rt.close()


def is_timer(envelope):
    return isinstance(envelope.payload, TimerFired)


def _decide_one(proto):
    """Run ``proto`` as the only node of a live cluster; its decision."""
    async def scenario():
        cluster = LiveCluster([FunctionProcess(proto)])
        await cluster.start()
        try:
            return (await cluster.await_decisions(timeout=30.0))[0]
        finally:
            await cluster.stop()

    return sim_run(scenario())


class TestLiveRuntimeTimers:
    def test_rearming_timer_cancels_previous(self):
        def proto(api):
            start = api.now
            yield SetTimer(1.0, "t")
            yield SetTimer(10.0, "t")  # re-arm before the first fires
            envs = yield Receive(count=1, predicate=is_timer)
            yield Decide((envs[0].payload.name, round(api.now - start, 6)))

        assert _decide_one(proto) == ("t", 10.0)

    def test_cancel_timer_prevents_fire(self):
        def proto(api):
            yield SetTimer(1.0, "boom")
            yield CancelTimer("boom")
            yield SetTimer(5.0, "ok")
            envs = yield Receive(count=1, predicate=is_timer)
            yield Decide(envs[0].payload.name)

        assert _decide_one(proto) == "ok"


class TestTimerTrigger:
    def _trigger(self, state):
        trigger = TimerTrigger((0.15, 0.3))
        trigger.node = SimpleNamespace(
            state=state, campaign=lambda api: iter(["campaign"])
        )
        return trigger, SimpleNamespace(rng=random.Random(1))

    def test_every_arm_uses_one_name(self):
        trigger, api = self._trigger(FOLLOWER)
        arms = [
            *trigger.boot(api),
            *trigger.on_leader_contact(api, 0),
            *trigger.on_demoted(api),
            *trigger.on_campaign_observed(api),
        ]
        assert [type(op) for op in arms] == [SetTimer] * 4
        assert {op.name for op in arms} == {"election"}

    def test_a_leader_ignores_its_timer(self):
        trigger, api = self._trigger(LEADER)
        assert list(trigger.on_timer(api, TimerFired("election"))) == []

    def test_a_follower_rearms_then_campaigns(self):
        trigger, api = self._trigger(FOLLOWER)
        rearm, campaign = trigger.on_timer(api, TimerFired("election"))
        assert isinstance(rearm, SetTimer) and rearm.name == "election"
        assert campaign == "campaign"


def test_a_steady_leader_leaves_no_election_timer_firing():
    """16 closed-loop clients against one leader: every append re-arms
    each follower's timer, which therefore never fires; the leader's own
    fires once and is ignored.  Counting every ``election…`` name
    catches a trigger that arms a fresh name per contact and leaves the
    superseded copies to fire."""
    fired = []

    def watch(event):
        if event.kind == tr.TIMER and str(event.detail).startswith("election"):
            fired.append(event.pid)

    async def scenario():
        cluster = LiveKVCluster(3, seed=3, observers=(watch,), **FAST)
        await cluster.start()
        try:
            await cluster.wait_for_leader(timeout=10.0)
            fired.clear()
            report = await run_closed_loop(
                cluster.cluster, ops=2000, concurrency=16, seed=3
            )
        finally:
            await cluster.stop()
        return report

    report = sim_run(scenario())
    assert report.errors == 0
    per_node = Counter(fired)
    assert max(per_node.values(), default=0) <= 1, per_node

"""Fault-plan generation: validation, determinism, and structure."""

import asyncio
import math

import pytest

from repro.chaos import FaultEvent, FaultPlan
from repro.chaos.nemesis import DEFAULT_KINDS, FAULT_KINDS, Nemesis
from repro.live import LiveKVCluster


class TestFaultPlanValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultPlan((FaultEvent(1.0, "meteor-strike"),))

    def test_rejects_out_of_order_events(self):
        with pytest.raises(ValueError):
            FaultPlan((FaultEvent(2.0, "heal"), FaultEvent(1.0, "heal")))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            FaultPlan((FaultEvent(-1.0, "heal"),))

    def test_event_args_accessor(self):
        event = FaultEvent(1.0, "drop", (("prob", 0.4),))
        assert event.arg("prob") == 0.4
        assert event.arg("missing", "default") == "default"

    def test_duration(self):
        assert FaultPlan(()).duration == 0.0
        plan = FaultPlan((FaultEvent(1.0, "heal"), FaultEvent(4.5, "heal")))
        assert plan.duration == 4.5


class TestSeededGeneration:
    def test_same_seed_same_plan(self):
        """The satellite guarantee: seed ⇒ identical fault schedule."""
        a = FaultPlan.random_campaign(42, duration=30.0, period=3.0)
        b = FaultPlan.random_campaign(42, duration=30.0, period=3.0)
        assert a == b
        assert a.events == b.events

    def test_different_seed_different_plan(self):
        a = FaultPlan.random_campaign(1, duration=30.0, period=3.0)
        b = FaultPlan.random_campaign(2, duration=30.0, period=3.0)
        assert a != b

    def test_plan_is_valid_and_time_ordered(self):
        plan = FaultPlan.random_campaign(7, duration=60.0, period=2.0)
        times = [event.at for event in plan.events]
        assert times == sorted(times)
        assert all(event.kind in FAULT_KINDS for event in plan.events)
        assert plan.duration < 60.0

    def test_disruptions_are_healed(self):
        plan = FaultPlan.random_campaign(3, duration=30.0, period=3.0)
        disruptive = [
            e for e in plan.events if e.kind not in ("heal", "restart")
        ]
        heals = [e for e in plan.events if e.kind == "heal"]
        assert disruptive, "campaign must disrupt something"
        # Every disruption before the tail gets a heal after it.
        assert len(heals) >= len(disruptive) - 1

    def test_kind_restriction(self):
        plan = FaultPlan.random_campaign(
            5, duration=30.0, period=3.0, kinds=("kill-leader",)
        )
        kinds = {e.kind for e in plan.events}
        assert kinds <= {"kill-leader", "heal", "restart"}

    def test_rejects_empty_or_bad_kinds(self):
        with pytest.raises(ValueError):
            FaultPlan.random_campaign(1, kinds=())
        with pytest.raises(ValueError):
            FaultPlan.random_campaign(1, kinds=("nope",))
        with pytest.raises(ValueError):
            FaultPlan.random_campaign(1, period=0.0)

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_period_that_is_not_finite_and_positive(self, period):
        # A nan or infinite period schedules no fault at all, so a
        # campaign would pass without ever being disrupted.
        with pytest.raises(ValueError, match="period"):
            FaultPlan.random_campaign(1, period=period)
        with pytest.raises(ValueError, match="period"):
            FaultPlan.lease_attack_campaign(1, period=period)

    def test_victim_rolls_are_reproducible(self):
        """Victim choice is pre-rolled into the plan, not drawn live, so
        executing the same plan twice picks the same victims (given the
        same cluster state)."""
        plan = FaultPlan.random_campaign(9, duration=20.0, period=2.0)
        rolls = [
            e.arg("roll")
            for e in plan.events
            if e.kind not in ("heal", "restart")
        ]
        assert all(isinstance(r, float) and 0.0 <= r < 1.0 for r in rolls)

    def test_default_kinds_are_valid(self):
        assert set(DEFAULT_KINDS) <= set(FAULT_KINDS)


def _apply(cluster, *events):
    """Apply ``events`` to an unstarted cluster; returns the nemesis log."""
    nemesis = Nemesis(cluster, FaultPlan(()))

    async def scenario():
        for event in events:
            await nemesis.apply(event)

    asyncio.run(scenario())
    return [(action.kind, action.detail) for action in nemesis.log]


def _election_timeouts(cluster):
    """Each shard's timer-trigger range (``None`` for an Ω trigger)."""
    return [
        [
            getattr(shard.node.trigger, "election_timeout", None)
            for shard in server.shards
        ]
        for server in cluster.servers
    ]


class TestTimeoutSkew:
    SKEW = FaultEvent(0.0, "timeout-skew", (("factor", 3.0), ("roll", 0.0)))

    @pytest.mark.parametrize("engine", ["raft", "paxos"])
    def test_skew_and_heal_keep_each_shards_own_range(self, engine):
        # Node 0 is shard 0's preferred leader and not shard 1's, so its
        # two staggered ranges differ: a skew scales each, a heal puts
        # each back.
        cluster = LiveKVCluster(3, shards=2, engine=engine)
        before = _election_timeouts(cluster)
        assert before[0][0] != before[0][1]
        # (Twice: a repeated skew scales the saved ranges, not the
        # already skewed ones.)
        log = _apply(cluster, self.SKEW, self.SKEW)
        assert log == [("timeout-skew", "node 0 election timeout x3")] * 2
        skewed = _election_timeouts(cluster)
        assert skewed[0] == [(lo * 3.0, hi * 3.0) for lo, hi in before[0]]
        assert skewed[1:] == before[1:]
        cluster = LiveKVCluster(3, shards=2, engine=engine)
        _apply(cluster, self.SKEW, FaultEvent(0.0, "heal"))
        assert _election_timeouts(cluster) == before

    def test_skew_is_skipped_on_an_engine_without_an_election_timer(self):
        cluster = LiveKVCluster(3, shards=2, engine="ct")
        log = _apply(cluster, self.SKEW, FaultEvent(0.0, "heal"))
        assert log[0] == (
            "timeout-skew", "skipped: engine has no election timer"
        )
        assert log[1][0] == "heal"

    def test_mixed_engines_skew_only_the_timed_shards(self):
        cluster = LiveKVCluster(3, shards=2, engine="ct,raft")
        before = _election_timeouts(cluster)
        (lo, hi) = before[0][1]
        log = _apply(cluster, self.SKEW)
        assert log == [("timeout-skew", "node 0 election timeout x3")]
        assert _election_timeouts(cluster)[0] == [None, (lo * 3.0, hi * 3.0)]

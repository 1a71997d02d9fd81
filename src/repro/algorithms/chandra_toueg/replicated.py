"""Replicated-log Chandra-Toueg: the Ω trigger and the ``Ct*`` family.

The one-shot :mod:`repro.algorithms.chandra_toueg.node` follows the 1996
paper round by round; the live ``ct`` engine is its replicated-log service
form, built exactly as the source paper prescribes — take the shared
replicated-log core under
:class:`~repro.algorithms.replica.BallotReplicaNode`'s ballot election
and swap in a different *detector object*.  This module holds the two
pieces that swap makes: :class:`OmegaTrigger`, an embedded
:class:`~repro.live.detector.OmegaDetector` deciding when to campaign in
place of randomized timeouts, and :data:`CT_FAMILY`, the wire names.

The trigger's rule (Lynch & Sastry's Ω-based formulation rather than the
original rotating coordinator — Ω is what ◇S distills to, and it
composes directly with a leader-based mixer):

* every node broadcasts :class:`~repro.live.detector.FdHeartbeat` on a
  periodic ``fd:tick`` and feeds arrivals into its detector;
* a node campaigns when its Ω output has named *itself* for two
  consecutive ticks while someone else holds the lease — never on a raw
  timeout, so where a timer trigger churns under timeout skew, Ω churns
  only when the detector actually mis-suspects;
* a stuck campaign (no majority, e.g. its messages were dropped) retries
  after a few ticks, since Ω still names us.

The trigger composes with either election rule; ``ct`` pairs it with the
ballot rule, and a test pairs it with Raft's RequestVote.  Safety never
depends on the detector (epochs and majorities do all the work in the
shared core); the detector buys liveness — the classic CT split, now
measurable: experiment E17 runs the same load and faults over ``ct``,
``paxos`` and ``raft``.

Append traffic from a live leader also feeds the detector (a leader busy
streaming entries must not be suspected just because its separate
heartbeat frame queued behind a large delta).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.algorithms.raft.replication import FOLLOWER, LEADER
from repro.algorithms.replica import (
    BallotChain,
    BallotChainAck,
    BallotFamily,
    BallotPrepare,
    BallotPrepareNack,
    BallotPromise,
    BallotSnapshot,
    BallotSnapshotAck,
)
from repro.algorithms.trigger import Trigger, preferred_leader
from repro.live.detector import FD_TICK, FdHeartbeat, OmegaDetector
from repro.sim.messages import Pid
from repro.sim.ops import Send, SetTimer, TimerFired
from repro.sim.process import ProcessAPI, ProtocolGenerator

#: Ticks Ω must consecutively name us before we campaign (debounce).
OMEGA_STREAK_TICKS = 2

#: Ticks a campaign may sit without a majority before we retry it.
CAMPAIGN_STUCK_TICKS = 4


# ----------------------------------------------------------------------
# Wire messages (the ``Ct*`` family — self-describing per engine; the
# shapes are repro.algorithms.replica's)
# ----------------------------------------------------------------------


class CtPrepare(BallotPrepare):
    """Chandra-Toueg phase-1a."""

    __slots__ = ()


class CtPromise(BallotPromise):
    """Chandra-Toueg phase-1b grant."""

    __slots__ = ()


class CtPrepareNack(BallotPrepareNack):
    """Chandra-Toueg phase-1b refusal."""

    __slots__ = ()


class CtChain(BallotChain):
    """Chandra-Toueg phase-2a stream (empty ``entries`` is the
    coordinator heartbeat)."""

    __slots__ = ()


class CtChainAck(BallotChainAck):
    """Chandra-Toueg phase-2b."""

    __slots__ = ()


class CtSnapshot(BallotSnapshot):
    """Chandra-Toueg snapshot repair."""

    __slots__ = ()


class CtSnapshotAck(BallotSnapshotAck):
    """Chandra-Toueg snapshot acknowledgement."""

    __slots__ = ()


CT_FAMILY = BallotFamily(
    append=CtChain,
    append_reply=CtChainAck,
    snapshot=CtSnapshot,
    snapshot_reply=CtSnapshotAck,
    prepare=CtPrepare,
    promise=CtPromise,
    prepare_nack=CtPrepareNack,
)


# ----------------------------------------------------------------------
# The trigger
# ----------------------------------------------------------------------


class OmegaTrigger(Trigger):
    """Campaign when an embedded Ω detector names this node.

    Args:
        interval: heartbeat/tick period of the detector (the knob that
            replaces a timer trigger's ``election_timeout``).
        preferred: Ω rank rotation (per-shard staggering, the role the
            timer trigger's staggered ranges play).
    """

    MESSAGES = frozenset({FdHeartbeat})

    def __init__(self, *, interval: float = 0.5, preferred: Pid = 0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.preferred = preferred
        self.detector: Optional[OmegaDetector] = None
        self._omega_streak = 0
        self._campaign_ticks = 0

    @classmethod
    def for_shard(
        cls, *, shard_id: int, n: int, heartbeat_interval: float, **knobs: Any
    ) -> "OmegaTrigger":
        # The detector's beacons are this trigger's liveness signal, so
        # it ticks at the service heartbeat interval.
        return cls(interval=heartbeat_interval, preferred=preferred_leader(shard_id, n))

    def boot(self, api: ProcessAPI) -> ProtocolGenerator:
        self.detector = OmegaDetector(
            len(self.node._members(api)),
            api.pid,
            interval=self.interval,
            preferred=self.preferred,
        )
        self.detector.start(api.now)
        self._omega_streak = 0
        self._campaign_ticks = 0
        yield from self._broadcast_heartbeat(api)
        yield SetTimer(self.interval, FD_TICK)

    def _broadcast_heartbeat(self, api: ProcessAPI) -> ProtocolGenerator:
        beat = self.detector.heartbeat()
        for pid in self.node._members(api):
            if pid != api.pid:
                yield Send(pid, beat)

    def on_timer(self, api: ProcessAPI, fired: TimerFired) -> ProtocolGenerator:
        if fired.name != FD_TICK:
            return
        fd, node = self.detector, self.node
        yield from self._broadcast_heartbeat(api)
        fd.check(api.now)
        if node.leader_hint is not None and fd.is_suspected(node.leader_hint):
            node.leader_hint = None
        omega = fd.leader()
        if node.state is LEADER:
            self._omega_streak = 0
            self._campaign_ticks = 0
        elif node.state is not FOLLOWER:
            # A campaign is in flight; if its messages were lost, Ω still
            # names us and nothing else will unstick it — retry.
            self._campaign_ticks += 1
            if omega == api.pid and self._campaign_ticks >= CAMPAIGN_STUCK_TICKS:
                self._campaign_ticks = 0
                yield from node.campaign(api)
        elif omega == api.pid and node.leader_hint != api.pid:
            self._omega_streak += 1
            if self._omega_streak >= OMEGA_STREAK_TICKS:
                self._omega_streak = 0
                self._campaign_ticks = 0
                yield from node.campaign(api)
        else:
            self._omega_streak = 0
        yield SetTimer(self.interval, FD_TICK)

    def on_message(self, api: ProcessAPI, payload: Any) -> ProtocolGenerator:
        if isinstance(payload, FdHeartbeat):
            self.detector.note_heartbeat(payload.sender, api.now)
        return
        yield  # pragma: no cover

    def on_leader_contact(self, api: ProcessAPI, leader: Pid) -> ProtocolGenerator:
        # Append/snapshot traffic is liveness evidence too.
        if self.detector is not None:
            self.detector.note_heartbeat(leader, api.now)
        self._omega_streak = 0
        return
        yield  # pragma: no cover

    def on_demoted(self, api: ProcessAPI) -> ProtocolGenerator:
        # A higher epoch exists; Ω will re-trigger us if we should lead.
        self._omega_streak = 0
        self._campaign_ticks = 0
        return
        yield  # pragma: no cover

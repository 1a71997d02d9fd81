"""Replicated-log Chandra-Toueg: ballot elections under a live Ω detector.

The one-shot :mod:`repro.algorithms.chandra_toueg.node` follows the 1996
paper round by round; this module is its replicated-log service form for
the live engine seam, built exactly as the source paper prescribes —
take the shared replicated-log core under
:class:`~repro.algorithms.replica.BallotReplicaNode`'s ballot election
and swap in a different *detector object*: an embedded
:class:`~repro.live.detector.OmegaDetector` instead of randomized
timeouts.

The reconciliator rule (Lynch & Sastry's Ω-based formulation rather
than the original rotating coordinator — Ω is what ◇S distills to, and
it composes directly with a leader-based mixer):

* every node broadcasts :class:`~repro.live.detector.FdHeartbeat` on a
  periodic ``fd:tick`` and feeds arrivals into its detector;
* a node campaigns (opens a higher ballot) when its Ω output has named
  *itself* for two consecutive ticks while someone else holds the lease
  — never on a raw timeout, so where Multi-Paxos churns under timeout
  skew, CT churns only when the detector actually mis-suspects;
* a stuck campaign (no majority, e.g. the promise messages were
  dropped) retries after a few ticks, since Ω still names us.

Safety never depends on the detector (ballots and majorities do all the
work in the shared core); the detector buys liveness — the classic CT
split, now measurable: benchmark E17 runs the same load and faults over
this engine, Multi-Paxos, and Raft.

Chain traffic from a live leader also feeds the detector (a leader busy
streaming entries must not be suspected just because its separate
heartbeat frame queued behind a large delta).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.algorithms.raft.replication import LEADER
from repro.algorithms.replica import (
    PREPARING,
    BallotChain,
    BallotChainAck,
    BallotPrepare,
    BallotPrepareNack,
    BallotPromise,
    BallotReplicaNode,
    BallotSnapshot,
    BallotSnapshotAck,
)
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


class CtPromise(BallotPromise):
    """Chandra-Toueg phase-1b grant."""


class CtPrepareNack(BallotPrepareNack):
    """Chandra-Toueg phase-1b refusal."""


class CtChain(BallotChain):
    """Chandra-Toueg phase-2a stream (empty ``entries`` is the
    coordinator heartbeat)."""


class CtChainAck(BallotChainAck):
    """Chandra-Toueg phase-2b."""


class CtSnapshot(BallotSnapshot):
    """Chandra-Toueg snapshot repair."""


class CtSnapshotAck(BallotSnapshotAck):
    """Chandra-Toueg snapshot acknowledgement."""


# ----------------------------------------------------------------------
# The node
# ----------------------------------------------------------------------


class CtReplicatedNode(BallotReplicaNode):
    """Replicated-log Chandra-Toueg over an embedded Ω detector.

    Args:
        detector_interval: heartbeat/tick period of the embedded
            detector (the knob that replaces ``election_timeout``).
        detector_factor / detector_margin / detector_max_margin: the
            per-link adaptive-timeout parameters, passed through to
            :class:`~repro.live.detector.OmegaDetector`.
        preferred: Ω rank rotation (per-shard staggering, same role as
            the other engines' staggered election timeouts).
    """

    PREPARE_CLS = CtPrepare
    PROMISE_CLS = CtPromise
    PREPARE_NACK_CLS = CtPrepareNack
    APPEND_CLS = CtChain
    APPEND_REPLY_CLS = CtChainAck
    SNAPSHOT_CLS = CtSnapshot
    SNAPSHOT_REPLY_CLS = CtSnapshotAck

    def __init__(
        self,
        *,
        detector_interval: float = 0.5,
        detector_factor: float = 2.0,
        detector_margin: Optional[float] = None,
        detector_max_margin: Optional[float] = None,
        preferred: Pid = 0,
        **kwargs,
    ):
        if detector_interval <= 0:
            raise ValueError("detector_interval must be positive")
        super().__init__(**kwargs)
        self.detector_interval = detector_interval
        self.detector_factor = detector_factor
        self.detector_margin = detector_margin
        self.detector_max_margin = detector_max_margin
        self.preferred = preferred
        self.detector: Optional[OmegaDetector] = None
        self._omega_streak = 0
        self._campaign_ticks = 0

    # ------------------------------------------------------------------
    # The reconciliator: Ω drives campaigns
    # ------------------------------------------------------------------

    def _on_boot(self, api: ProcessAPI) -> ProtocolGenerator:
        members = self._members(api)
        self.detector = OmegaDetector(
            len(members),
            api.pid,
            interval=self.detector_interval,
            factor=self.detector_factor,
            margin=self.detector_margin,
            max_margin=self.detector_max_margin,
            preferred=self.preferred,
        )
        self.detector.start(api.now)
        self._omega_streak = 0
        self._campaign_ticks = 0
        yield from self._broadcast_heartbeat(api)
        yield SetTimer(self.detector_interval, FD_TICK)

    def _broadcast_heartbeat(self, api: ProcessAPI) -> ProtocolGenerator:
        beat = self.detector.heartbeat()
        for pid in self._members(api):
            if pid != api.pid:
                yield Send(pid, beat)

    def _on_timer(self, api: ProcessAPI, fired: TimerFired) -> ProtocolGenerator:
        if fired.name == FD_TICK:
            yield from self._on_fd_tick(api)

    def _on_fd_tick(self, api: ProcessAPI) -> ProtocolGenerator:
        fd = self.detector
        yield from self._broadcast_heartbeat(api)
        fd.check(api.now)
        if self.leader_hint is not None and fd.is_suspected(self.leader_hint):
            self.leader_hint = None
        omega = fd.leader()
        if self.state is LEADER:
            self._omega_streak = 0
            self._campaign_ticks = 0
        elif self.state is PREPARING:
            # A campaign is in flight; if its messages were lost, Ω still
            # names us and nothing else will unstick it — retry.
            self._campaign_ticks += 1
            if omega == api.pid and self._campaign_ticks >= CAMPAIGN_STUCK_TICKS:
                self._campaign_ticks = 0
                yield from self._start_campaign(api)
        elif omega == api.pid and self.leader_hint != api.pid:
            self._omega_streak += 1
            if self._omega_streak >= OMEGA_STREAK_TICKS:
                self._omega_streak = 0
                self._campaign_ticks = 0
                yield from self._start_campaign(api)
        else:
            self._omega_streak = 0
        yield SetTimer(self.detector_interval, FD_TICK)

    def _on_other(self, api: ProcessAPI, payload: Any) -> ProtocolGenerator:
        if isinstance(payload, FdHeartbeat):
            self.detector.note_heartbeat(payload.sender, api.now)
        return
        yield  # pragma: no cover

    def _on_leader_contact(self, api: ProcessAPI, leader: Pid) -> ProtocolGenerator:
        # Chain/snapshot traffic is liveness evidence too.
        if self.detector is not None:
            self.detector.note_heartbeat(leader, api.now)
        self._omega_streak = 0
        return
        yield  # pragma: no cover

    def _on_demoted(self, api: ProcessAPI) -> ProtocolGenerator:
        # A higher ballot exists; Ω will re-trigger us if we should lead.
        self._omega_streak = 0
        self._campaign_ticks = 0
        return
        yield  # pragma: no cover

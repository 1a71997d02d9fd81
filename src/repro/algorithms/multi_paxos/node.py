"""Multi-Paxos node: ballot elections under a randomized-timeout detector.

In the paper's decomposition this backend runs the shared replicated-log
core under :class:`~repro.algorithms.replica.BallotReplicaNode`'s
prepare/promise election, triggered by the same *reconciliator* Raft
uses — a randomized retry timer, re-armed on every sign of a live
leader.  Leadership is won by prepare/promise with suffix merge rather
than by a vote on log freshness: functionally this is the difference
Howard & Mortier highlight between the two protocol families; benchmark
E17 measures it under identical load.
"""

from __future__ import annotations

from typing import Tuple

from repro.algorithms.multi_paxos.messages import (
    PaxChain,
    PaxChainAck,
    PaxPrepare,
    PaxPrepareNack,
    PaxPromise,
    PaxSnapshot,
    PaxSnapshotAck,
)
from repro.algorithms.raft.replication import LEADER
from repro.algorithms.replica import BallotReplicaNode
from repro.sim.messages import Pid
from repro.sim.ops import SetTimer, TimerFired
from repro.sim.process import ProcessAPI, ProtocolGenerator


class MultiPaxosNode(BallotReplicaNode):
    """Replicated-log Multi-Paxos with randomized campaign timeouts.

    Args:
        election_timeout: ``(low, high)`` range for the randomized
            campaign-retry timer.  A node campaigns when it has heard
            nothing from a leader (or a fresher campaigner) for one
            timeout draw — exactly Raft's trigger, so the two engines
            differ only in how leadership is *won*, not when it is
            *sought*.
    """

    PREPARE_CLS = PaxPrepare
    PROMISE_CLS = PaxPromise
    PREPARE_NACK_CLS = PaxPrepareNack
    APPEND_CLS = PaxChain
    APPEND_REPLY_CLS = PaxChainAck
    SNAPSHOT_CLS = PaxSnapshot
    SNAPSHOT_REPLY_CLS = PaxSnapshotAck

    def __init__(
        self,
        *,
        election_timeout: Tuple[float, float] = (10.0, 20.0),
        **kwargs,
    ):
        low, high = election_timeout
        if not (0 < low <= high):
            raise ValueError("election_timeout must satisfy 0 < low <= high")
        super().__init__(**kwargs)
        self.election_timeout = election_timeout
        self._retry_epoch = 0

    # ------------------------------------------------------------------
    # The reconciliator: randomized retry timer
    # ------------------------------------------------------------------

    def _arm_retry_timer(self, api: ProcessAPI) -> SetTimer:
        self._retry_epoch += 1
        timeout = api.rng.uniform(*self.election_timeout)
        return SetTimer(timeout, f"retry:{self._retry_epoch}")

    def _on_boot(self, api: ProcessAPI) -> ProtocolGenerator:
        self._retry_epoch = 0
        yield self._arm_retry_timer(api)

    def _on_timer(self, api: ProcessAPI, fired: TimerFired) -> ProtocolGenerator:
        if fired.name.startswith("retry:"):
            epoch = int(fired.name.split(":", 1)[1])
            if epoch == self._retry_epoch and self.state is not LEADER:
                yield self._arm_retry_timer(api)
                yield from self._start_campaign(api)

    def _on_leader_contact(self, api: ProcessAPI, leader: Pid) -> ProtocolGenerator:
        yield self._arm_retry_timer(api)

    def _on_campaign_observed(self, api: ProcessAPI, sender: Pid) -> ProtocolGenerator:
        # Granting a promise means a fresher campaign is in flight: defer.
        yield self._arm_retry_timer(api)

    def _on_demoted(self, api: ProcessAPI) -> ProtocolGenerator:
        yield self._arm_retry_timer(api)

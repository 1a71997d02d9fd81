"""Campaign triggers: the part of a reconciliator that decides *when*.

The source paper reads Raft as an agreement detector (Algorithm 10, the
replicated-log core in :mod:`repro.algorithms.raft.replication`) plus a
reconciliator (Algorithm 11).  The reconciliator splits once more: an
election *rule* says how leadership is won — RequestVote in
:class:`~repro.algorithms.raft.node.RaftNode`, prepare/promise in
:class:`~repro.algorithms.replica.BallotReplicaNode` — and a *trigger*
says when a node campaigns.  Howard & Mortier find Raft and Paxos differ
only in the rule; Lynch & Sastry show Ω is all a trigger needs.  Any
trigger composes with either rule:

* :class:`TimerTrigger` — a randomized election timer, re-armed on every
  sign of a live leader or of a fresher campaign;
* :class:`~repro.algorithms.chandra_toueg.replicated.OmegaTrigger` — a
  live Ω/◇S heartbeat detector names the campaigner.

A trigger belongs to one node, which binds itself as :attr:`Trigger.node`
when it is built.  The core calls the trigger at boot, on every timer but
the leader heartbeat, on leader contact, on demotion and on every payload
it does not know; the rule calls it when it grants a vote or a promise.
The trigger answers with the rule's one entry, ``node.campaign(api)``.

Per-shard leader placement is the trigger's too: ``for_shard`` builds one
shard's trigger from the live service's knobs so that shard ``i``'s first
leader is node ``i mod n``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, FrozenSet, Tuple

from repro.algorithms.raft.replication import LEADER
from repro.sim.messages import Pid
from repro.sim.ops import SetTimer, TimerFired
from repro.sim.process import ProcessAPI, ProtocolGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.algorithms.raft.replication import ReplicatedLogNode


def preferred_leader(shard: int, n: int) -> int:
    """The node on which ``shard`` prefers to start leadership."""
    return shard % n


def staggered_election_timeout(
    base: Tuple[float, float], shard: int, pid: int, n: int
) -> Tuple[float, float]:
    """Election-timeout range for ``pid`` in ``shard``'s group.

    The preferred node keeps the configured range; every other node gets
    a strictly later, equally wide range, so on a clean start the
    preferred node times out first and wins the shard's first election.
    Liveness is unaffected: if the preferred node is down, the others
    still time out and elect among themselves.
    """
    lo, hi = base
    if pid == preferred_leader(shard, n):
        return base
    return (lo + hi, 2 * hi)


class Trigger:
    """Decides when a node campaigns.  Every hook here does nothing."""

    #: Message classes the trigger itself sends.  An engine's wire filter
    #: admits them on top of its election rule's family.
    MESSAGES: FrozenSet[type] = frozenset()

    #: The node this trigger drives (set by the node's constructor).
    node: "ReplicatedLogNode"

    @classmethod
    def for_shard(cls, **knobs: Any) -> "Trigger":
        """One shard's trigger, from the live service's knobs: the
        ``shard_id``, ``shard_count``, ``pid``, ``n``, ``election_timeout``
        and ``heartbeat_interval`` keywords of
        :meth:`repro.live.engine.ConsensusEngine.build_node`.  Each
        trigger names the ones it uses."""
        raise NotImplementedError

    def boot(self, api: ProcessAPI) -> ProtocolGenerator:
        """The node started (or restarted) as a follower."""
        return
        yield  # pragma: no cover

    def on_timer(self, api: ProcessAPI, fired: TimerFired) -> ProtocolGenerator:
        """A timer other than the leader's heartbeat fired."""
        return
        yield  # pragma: no cover

    def on_leader_contact(self, api: ProcessAPI, leader: Pid) -> ProtocolGenerator:
        """An append, snapshot or read probe from a live leader arrived."""
        return
        yield  # pragma: no cover

    def on_demoted(self, api: ProcessAPI) -> ProtocolGenerator:
        """The node stopped leading or campaigning."""
        return
        yield  # pragma: no cover

    def on_campaign_observed(self, api: ProcessAPI) -> ProtocolGenerator:
        """The node granted a vote or a promise: a fresher campaign runs."""
        return
        yield  # pragma: no cover

    def on_message(self, api: ProcessAPI, payload: Any) -> ProtocolGenerator:
        """A payload neither the core nor the election rule knows: the
        trigger's own traffic, or another protocol sharing the network
        (ignored)."""
        return
        yield  # pragma: no cover


class TimerTrigger(Trigger):
    """Campaign when a random draw from ``election_timeout`` passes with
    no sign of a live leader or of a fresher campaign.

    Args:
        election_timeout: ``(low, high)`` range the timer is drawn from.
            Per the paper's *timing property* it must be much larger than
            the network's broadcast time.  Read on every re-arm, so a
            change (the nemesis's timeout skew) applies from the next one.

    The paper's timer T (Algorithm 11) is one timer named ``election``:
    the runtime replaces a pending timer of the same name, so a re-arm
    cancels the one it supersedes.  A leader ignores T (Algorithm 10's
    "freeze timer T").  Under :class:`~repro.live.runtime.LiveRuntime` a
    firing can reach the mailbox in the loop turn a leader contact re-arms
    T, and it still campaigns: it came a whole timeout after the previous
    contact, so that is Raft's own rule, and safety rests on epochs and
    majorities.
    """

    def __init__(self, election_timeout: Tuple[float, float] = (10.0, 20.0)):
        low, high = election_timeout
        if not 0 < low <= high:
            raise ValueError("election_timeout must satisfy 0 < low <= high")
        self.election_timeout = election_timeout

    @classmethod
    def for_shard(
        cls,
        *,
        shard_id: int,
        shard_count: int,
        pid: int,
        n: int,
        election_timeout: Tuple[float, float],
        **knobs: Any,
    ) -> "TimerTrigger":
        if shard_count > 1:
            election_timeout = staggered_election_timeout(
                election_timeout, shard_id, pid, n
            )
        return cls(election_timeout)

    def _arm(self, api: ProcessAPI) -> SetTimer:
        return SetTimer(api.rng.uniform(*self.election_timeout), "election")

    def boot(self, api: ProcessAPI) -> ProtocolGenerator:
        yield self._arm(api)

    def on_timer(self, api: ProcessAPI, fired: TimerFired) -> ProtocolGenerator:
        if fired.name == "election" and self.node.state is not LEADER:
            yield self._arm(api)
            yield from self.node.campaign(api)

    def on_leader_contact(self, api: ProcessAPI, leader: Pid) -> ProtocolGenerator:
        yield self._arm(api)

    def on_demoted(self, api: ProcessAPI) -> ProtocolGenerator:
        yield self._arm(api)

    def on_campaign_observed(self, api: ProcessAPI) -> ProtocolGenerator:
        yield self._arm(api)

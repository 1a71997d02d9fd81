"""Raft's election rule: RequestVote.

One :class:`RaftNode` is a :class:`~repro.sim.process.Process` for the
asynchronous runtime.  Log replication, the commit rule, apply,
compaction, snapshots, client proposals and the read path are the shared
:class:`~repro.algorithms.raft.replication.ReplicatedLogNode` core (paper
Algorithm 10).  When to campaign is the node's trigger
(:mod:`repro.algorithms.trigger`) — by default Raft's randomized
election timer, re-armed on every sign of a live leader.  This module is
what is left that is Raft's own, the election rule of the paper's
reconciliator (Algorithm 11):

* three states (follower / candidate / leader);
* RequestVote with the "candidate's log at least as up-to-date" check and
  one vote per term;
* lease stickiness on the vote: a follower within the lease window of
  leader contact refuses challengers without adopting their term;
* crash/restart: ``currentTerm``, ``votedFor`` and the log live on ``self``
  and survive; commit index, leadership state and timers are volatile and
  rebuilt (the state machine is reset and replayed as entries re-commit).

Consensus via ``D&S`` (Algorithm 7): with ``propose_on_leadership`` a fresh
leader appends ``D&S(v*)`` — ``v*`` being the value in its last log entry,
or its own input for an empty log — and drives it to commitment.  Applying
a ``D&S`` decides.

VAC annotations (Algorithm 10): each node annotates its per-term confidence
transitions — ``vacillate`` when a term starts without leader contact,
``adopt`` when it accepts new entries (or wins the election), ``commit``
when its decision applies — so Lemma 7's coherence can be checked from the
trace by :func:`repro.algorithms.raft.vac.check_raft_vac`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

from repro.algorithms.raft.messages import (
    AppendEntries,
    AppendEntriesReply,
    InstallSnapshot,
    InstallSnapshotReply,
    RequestVote,
    RequestVoteReply,
)
from repro.algorithms.raft.replication import (
    FOLLOWER,
    LEADER,
    ReplicatedLogNode,
    WireFamily,
)
from repro.algorithms.trigger import TimerTrigger, Trigger
from repro.core.confidence import VACILLATE
from repro.sim.messages import Pid
from repro.sim.ops import Annotate, Broadcast, Receive, Send
from repro.sim.process import ProcessAPI, ProtocolGenerator

#: Raft's candidate phase (``FOLLOWER``/``LEADER`` are the core's).
CANDIDATE = "candidate"

__all__ = ["CANDIDATE", "FOLLOWER", "LEADER", "RAFT_FAMILY", "RaftNode"]


@dataclass(frozen=True)
class RaftFamily(WireFamily):
    """The core's four roles plus RequestVote and its reply."""

    vote: type
    vote_reply: type


RAFT_FAMILY = RaftFamily(
    append=AppendEntries,
    append_reply=AppendEntriesReply,
    snapshot=InstallSnapshot,
    snapshot_reply=InstallSnapshotReply,
    vote=RequestVote,
    vote_reply=RequestVoteReply,
)


class RaftNode(ReplicatedLogNode):
    """A full Raft participant: the replicated-log core plus Raft's
    election rule.

    Args:
        election_timeout: ``(low, high)`` range of the default trigger,
            a :class:`~repro.algorithms.trigger.TimerTrigger`.
        trigger: another trigger instead (``election_timeout`` is then
            unused).
        family: the message classes (default: Raft's own).
        **kwargs: the core's arguments
            (:class:`~repro.algorithms.raft.replication.ReplicatedLogNode`).

    Attributes (durable across crashes):
        current_term, voted_for, log — Raft's persistent state (Figure 2).
    """

    def __init__(
        self,
        *,
        election_timeout: Tuple[float, float] = (10.0, 20.0),
        trigger: Optional[Trigger] = None,
        family: RaftFamily = RAFT_FAMILY,
        **kwargs,
    ):
        if trigger is None:
            trigger = TimerTrigger(election_timeout)
        super().__init__(family=family, trigger=trigger, **kwargs)
        self._votes: Set[Pid] = set()

    def run(self, api: ProcessAPI) -> ProtocolGenerator:
        self._votes = set()
        yield from self._boot(api)
        while True:
            envelopes = yield Receive(count=1)
            payload = envelopes[0].payload
            if isinstance(payload, self.family.vote):
                yield from self._on_request_vote(api, payload)
            elif isinstance(payload, self.family.vote_reply):
                yield from self._on_request_vote_reply(api, payload)
            else:
                yield from self._on_replication(api, payload)

    # ------------------------------------------------------------------
    # Elections (the reconciliator, Algorithm 11)
    # ------------------------------------------------------------------

    def campaign(self, api: ProcessAPI) -> ProtocolGenerator:
        """Increment the term and solicit votes (Algorithm 11)."""
        self.current_term += 1
        self.state = CANDIDATE
        self.voted_for = api.pid
        self.leader_hint = None
        self._votes = {api.pid}
        value = self._current_value(api)
        yield Annotate("vac", (self.current_term, VACILLATE, value))
        yield Annotate("reconciled", (self.current_term, value))
        if len(self._votes) >= self._majority(api):
            yield from self._become_leader(api)
            return
        yield Broadcast(
            self.family.vote(
                self.current_term, api.pid, self.log.last_index, self.log.last_term
            ),
            include_self=False,
        )

    def _on_request_vote(self, api: ProcessAPI, msg: RequestVote) -> ProtocolGenerator:
        # Lease stickiness: within ``lease_duration`` of hearing from the
        # current leader we refuse challengers *without adopting their
        # term* — this is the follower half of the leader lease.  The
        # leader's lease expiry is ``round_start + lease_duration`` on its
        # clock; any rival majority intersects the majority that acked
        # that round at times >= round_start, and the intersection refuses
        # here until the lease is over.  The known leader itself is exempt
        # (only the lease holder may bypass its own lease).
        if self.reads.sticky(api.now) and msg.candidate_id != self.leader_hint:
            yield Send(
                msg.candidate_id,
                self.family.vote_reply(self.current_term, False, api.pid),
            )
            return
        yield from self._saw_epoch(api, msg.term)
        grant = (
            msg.term == self.current_term
            and self.voted_for in (None, msg.candidate_id)
            and self.log.other_is_up_to_date(msg.last_log_term, msg.last_log_index)
        )
        if grant:
            self.voted_for = msg.candidate_id
            yield from self.trigger.on_campaign_observed(api)
        yield Send(
            msg.candidate_id,
            self.family.vote_reply(self.current_term, grant, api.pid),
        )

    def _on_request_vote_reply(
        self, api: ProcessAPI, msg: RequestVoteReply
    ) -> ProtocolGenerator:
        yield from self._saw_epoch(api, msg.term)
        if (
            self.state is not CANDIDATE
            or msg.term != self.current_term
            or not msg.vote_granted
        ):
            return
        self._votes.add(msg.voter_id)
        if len(self._votes) >= self._majority(api):
            yield from self._become_leader(api)

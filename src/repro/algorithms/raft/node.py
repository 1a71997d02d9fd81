"""The Raft engine: RequestVote and the randomized election timer.

One :class:`RaftNode` is a :class:`~repro.sim.process.Process` for the
asynchronous runtime.  Log replication, the commit rule, apply,
compaction, snapshots, client proposals and the read path are the shared
:class:`~repro.algorithms.raft.replication.ReplicatedLogNode` core (paper
Algorithm 10); this module is what is left that is Raft's own — the
paper's reconciliator (Algorithm 11) and the election it starts:

* three states (follower / candidate / leader) with randomized election
  timers, re-armed on every sign of a live leader;
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

from typing import Set, Tuple

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
    HEARTBEAT,
    LEADER,
    ReplicatedLogNode,
)
from repro.core.confidence import VACILLATE
from repro.sim.messages import Pid
from repro.sim.ops import Annotate, Broadcast, Receive, Send, SetTimer, TimerFired
from repro.sim.process import ProcessAPI, ProtocolGenerator

#: Raft's candidate phase (``FOLLOWER``/``LEADER`` are the core's).
CANDIDATE = "candidate"

__all__ = ["CANDIDATE", "FOLLOWER", "LEADER", "RaftNode"]


class RaftNode(ReplicatedLogNode):
    """A full Raft participant: the replicated-log core plus Raft's
    election rule.

    Args:
        election_timeout: ``(low, high)`` range the randomized election
            timer is drawn from.  Per the paper's *timing property* this
            must be much larger than the network's broadcast time.
        **kwargs: the core's arguments
            (:class:`~repro.algorithms.raft.replication.ReplicatedLogNode`).

    Attributes (durable across crashes):
        current_term, voted_for, log — Raft's persistent state (Figure 2).
    """

    APPEND_CLS = AppendEntries
    APPEND_REPLY_CLS = AppendEntriesReply
    SNAPSHOT_CLS = InstallSnapshot
    SNAPSHOT_REPLY_CLS = InstallSnapshotReply

    def __init__(
        self,
        *,
        election_timeout: Tuple[float, float] = (10.0, 20.0),
        **kwargs,
    ):
        low, high = election_timeout
        if not 0 < low <= high:
            raise ValueError("election_timeout must satisfy 0 < low <= high")
        super().__init__(**kwargs)
        self.election_timeout = election_timeout
        self._votes: Set[Pid] = set()
        self._election_epoch = 0

    def run(self, api: ProcessAPI) -> ProtocolGenerator:
        self._votes = set()
        yield from self._boot(api)
        yield self._arm_election_timer(api)
        while True:
            envelopes = yield Receive(count=1)
            payload = envelopes[0].payload
            if isinstance(payload, TimerFired) and payload.name != HEARTBEAT:
                yield from self._on_election_timer(api, payload)
            elif isinstance(payload, RequestVote):
                yield from self._on_request_vote(api, payload)
            elif isinstance(payload, RequestVoteReply):
                yield from self._on_request_vote_reply(api, payload)
            else:
                yield from self._on_replication(api, payload)

    # ------------------------------------------------------------------
    # Timers (the reconciliator, Algorithm 11)
    # ------------------------------------------------------------------

    def _arm_election_timer(self, api: ProcessAPI) -> SetTimer:
        """(Re-)arm the election timer with a fresh random timeout.

        The epoch embedded in the timer name invalidates fired-but-not-yet-
        consumed timer events from before the reset.
        """
        self._election_epoch += 1
        timeout = api.rng.uniform(*self.election_timeout)
        return SetTimer(timeout, f"election:{self._election_epoch}")

    def _on_election_timer(self, api: ProcessAPI, fired: TimerFired) -> ProtocolGenerator:
        if fired.name.startswith("election:"):
            epoch = int(fired.name.split(":", 1)[1])
            if epoch == self._election_epoch and self.state != LEADER:
                yield from self._start_election(api)

    def _on_leader_contact(self, api: ProcessAPI, leader: Pid) -> ProtocolGenerator:
        yield self._arm_election_timer(api)

    def _on_demoted(self, api: ProcessAPI) -> ProtocolGenerator:
        yield self._arm_election_timer(api)

    def _start_election(self, api: ProcessAPI) -> ProtocolGenerator:
        """Timer expiry: increment the term and solicit votes (Algorithm 11)."""
        self.current_term += 1
        self.state = CANDIDATE
        self.voted_for = api.pid
        self.leader_hint = None
        self._votes = {api.pid}
        value = self._current_value(api)
        yield Annotate("vac", (self.current_term, VACILLATE, value))
        yield Annotate("reconciled", (self.current_term, value))
        yield self._arm_election_timer(api)
        if len(self._votes) >= self._majority(api):
            yield from self._become_leader(api)
            return
        yield Broadcast(
            RequestVote(
                self.current_term, api.pid, self.log.last_index, self.log.last_term
            ),
            include_self=False,
        )

    # ------------------------------------------------------------------
    # Elections
    # ------------------------------------------------------------------

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
                RequestVoteReply(self.current_term, False, api.pid),
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
            yield self._arm_election_timer(api)
        yield Send(
            msg.candidate_id, RequestVoteReply(self.current_term, grant, api.pid)
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

    def _become_leader(self, api: ProcessAPI) -> ProtocolGenerator:
        self._election_epoch += 1  # "freeze timer T" (Algorithm 10)
        yield from super()._become_leader(api)

"""The replicated-log core under every live engine (paper Algorithm 10).

The source paper splits Raft into an *agreement detector* — Algorithm 10:
a leader replicates entries, counts a majority, commits — and a
*reconciliator* — Algorithm 11: the timer that starts an election — and
claims the two are interchangeable objects.  Howard & Mortier reach the
same place from the other side: Paxos and Raft differ essentially in how
a leader is elected.  :class:`ReplicatedLogNode` is that split made
structural.  It is Algorithm 10, once; a node is this core plus one of
two election rules plus one trigger:

* the rule says how leadership is won —
  :class:`~repro.algorithms.raft.node.RaftNode` (RequestVote and vote
  counting) or :class:`~repro.algorithms.replica.BallotReplicaNode`
  (prepare / promise / nack and the suffix merge);
* the trigger (:mod:`repro.algorithms.trigger`) says when to campaign —
  a randomized election timer or a live Ω detector.

It lives in the ``raft`` package because everything it is built from
already does, pinned there by wire names: the log and its entries, the
state machines, :class:`~repro.algorithms.raft.messages.ClientPropose`.

What the core owns
------------------

* the durable fields (``current_term``, ``voted_for``, ``log``,
  ``machine_snapshot``) and the volatile ones, their reset on restart and
  recovery from a durable snapshot;
* *delta replication*: per-follower ``next_index``/``match_index`` cursors
  plus a ``sent_index`` pipeline cursor, so each message carries only the
  entries the follower has not already been sent; a follower whose needed
  suffix was compacted is sent the snapshot;
* *linear repair*: a rejection carries the follower's hint (the highest
  index that can still match), the leader drops ``next_index`` to it and
  probes with empty appends until a success ack, then ships one suffix —
  so a follower K entries behind costs O(K) entries, however many stale
  rejections (replayed deltas, duplicate probes) arrive meanwhile;
* follower accept with *ack coalescing*: success replies to empty
  heartbeats that repeat an already-acknowledged state are suppressed,
  with a bounded backstop so a lost ack cannot stall commit advancement;
* ack handling, including the *lease* — a success ack proves the
  follower deferred elections since the oldest unacked send, so
  ordinary replication traffic renews the read lease with no extra frame;
* the commit rule (majority match *and* entry of the current epoch),
  apply, decision reporting, compaction, snapshot install;
* client proposals with duplicate detection;
* the read path, riding the same stream: a ReadIndex barrier bumps the
  read sequence every append carries, replies echo it, a majority of
  echoes confirms the barrier, and appends carry the confirmed sequence
  back so followers prove their freshness;
* the leader's heartbeat timer.

What the election rule and the trigger supply
---------------------------------------------

* the rule: its :class:`WireFamily` — the core's four replication
  message classes, read through Raft's field names, plus its own
  election messages, which its ``run`` dispatches before handing
  everything else to :meth:`_on_replication`; :meth:`campaign`; and
  when to call :meth:`_become_leader`, with the invariant that a node is
  ``LEADER`` only under its own ``current_term`` (Raft's term, a ballot
  replica's promised ballot);
* the trigger (:class:`~repro.algorithms.trigger.Trigger`): everything
  the core's seams report — boot, timers other than the heartbeat,
  leader contact, demotion, payloads nobody else knows — and the call to
  :meth:`campaign`.

Every adoption of a higher epoch goes through :meth:`_saw_epoch`, the one
step-down function.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, FrozenSet, Optional, Set, Tuple

from repro.algorithms.raft.log import Entry, RaftLog
from repro.algorithms.raft.messages import ClientPropose
from repro.algorithms.raft.state_machine import (
    DecideAndStop,
    DecideStateMachine,
    StateMachine,
)
from repro.algorithms.readpath import ReadBarrier, ReadConfig, ReadLedger
from repro.core.confidence import ADOPT, COMMIT
from repro.sim.messages import Pid
from repro.sim.ops import Annotate, Decide, Send, SetTimer, TimerFired
from repro.sim.process import Process, ProcessAPI, ProtocolGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.algorithms.trigger import Trigger

#: Node states shared by every election rule, compared by identity.  Each
#: rule adds its own candidate phase (Raft's ``CANDIDATE``, the ballot
#: rule's ``PREPARING``).
FOLLOWER = "follower"
LEADER = "leader"

#: Name of the leader's periodic empty-append timer.
HEARTBEAT = "heartbeat"


@dataclass(frozen=True)
class WireFamily:
    """One engine's message classes, by role.

    The core sends and dispatches the four replication roles; an election
    rule's family adds its own election messages.  :attr:`classes` is the
    whole set, which the live wire filter admits.
    """

    append: type
    append_reply: type
    snapshot: type
    snapshot_reply: type

    @property
    def classes(self) -> FrozenSet[type]:
        return frozenset(getattr(self, field.name) for field in fields(self))


class ReplicatedLogNode(Process):
    """Log replication, commit, apply and reads; abstract over election.

    Args:
        family: the message classes this node speaks.
        trigger: decides when this node campaigns; one per node.
        heartbeat_interval: period of the leader's empty appends.
        state_machine_factory: builds the node's state machine (default:
            the paper's decide-and-stop machine).
        propose_on_leadership: run Algorithm 7 — a fresh leader appends
            ``D&S(v*)`` immediately.  Disable for pure log-replication
            clusters driven by client proposals.
        snapshot_threshold: when set, compact the log once the applied
            prefix beyond the last snapshot reaches this many entries;
            followers whose needed suffix was compacted are repaired with
            a snapshot message.
        cluster_size: number of members, which are pids
            ``0 .. cluster_size - 1``.  Defaults to every simulated
            process — pass it explicitly whenever non-member processes
            (clients, observers) share the network, since majorities and
            replication fan-out must only count members.
        read_config: lease duration and drift bound of the fast read
            path; ``None`` keeps it inert.

    Attributes (durable across crashes, interceptable by
    :class:`repro.storage.engine.DurableNode`):
        current_term, voted_for, log, machine_snapshot.

    Attributes (volatile, observable by tests):
        state, commit_index, last_applied, machine, leader_hint.
    """

    #: Commands that commit and apply as nothing.
    INERT_COMMANDS: Tuple[type, ...] = ()

    #: Re-ack at least every this-many suppressed redundant heartbeats.
    ACK_REACK_EVERY = 3

    def __init__(
        self,
        *,
        family: WireFamily,
        trigger: "Trigger",
        heartbeat_interval: float = 2.0,
        state_machine_factory: Callable[[], StateMachine] = DecideStateMachine,
        propose_on_leadership: bool = True,
        snapshot_threshold: Optional[int] = None,
        cluster_size: Optional[int] = None,
        read_config: Optional[ReadConfig] = None,
    ):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if snapshot_threshold is not None and snapshot_threshold < 1:
            raise ValueError("snapshot_threshold must be >= 1")
        if cluster_size is not None and cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        #: Message classes, constructed and read through Raft's field
        #: names (``term``, ``leader_id``, ``prev_log_index`` …).
        self.family = family
        self.trigger = trigger
        trigger.node = self
        self.cluster_size = cluster_size
        self.heartbeat_interval = heartbeat_interval
        self.propose_on_leadership = propose_on_leadership
        self.snapshot_threshold = snapshot_threshold
        # Durable state (Figure 2) — survives crash/restart.
        #: Highest epoch seen: Raft's term, the ballot engines' promise.
        self.current_term = 0
        #: The vote cast in ``current_term``.  Stays ``None`` in the
        #: ballot engines, where promising *is* the vote.
        self.voted_for: Optional[Pid] = None
        self.log = RaftLog()
        self.machine_snapshot: Any = None  # state image at log.snapshot_index
        # Volatile state — reset by _boot().
        self.machine = state_machine_factory()
        self.state = FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.next_index: Dict[Pid, int] = {}
        self.match_index: Dict[Pid, int] = {}
        #: Pipeline cursor: highest log index already *sent* to each
        #: follower (acknowledged or still in flight).  Deltas start at
        #: ``sent_index + 1``; rejections rewind it to ``next_index - 1``.
        self.sent_index: Dict[Pid, int] = {}
        #: Followers in probe mode: a rejection broke their stream, so
        #: until a success ack every send is an empty append at
        #: ``next_index - 1`` and ``sent_index`` stays frozen.
        self._probing: Set[Pid] = set()
        self._decided = False
        #: Last known leader of the current epoch (``None`` during
        #: elections) — the redirect hint live KV frontends serve clients.
        self.leader_hint: Optional[Pid] = None
        #: Proposal ids already accepted this incarnation (fast-path
        #: duplicate check; the log scan remains the backstop for
        #: proposals first logged under an earlier leader or incarnation).
        self._proposed_ids: Set[Any] = set()
        # Follower-side ack coalescing: the last success-ack state sent,
        # and how many redundant heartbeat acks were skipped since.
        self._last_ack: Optional[Tuple[int, Pid, int, int, int]] = None
        self._ack_skips = 0
        # Lease evidence (leader-side): the *oldest unacked* append send
        # time per follower.  A success ack proves the follower deferred
        # elections from that send onward.
        self._ae_sent: Dict[Pid, float] = {}
        # ReadIndex (leader-side, reset each leadership): the read
        # sequence appends carry, the newest one a majority has echoed,
        # each follower's highest echo, and the unconfirmed barriers as
        # (seq, read index, barrier id) in seq order.
        self._read_seq = 0
        self._read_confirmed = 0
        self._read_echo: Dict[Pid, int] = {}
        self._barriers: Deque[Tuple[int, int, Any]] = deque()
        #: Fast-read-path arithmetic: leader-contact stickiness, the
        #: lease, follower freshness.  Inert unless a lease duration is
        #: configured or a :class:`ReadBarrier` is injected.
        self.reads = ReadLedger(read_config)

    # ------------------------------------------------------------------
    # The election seam
    # ------------------------------------------------------------------

    def campaign(self, api: ProcessAPI) -> ProtocolGenerator:
        """Seek leadership under a fresh epoch: the election rule's one
        entry, called by the trigger."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _saw_epoch(self, api: ProcessAPI, epoch: int) -> ProtocolGenerator:
        """Adopt a higher epoch and stop leading or campaigning.

        The single step-down: every handler that reads an epoch off a
        message calls this first.  Unconfirmed barriers and lease
        evidence belong to the old epoch and are dropped; a hint that
        still names this node would tell clients (and an Ω-driven
        election rule) that it leads, so it is cleared.
        """
        if epoch <= self.current_term:
            return
        self.current_term = epoch
        self.voted_for = None
        self.reads.drop_acks()
        self._ae_sent = {}
        self._barriers.clear()
        if self.leader_hint == api.pid:
            self.leader_hint = None
        if self.state is not FOLLOWER:
            self.state = FOLLOWER
            yield from self.trigger.on_demoted(api)

    def _follow(self, api: ProcessAPI, epoch: int, leader: Pid) -> ProtocolGenerator:
        """Accept ``leader`` as the live leader of ``epoch`` (>= ours)."""
        yield from self._saw_epoch(api, epoch)
        self.state = FOLLOWER  # a candidate concedes to a leader of its epoch
        self.leader_hint = leader
        self.reads.note_leader_contact(api.now)

    def _become_leader(self, api: ProcessAPI) -> ProtocolGenerator:
        """Election won under ``current_term``: adopt, start replicating."""
        self.state = LEADER
        self.leader_hint = api.pid
        self.next_index = {
            pid: self.log.last_index + 1 for pid in self._members(api) if pid != api.pid
        }
        self.match_index = {pid: 0 for pid in self.next_index}
        # Nothing from this incarnation is in flight yet: the pipeline
        # cursor starts at the optimistic floor, so the first append of
        # the epoch carries exactly the (possibly empty) new suffix.
        self.sent_index = {pid: index - 1 for pid, index in self.next_index.items()}
        self._probing = set()
        self._ae_sent = {}  # no sends from this incarnation acked yet
        self._reset_reads()
        value = self._current_value(api)
        if self.propose_on_leadership:
            self.log.append_new(Entry(self.current_term, DecideAndStop(value)))
        yield Annotate("vac", (self.current_term, ADOPT, value))
        yield Annotate("leader", (self.current_term, api.pid))
        yield from self._broadcast_append_entries(api)
        yield SetTimer(self.heartbeat_interval, HEARTBEAT)
        yield from self._advance_commit(api)  # n == 1: commit immediately

    # ------------------------------------------------------------------
    # Boot and dispatch
    # ------------------------------------------------------------------

    def _boot(self, api: ProcessAPI) -> ProtocolGenerator:
        """Reset volatile state, recover from the durable snapshot, then
        start the trigger."""
        self.state = FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.machine.reset()
        self.next_index = {}
        self.match_index = {}
        self.sent_index = {}
        self._probing = set()
        self._decided = False
        self.leader_hint = None
        self._proposed_ids = set()
        self._last_ack = None
        self._ack_skips = 0
        self._ae_sent = {}
        self._reset_reads()
        self.reads.reset()
        if self.log.snapshot_index > 0:
            # The compacted prefix can no longer be replayed entry by
            # entry.
            self.machine.restore(self.machine_snapshot)
            self.commit_index = self.log.snapshot_index
            self.last_applied = self.log.snapshot_index
            yield from self._report_decision(api)
        yield from self.trigger.boot(api)

    def _on_replication(self, api: ProcessAPI, payload: Any) -> ProtocolGenerator:
        """Everything that is not the election rule's own messages."""
        family = self.family
        if isinstance(payload, family.append):
            yield from self._on_append_entries(api, payload)
        elif isinstance(payload, family.append_reply):
            yield from self._on_append_entries_reply(api, payload)
        elif isinstance(payload, ClientPropose):
            yield from self._on_client_propose(api, payload)
        elif isinstance(payload, TimerFired):
            if payload.name != HEARTBEAT:
                yield from self.trigger.on_timer(api, payload)
            elif self.state is LEADER:
                yield from self._broadcast_append_entries(api, heartbeat=True)
                yield SetTimer(self.heartbeat_interval, HEARTBEAT)
        elif isinstance(payload, family.snapshot):
            yield from self._on_install_snapshot(api, payload)
        elif isinstance(payload, family.snapshot_reply):
            yield from self._on_install_snapshot_reply(api, payload)
        elif isinstance(payload, ReadBarrier):
            yield from self._on_read_barrier(api, payload)
        else:
            yield from self.trigger.on_message(api, payload)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def _members(self, api: ProcessAPI) -> range:
        """The cluster members (excludes co-simulated clients)."""
        return range(self.cluster_size if self.cluster_size is not None else api.n)

    def _majority(self, api: ProcessAPI) -> int:
        """Strict majority of the *cluster*, not of all simulated processes."""
        return len(self._members(api)) // 2 + 1

    # ------------------------------------------------------------------
    # Log replication
    # ------------------------------------------------------------------

    def _broadcast_append_entries(
        self, api: ProcessAPI, *, heartbeat: bool = False
    ) -> ProtocolGenerator:
        for pid in self._members(api):
            if pid != api.pid:
                yield from self._send_append_entries(api, pid, heartbeat=heartbeat)

    def _send_append_entries(
        self, api: ProcessAPI, dst: Pid, *, heartbeat: bool = False
    ) -> ProtocolGenerator:
        # Delta replication: everything up to ``sent_index`` is already in
        # flight (or acknowledged), so this message carries only the new
        # suffix beyond it — linear bytes per entry no matter how many
        # proposals are pipelined.  ``next_index`` stays the repair floor:
        # a follower in probe mode gets an empty append at the floor
        # instead, and ``sent_index`` stays put until it acks.
        probing = dst in self._probing
        start = self.next_index[dst]
        sent = self.sent_index.get(dst, start - 1)
        if sent + 1 > start and not probing:
            start = sent + 1
        prev_index = start - 1
        if prev_index < self.log.snapshot_index:
            if probing and sent >= self.log.snapshot_index and not heartbeat:
                return  # the snapshot is in flight; heartbeats re-send it
            # The suffix this follower needs was compacted: ship the
            # snapshot instead of entries.
            yield Send(
                dst,
                self.family.snapshot(
                    term=self.current_term,
                    leader_id=api.pid,
                    last_included_index=self.log.snapshot_index,
                    last_included_term=self.log.snapshot_term,
                    machine_state=self.machine_snapshot,
                ),
            )
            self.sent_index[dst] = self.log.snapshot_index
            return
        if self.reads.enabled and dst not in self._ae_sent:
            # Lease evidence anchors at the *oldest* unacked send: recording
            # before the Send executes under-estimates, never over-extends.
            self._ae_sent[dst] = api.now
        yield Send(
            dst,
            self.family.append(
                term=self.current_term,
                leader_id=api.pid,
                prev_log_index=prev_index,
                prev_log_term=self.log.term_at(prev_index),
                entries=() if probing else self.log.entries_from(start),
                leader_commit=self.commit_index,
                read_seq=self._read_seq,
                read_confirmed=self._read_confirmed,
            ),
        )
        if not probing:
            self.sent_index[dst] = self.log.last_index

    def _on_append_entries(self, api: ProcessAPI, msg: Any) -> ProtocolGenerator:
        if msg.term < self.current_term:
            yield Send(
                msg.leader_id,
                self.family.append_reply(self.current_term, False, api.pid),
            )
            return
        yield from self._follow(api, msg.term, msg.leader_id)
        yield from self.trigger.on_leader_contact(api, msg.leader_id)
        # Taking the read sequence is accepting the epoch, so even a
        # rejection below echoes it.
        echo = self.reads.note_append(
            msg.term, msg.read_seq, msg.leader_commit, api.now
        )
        ok = self.log.try_append(msg.prev_log_index, msg.prev_log_term, msg.entries)
        if not ok:
            # The repair hint: nothing past it can match the leader.  The
            # leader now probes, so its next empty append must be answered
            # even if it repeats an already-acknowledged state.
            self._last_ack = None
            hint = min(msg.prev_log_index - 1, self.log.last_index)
            yield Send(
                msg.leader_id,
                self.family.append_reply(
                    self.current_term, False, api.pid, hint, echo
                ),
            )
            return
        match = msg.prev_log_index + len(msg.entries)
        if msg.entries:
            last = msg.entries[-1]
            if isinstance(last.command, DecideAndStop):
                yield Annotate("vac", (msg.term, ADOPT, last.command.value))
        if msg.leader_commit > self.commit_index:
            self.commit_index = max(self.commit_index, min(msg.leader_commit, match))
            yield from self._apply_committed(api)
        if msg.read_confirmed:
            self.reads.note_confirmed(msg.read_confirmed, self.last_applied)
        # Ack coalescing: an empty heartbeat that confirms the exact state
        # the leader already heard carries no information — skip the reply,
        # but re-ack every few suppressions so a lost ack is always
        # retransmitted eventually (commit liveness under message loss).
        # A new read sequence is new information, so a barrier is always
        # answered.
        ack = (self.current_term, msg.leader_id, match, self.commit_index, echo)
        if (
            not msg.entries
            and ack == self._last_ack
            and self._ack_skips < self.ACK_REACK_EVERY
        ):
            self._ack_skips += 1
            return
        self._last_ack = ack
        self._ack_skips = 0
        yield Send(
            msg.leader_id,
            self.family.append_reply(self.current_term, True, api.pid, match, echo),
        )

    def _on_append_entries_reply(self, api: ProcessAPI, msg: Any) -> ProtocolGenerator:
        yield from self._saw_epoch(api, msg.term)
        if self.state is not LEADER or msg.term != self.current_term:
            return
        follower = msg.follower_id
        if msg.read_seq > self._read_echo.get(follower, 0):
            yield from self._confirm_reads(api, follower, msg.read_seq)
        if msg.success:
            self._probing.discard(follower)  # streaming resumes below
            sent = self._ae_sent.pop(follower, None)
            if sent is not None and self.reads.enabled:
                # Lease renewal: this ack confirms every append sent to
                # ``follower`` since ``sent``.
                self.reads.note_ack_time(
                    follower, sent, self._majority(api), api.now
                )
            match = max(self.match_index.get(follower, 0), msg.match_index)
            self.match_index[follower] = match
            self.next_index[follower] = match + 1
            if self.sent_index.get(follower, 0) < match:
                self.sent_index[follower] = match
            yield from self._advance_commit(api)
            if self.sent_index.get(follower, 0) < self.log.last_index:
                # Entries appended since the last send: ship just the delta.
                yield from self._send_append_entries(api, follower)
        else:
            # Repair: drop the floor to the follower's hint (never raise
            # it) and probe there.  A rejection that leaves the floor
            # where an outstanding probe already asks says nothing new.
            floor = max(1, min(self.next_index[follower], msg.match_index + 1))
            if follower in self._probing and floor == self.next_index[follower]:
                return
            self.next_index[follower] = floor
            if self.match_index.get(follower, 0) >= floor:
                # The follower lost entries (a restart without its disk):
                # it no longer counts toward committing them.
                self.match_index[follower] = floor - 1
            self._probing.add(follower)
            self.sent_index[follower] = floor - 1
            yield from self._send_append_entries(api, follower)

    def _advance_commit(self, api: ProcessAPI) -> ProtocolGenerator:
        """Leader commit rule: majority match and current-epoch entry."""
        advanced = False
        for candidate in range(self.log.last_index, self.commit_index, -1):
            if self.log.term_at(candidate) != self.current_term:
                break  # older-epoch entries commit only transitively
            replicas = 1 + sum(
                1 for index in self.match_index.values() if index >= candidate
            )
            if replicas >= self._majority(api):
                self.commit_index = candidate
                advanced = True
                break
        if advanced:
            yield from self._apply_committed(api)
            # The paper's second-kind AppendEntries: tell everyone the new
            # commit index without waiting for the next heartbeat.
            yield from self._broadcast_append_entries(api)

    def _apply_committed(self, api: ProcessAPI) -> ProtocolGenerator:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log.entry_at(self.last_applied)
            if not isinstance(entry.command, self.INERT_COMMANDS):
                self.machine.apply(self.last_applied, entry.command)
            yield Annotate(
                "applied", (self.last_applied, entry.term, entry.command)
            )
            yield from self._report_decision(api)
        yield from self._maybe_compact(api)

    def _report_decision(self, api: ProcessAPI) -> ProtocolGenerator:
        """Surface a decide-and-stop machine's decision exactly once."""
        if (
            isinstance(self.machine, DecideStateMachine)
            and self.machine.decision is not None
            and not self._decided
        ):
            self._decided = True
            yield Annotate(
                "vac", (self.current_term, COMMIT, self.machine.decision)
            )
            yield Decide(self.machine.decision)

    # ------------------------------------------------------------------
    # Log compaction and snapshot repair
    # ------------------------------------------------------------------

    def _maybe_compact(self, api: ProcessAPI) -> ProtocolGenerator:
        if self.snapshot_threshold is None:
            return
        applied_since = self.last_applied - self.log.snapshot_index
        if applied_since < self.snapshot_threshold:
            return
        self.machine_snapshot = self.machine.snapshot()
        self.log.compact_to(self.last_applied)
        yield Annotate(
            "compacted", (self.log.snapshot_index, self.log.snapshot_term)
        )

    def _on_install_snapshot(self, api: ProcessAPI, msg: Any) -> ProtocolGenerator:
        if msg.term < self.current_term:
            yield Send(
                msg.leader_id,
                self.family.snapshot_reply(self.current_term, api.pid, 0),
            )
            return
        yield from self._follow(api, msg.term, msg.leader_id)
        yield from self.trigger.on_leader_contact(api, msg.leader_id)
        if msg.last_included_index > self.log.snapshot_index:
            # Adopt the machine state before moving the log's snapshot
            # point: the log's compaction hook may persist the snapshot.
            self.machine_snapshot = msg.machine_state
            self.log.install_snapshot(
                msg.last_included_index, msg.last_included_term
            )
            self.machine.restore(msg.machine_state)
            self.commit_index = max(self.commit_index, msg.last_included_index)
            self.last_applied = max(self.last_applied, msg.last_included_index)
            yield Annotate(
                "snapshot_installed",
                (msg.last_included_index, msg.last_included_term),
            )
            yield from self._report_decision(api)
        yield Send(
            msg.leader_id,
            self.family.snapshot_reply(
                self.current_term, api.pid, msg.last_included_index
            ),
        )

    def _on_install_snapshot_reply(
        self, api: ProcessAPI, msg: Any
    ) -> ProtocolGenerator:
        yield from self._saw_epoch(api, msg.term)
        if self.state is not LEADER or msg.term != self.current_term:
            return
        follower = msg.follower_id
        if msg.last_included_index > 0:
            self._probing.discard(follower)
            self.match_index[follower] = max(
                self.match_index.get(follower, 0), msg.last_included_index
            )
            self.next_index[follower] = self.match_index[follower] + 1
            if self.sent_index.get(follower, 0) < self.match_index[follower]:
                self.sent_index[follower] = self.match_index[follower]
            if self.sent_index.get(follower, 0) < self.log.last_index:
                yield from self._send_append_entries(api, follower)

    # ------------------------------------------------------------------
    # Client proposals (general log replication)
    # ------------------------------------------------------------------

    def _on_client_propose(
        self, api: ProcessAPI, msg: ClientPropose
    ) -> ProtocolGenerator:
        if self.state is not LEADER:
            return
        if msg.proposal_id in self._proposed_ids:
            return  # retried proposal, fast path
        if self.log.contains_command(msg.command):
            self._proposed_ids.add(msg.proposal_id)
            return  # already logged (e.g. under a previous leader)
        self._proposed_ids.add(msg.proposal_id)
        self.log.append_new(Entry(self.current_term, msg.command))
        yield from self._broadcast_append_entries(api)
        yield from self._advance_commit(api)  # n == 1 clusters commit at once

    # ------------------------------------------------------------------
    # Fast read path (ReadIndex barriers over the append stream)
    # ------------------------------------------------------------------

    def _reset_reads(self) -> None:
        """Forget the leader-side ReadIndex state: it belongs to one
        leadership."""
        self._read_seq = 0
        self._read_confirmed = 0
        self._read_echo = {}
        self._barriers.clear()

    def _on_read_barrier(self, api: ProcessAPI, msg: ReadBarrier) -> ProtocolGenerator:
        """Locally-injected: confirm the current commit index as a read
        index.  Refused (``read_ready`` with index ``-1``) unless we are
        leader *and* have committed an entry of our own epoch — a fresh
        leader's commit index may lag its predecessor's.  Otherwise the
        barrier takes the next read sequence and broadcasts it on an
        append; a majority of echoes releases it (:meth:`_confirm_reads`)."""
        if self.state is not LEADER or not self.reads.epoch_ready(
            self.log, self.commit_index, self.current_term
        ):
            yield Annotate("read_ready", (msg.barrier_id, -1, False))
            return
        if self._majority(api) == 1:  # single-node group: we are the quorum
            self.reads.note_ack_time(api.pid, api.now, 1, api.now)
            yield Annotate("read_ready", (msg.barrier_id, self.commit_index, True))
            return
        self._read_seq += 1
        self._barriers.append((self._read_seq, self.commit_index, msg.barrier_id))
        yield from self._broadcast_append_entries(api)

    def _confirm_reads(self, api: ProcessAPI, follower: Pid, echo: int) -> ProtocolGenerator:
        """``follower`` echoed read sequence ``echo``: it took an append
        sent after every barrier up to ``echo`` and accepted our epoch.
        Once a majority, ourselves included, has echoed a barrier's
        sequence, no rival leader can have committed past its read index
        before it was recorded — it is released."""
        self._read_echo[follower] = echo
        needed = self._majority(api) - 1  # peers beyond ourselves
        echoes = sorted(self._read_echo.values(), reverse=True)
        if len(echoes) < needed or echoes[needed - 1] <= self._read_confirmed:
            return
        self._read_confirmed = confirmed = echoes[needed - 1]
        barriers = self._barriers
        while barriers and barriers[0][0] <= confirmed:
            _seq, read_index, barrier_id = barriers.popleft()
            yield Annotate("read_ready", (barrier_id, read_index, True))

    # ------------------------------------------------------------------
    # Values (Algorithm 7)
    # ------------------------------------------------------------------

    def _current_value(self, api: ProcessAPI) -> Any:
        """Algorithm 7's ``v*``: the last logged value, else the own input."""
        if self.log.last_index > 0:
            command = self.log.entry_at(self.log.last_index).command
            if isinstance(command, DecideAndStop):
                return command.value
        return api.init_value

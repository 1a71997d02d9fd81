"""Ballot elections: the prepare/promise rule under Multi-Paxos and CT.

The source paper's claim is that consensus decomposes into a *detector*
(who may lead?) and a *mixer* (how does a leader drive agreement?).  The
mixer — replicate, count a majority, commit — is the shared
:class:`~repro.algorithms.raft.replication.ReplicatedLogNode` core, the
same one Raft runs.  :class:`BallotReplicaNode` is the ballot world's
election rule, its way of *winning* leadership over that core — classic
Multi-Paxos phase 1 over totally ordered ballots.  When a node campaigns
is not its business but its trigger's (:mod:`repro.algorithms.trigger`),
and which messages it speaks is a constructor value, a
:class:`BallotFamily`.  Two live engines run this rule:

* ``paxos`` — :data:`~repro.algorithms.multi_paxos.messages.PAX_FAMILY`
  under a randomized election timer
  (:class:`~repro.algorithms.trigger.TimerTrigger`), Raft's trigger;
* ``ct`` — :data:`~repro.algorithms.chandra_toueg.replicated.CT_FAMILY`
  under a live Ω/◇S failure detector
  (:class:`~repro.algorithms.chandra_toueg.replicated.OmegaTrigger`).

Protocol (per ballot ``b``, totally ordered ints, see :func:`make_ballot`):

1. **Prepare** ``(b, from_index)`` — the campaigner asks everyone to
   promise ``b`` and report their accepted suffix from ``from_index``
   (entries are ballot-tagged; a compacted voter reports its snapshot).
2. **Promise** — granted iff ``b >= promised``; carries the suffix.  On a
   majority the campaigner *merges*: per slot it keeps the value accepted
   under the highest ballot (the Paxos value-choice rule, slot-wise), so
   every possibly-committed slot survives, then re-tags the uncommitted
   suffix under ``b`` and becomes leader.
3. From there the core streams the log (**Chain**, **ChainAck**,
   **Snapshot**, **SnapshotAck** are this family's names for its four
   replication messages); acceptors accept iff ``b >= promised``.  A slot
   commits once a majority acks it under ``b``; commit order is log order.

Safety is the standard Multi-Paxos argument: promises and commits both
need majorities, so a new leader's promise set intersects every commit's
accept set and the per-slot highest-ballot merge re-proposes every
committed value unchanged.  The three engines share every line of the
replication logic — the measured difference between them (experiment E17)
is therefore exactly the cost of their election rules and triggers, which
is the decomposed-overhead question the paper poses.

Each engine speaks its own family, so wire frames stay self-describing: a
Multi-Paxos frame arriving at a CT node (a misconfigured mixed cluster)
is recognizably foreign and the live engine seam fails loudly instead of
half-interoperating.  Both families subclass the seven shapes defined
here; field order is part of the wire format (the binary codec packs
positionally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.algorithms.raft.log import Entry
from repro.algorithms.raft.replication import (
    FOLLOWER,
    ReplicatedLogNode,
    WireFamily,
)
from repro.core.confidence import VACILLATE
from repro.sim.messages import Pid
from repro.sim.ops import Annotate, Receive, Send
from repro.sim.process import ProcessAPI, ProtocolGenerator

#: The ballot world's candidate phase (``FOLLOWER``/``LEADER`` are the
#: core's, so engine-generic code can compare any node's ``state`` by
#: identity).
PREPARING = "preparing"

#: Ballot encoding stride: ``ballot = counter * BALLOT_STRIDE + pid``.
#: Encoded ballots are plain ints — totally ordered, WAL-journallable in
#: the existing ``WalTerm``/``WalEntry`` frames, and cheap to compare on
#: the hot path.  Cluster sizes must stay below the stride (enforced by
#: ``MAX_SHARDS``-scale deployments by orders of magnitude).
BALLOT_STRIDE = 4096


def make_ballot(counter: int, pid: Pid) -> int:
    """Encode ``(counter, pid)`` as one totally ordered int."""
    return counter * BALLOT_STRIDE + pid


def ballot_counter(ballot: int) -> int:
    return ballot // BALLOT_STRIDE


def ballot_owner(ballot: int) -> Pid:
    """The pid that opened this ballot."""
    return ballot % BALLOT_STRIDE


@dataclass(frozen=True, slots=True)
class Noop:
    """A gap-filling no-op command (commits, applies as nothing)."""

    reason: str = "gap"


# ----------------------------------------------------------------------
# Message shapes (each engine subclasses all seven into its own family)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BallotFamily(WireFamily):
    """The core's four roles (chain, chain ack, snapshot, snapshot ack)
    plus the three phase-1 messages."""

    prepare: type
    promise: type
    prepare_nack: type


@dataclass(frozen=True, slots=True)
class BallotPrepare:
    """Phase-1a: campaign for ``ballot``; report suffix from ``from_index``."""

    ballot: int
    from_index: int
    sender: Pid


@dataclass(frozen=True, slots=True)
class BallotPromise:
    """Phase-1b grant: the voter's accepted suffix (and snapshot if its
    log was compacted at or past ``from_index``)."""

    ballot: int
    voter: Pid
    snapshot_index: int
    snapshot_ballot: int
    machine_state: Any
    from_index: int
    entries: Tuple[Entry, ...]


@dataclass(frozen=True, slots=True)
class BallotPrepareNack:
    """Phase-1b refusal: the voter already promised ``promised``."""

    ballot: int
    promised: int
    voter: Pid


@dataclass(frozen=True, slots=True)
class BallotChain:
    """Phase-2a stream: log delta after ``prev_log_index`` plus commit
    index (empty ``entries`` is the leader heartbeat).  ``term`` is the
    leader's ballot; the read fields are
    :class:`~repro.algorithms.raft.messages.AppendEntries`'s."""

    term: int
    leader_id: Pid
    prev_log_index: int
    prev_log_term: int
    entries: Tuple[Entry, ...]
    leader_commit: int
    read_seq: int = 0
    read_confirmed: int = 0


@dataclass(frozen=True, slots=True)
class BallotChainAck:
    """Phase-2b: accept (``success`` with ``match_index``) or refuse
    (``term`` carrying the higher promised ballot; ``match_index`` the
    repair hint and ``read_seq`` the echo, as on
    :class:`~repro.algorithms.raft.messages.AppendEntriesReply`)."""

    term: int
    success: bool
    follower_id: Pid
    match_index: int = 0
    read_seq: int = 0


@dataclass(frozen=True, slots=True)
class BallotSnapshot:
    """Snapshot repair for a follower whose needed suffix was compacted."""

    term: int
    leader_id: Pid
    last_included_index: int
    last_included_term: int
    machine_state: Any


@dataclass(frozen=True, slots=True)
class BallotSnapshotAck:
    """Follower acknowledges a snapshot installation."""

    term: int
    follower_id: Pid
    last_included_index: int


class BallotReplicaNode(ReplicatedLogNode):
    """Leadership by prepare/promise over totally ordered ballots.

    ``current_term`` is the promised ballot (also readable as
    ``promised``); a node is ``PREPARING`` or ``LEADER`` only under a
    ballot it opened itself, because every adoption of a higher one goes
    through the core's step-down.

    Args:
        family: the :class:`BallotFamily` this node speaks.
        trigger: when to campaign (:mod:`repro.algorithms.trigger`).
        propose_on_leadership: consensus mode — a fresh leader proposes
            ``DecideAndStop(init_value)``, so the cluster decides one
            value and the run terminates (the sim harness); off for
            replicated-log service use.
        **kwargs: the core's other arguments.
    """

    INERT_COMMANDS = (Noop,)

    def __init__(self, *, propose_on_leadership: bool = False, **kwargs):
        super().__init__(propose_on_leadership=propose_on_leadership, **kwargs)
        self._promises: Dict[Pid, Any] = {}
        self._max_ballot_seen = 0

    @property
    def promised(self) -> int:
        """The highest ballot promised (0 = none yet): the core's epoch."""
        return self.current_term

    @promised.setter
    def promised(self, ballot: int) -> None:
        self.current_term = ballot

    # ------------------------------------------------------------------
    # Main event loop
    # ------------------------------------------------------------------

    def run(self, api: ProcessAPI) -> ProtocolGenerator:
        self._promises = {}
        self._max_ballot_seen = self.promised
        yield from self._boot(api)
        while True:
            envelopes = yield Receive(count=1)
            payload = envelopes[0].payload
            if isinstance(payload, self.family.prepare):
                yield from self._on_prepare(api, payload)
            elif isinstance(payload, self.family.promise):
                yield from self._on_promise(api, payload)
            elif isinstance(payload, self.family.prepare_nack):
                yield from self._on_prepare_nack(api, payload)
            else:
                yield from self._on_replication(api, payload)

    # ------------------------------------------------------------------
    # Campaigning (phase 1)
    # ------------------------------------------------------------------

    def _observe(self, ballot: int) -> None:
        """Remember a ballot seen but not adopted, so the next campaign
        opens above it."""
        if ballot > self._max_ballot_seen:
            self._max_ballot_seen = ballot

    def campaign(self, api: ProcessAPI) -> ProtocolGenerator:
        """Open a fresh ballot above everything seen and solicit promises."""
        counter = ballot_counter(max(self.promised, self._max_ballot_seen)) + 1
        ballot = make_ballot(counter, api.pid)
        self.state = PREPARING
        self.promised = ballot  # self-promise, durable before any reply
        self.leader_hint = None
        from_index = self.commit_index + 1
        self._promises = {api.pid: self._make_promise(ballot, api.pid, from_index)}
        value = self._current_value(api)
        yield Annotate("vac", (ballot, VACILLATE, value))
        yield Annotate("reconciled", (ballot, value))
        if len(self._promises) >= self._majority(api):
            yield from self._become_leader(api)
            return
        for pid in self._members(api):
            if pid != api.pid:
                yield Send(pid, self.family.prepare(ballot, from_index, api.pid))

    def _make_promise(self, ballot: int, voter: Pid, from_index: int) -> Any:
        """This node's suffix report from ``from_index``."""
        snap_index = snap_ballot = 0
        machine_state = None
        if self.log.snapshot_index >= from_index:
            snap_index = self.log.snapshot_index
            snap_ballot = self.log.snapshot_term
            machine_state = self.machine_snapshot
        start = max(from_index, self.log.snapshot_index + 1)
        entries: Tuple[Entry, ...] = ()
        if start <= self.log.last_index:
            entries = self.log.entries_from(start)
        return self.family.promise(
            ballot, voter, snap_index, snap_ballot, machine_state, start, entries
        )

    def _on_prepare(self, api: ProcessAPI, msg: Any) -> ProtocolGenerator:
        self._observe(msg.ballot)
        # Lease stickiness: within ``lease_duration`` of hearing from the
        # current leader, refuse challengers *without promising their
        # ballot* — the nack sends our unchanged ``promised``, so the
        # campaigner backs off exactly as on an ordinary lost campaign.
        # This is the ballot face of the same follower guarantee the Raft
        # engine enforces in its vote handler, and it is what makes the
        # leader's lease (round start + lease_duration) sound.
        if msg.ballot < self.promised or (
            self.reads.sticky(api.now) and msg.sender != self.leader_hint
        ):
            yield Send(
                msg.sender,
                self.family.prepare_nack(msg.ballot, self.promised, api.pid),
            )
            return
        yield from self._saw_epoch(api, msg.ballot)
        self.leader_hint = None  # a campaign is in progress
        yield from self.trigger.on_campaign_observed(api)
        yield Send(
            msg.sender, self._make_promise(msg.ballot, api.pid, msg.from_index)
        )

    def _on_promise(self, api: ProcessAPI, msg: Any) -> ProtocolGenerator:
        if self.state is not PREPARING or msg.ballot != self.promised:
            return
        self._promises[msg.voter] = msg
        if len(self._promises) >= self._majority(api):
            yield from self._become_leader(api)

    def _on_prepare_nack(self, api: ProcessAPI, msg: Any) -> ProtocolGenerator:
        self._observe(msg.promised)
        if self.state is PREPARING and msg.ballot == self.promised:
            self.state = FOLLOWER
            self._promises = {}
            yield from self.trigger.on_demoted(api)

    # ------------------------------------------------------------------
    # Winning: merge promised suffixes, re-tag, start streaming
    # ------------------------------------------------------------------

    def _become_leader(self, api: ProcessAPI) -> ProtocolGenerator:
        self._merge_promises()
        yield from super()._become_leader(api)

    def _merge_promises(self) -> None:
        """Adopt the freshest state a majority reported.

        Snapshot rule: if any voter compacted past our commit index, its
        snapshot embeds committed effects our entries below that point
        might miss — install the highest such snapshot first.  Entry
        rule: per slot, keep the value accepted under the highest ballot
        (our own log included), then re-tag everything uncommitted under
        the new ballot so the commit rule can count it directly.
        """
        ballot = self.promised
        best_snap = None
        for promise in self._promises.values():
            if promise.snapshot_index > 0 and (
                best_snap is None
                or promise.snapshot_index > best_snap.snapshot_index
            ):
                best_snap = promise
        if best_snap is not None and best_snap.snapshot_index > max(
            self.commit_index, self.log.snapshot_index
        ):
            self.machine_snapshot = best_snap.machine_state
            self.log.install_snapshot(
                best_snap.snapshot_index, best_snap.snapshot_ballot
            )
            self.machine.restore(best_snap.machine_state)
            self.commit_index = max(self.commit_index, best_snap.snapshot_index)
            self.last_applied = max(self.last_applied, best_snap.snapshot_index)
        # Per-slot highest-ballot choice over every reported suffix.
        merged: Dict[int, Entry] = {}
        for promise in self._promises.values():
            for offset, entry in enumerate(promise.entries):
                index = promise.from_index + offset
                if index <= self.log.snapshot_index:
                    continue
                kept = merged.get(index)
                if kept is None or entry.term > kept.term:
                    merged[index] = entry
        floor = self.log.snapshot_index
        for index in sorted(merged):
            if index <= floor:
                continue
            entry = merged[index]
            if index <= self.log.last_index:
                if self.log.term_at(index) >= entry.term:
                    continue  # local acceptance is at least as fresh
            elif index > self.log.last_index + 1:
                # A reported suffix started above our end: the gap can
                # only cover committed-elsewhere slots we missed; fill
                # with no-ops so log order stays dense (they commit and
                # apply as nothing).
                for gap in range(self.log.last_index + 1, index):
                    if gap not in merged:
                        self.log.append_new(Entry(ballot, Noop()))
            prev = index - 1
            self.log.try_append(prev, self.log.term_at(prev), (entry,))
        # Re-tag the uncommitted suffix under the winning ballot (the
        # Multi-Paxos re-proposal): committed entries keep their tags.
        start = max(self.commit_index, self.log.snapshot_index) + 1
        for index in range(start, self.log.last_index + 1):
            entry = self.log.entry_at(index)
            if entry.term != ballot:
                prev = index - 1
                self.log.try_append(
                    prev,
                    self.log.term_at(prev),
                    tuple(
                        Entry(ballot, e.command)
                        for e in self.log.entries_from(index)
                    ),
                )
                break
        self._promises = {}

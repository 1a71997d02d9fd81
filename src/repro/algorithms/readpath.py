"""The shared fast-read path: ReadIndex barriers, leases, and freshness.

Every consensus engine in this repo (raft, multi-paxos, chandra-toueg)
answers linearizable reads the *slow* way by default: the read is a
no-op command appended to the replicated log.  The three standard fast
tiers need one proof instead — that a majority still accepts this
leader's epoch — and the replicated-log core
(:class:`~repro.algorithms.raft.replication.ReplicatedLogNode`) already
collects it: a follower's ack to an append shows that it accepted the
leader's epoch when the append arrived.  So every read proof rides the
replication stream:

* **ReadIndex** — a locally injected :class:`ReadBarrier` makes the
  leader record its commit index, bump its *read sequence* and broadcast
  appends carrying it.  Every append reply echoes the highest sequence
  the follower took from this leader in this term; once a majority (the
  leader included) has echoed the barrier's sequence, the leader answers
  every read that queued for it when the applied index catches up.  No
  extra message type and no log writes.
* **Leases** — every success ack also *extends a lease*
  (:meth:`ReadLedger.note_ack_time`): for ``lease_duration`` seconds from
  the oldest send among the newest majority of acks, no other leader can
  exist, so reads are answered locally with zero rounds.  The guarantee
  does not come from election timers; it comes from *stickiness*: a
  replica that heard from a leader within ``lease_duration`` refuses to
  vote for (or promise to) a challenger — without adopting the
  challenger's term.  Any new leader needs a majority of votes; that
  majority intersects the majority that acked sends at times ``>=
  anchor``; the intersection refuses until ``anchor + lease_duration``.
  The argument is identical for Raft votes and Paxos/CT prepares, which
  is why one module serves all engines.
* **Freshness** — each append also carries the newest *confirmed*
  sequence.  A follower remembers when it first took each sequence and
  that append's ``leader_commit``; once the sequence is confirmed and
  its applied index has reached that commit index, its state reflects
  every write committed before the barrier, and it is fresh as of the
  receipt.  The follower tier serves reads whose staleness bound exceeds
  the age of the last such proof.  A deposed leader cannot confirm, so
  its cohort's freshness stops advancing the moment it is partitioned.

Clocks may drift.  :class:`DriftClock` models a clock running ``f``
times slow (the nemesis sets ``f`` on a live cluster), and the lease is
discounted by a configured ``drift_bound``: a leader whose clock runs at
most ``f_max`` times slow stays safe iff

    ``drift_bound >= lease_duration * (1 - 1 / f_max)``

since over a window the leader measures as ``lease_duration`` the real
clock advances up to ``lease_duration * f_max``.  See ``docs/reads.md``
for the full safety argument and the chaos campaign that attacks it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Tuple

from repro.sim.serialize import register_wire_type

__all__ = [
    "DriftClock",
    "ReadBarrier",
    "ReadConfig",
    "ReadLedger",
    "required_drift_bound",
]


@dataclass(frozen=True, slots=True)
class ReadBarrier:
    """Locally-injected request (never sent between nodes): confirm the
    current commit index as a read index.  The node answers with a
    ``read_ready`` annotation once a majority has echoed the barrier's
    read sequence (or immediately, refused)."""

    barrier_id: Tuple[Any, ...]


register_wire_type(ReadBarrier, "read:B")


# --------------------------------------------------------------------------
# Clock model.


class DriftClock:
    """A local clock running ``factor`` times *slow* relative to real time.

    ``factor == 1.0`` is a perfect clock.  ``factor == 4.0`` means that
    while real time advances 4 s the local clock advances 1 s — the
    dangerous direction for a lease holder, which *under*-measures how
    much real time its lease has consumed.  ``set_factor`` rebases so the
    local clock never jumps, only changes rate (as real skew does).
    """

    def __init__(self, factor: float = 1.0):
        if factor < 1.0:
            raise ValueError(f"drift factor must be >= 1, got {factor}")
        self.factor = factor
        self._base_real: Optional[float] = None
        self._base_local = 0.0

    def now(self, real: float) -> float:
        """The local clock reading at real time ``real``."""
        if self._base_real is None:
            self._base_real = real
            self._base_local = real
        return self._base_local + (real - self._base_real) / self.factor

    def set_factor(self, factor: float, real: float) -> None:
        """Change the drift rate at real time ``real`` (continuous)."""
        if factor < 1.0:
            raise ValueError(f"drift factor must be >= 1, got {factor}")
        self._base_local = self.now(real)
        self._base_real = real
        self.factor = factor


def required_drift_bound(lease_duration: float, max_factor: float) -> float:
    """The minimum safe ``drift_bound`` for a clock up to ``max_factor``
    times slow: ``lease_duration * (1 - 1/max_factor)``."""
    if max_factor < 1.0:
        raise ValueError(f"max_factor must be >= 1, got {max_factor}")
    return lease_duration * (1.0 - 1.0 / max_factor)


# --------------------------------------------------------------------------
# Per-node read ledger.


@dataclass(frozen=True)
class ReadConfig:
    """Read-path knobs handed to every node by the server layer.

    ``lease_duration`` is the stickiness window W (seconds, on each
    node's local clock): 0 disables the lease tier entirely (no
    stickiness, no lease accounting — exactly the pre-read-path
    behaviour).  ``drift_bound`` is subtracted from the lease the holder
    computed, covering clocks up to ``1 / (1 - drift_bound/W)`` times
    slow.
    """

    lease_duration: float = 0.0
    drift_bound: float = 0.0


class ReadLedger:
    """A node's read-path arithmetic: leader-contact stickiness, the
    lease, and follower freshness.

    All methods take the *real* wall-clock time and convert through the
    node's :class:`DriftClock`, so the nemesis can skew a node by mutating
    ``clock`` alone.
    """

    def __init__(self, config: Optional[ReadConfig] = None):
        self.config = config or ReadConfig()
        self.clock = DriftClock()
        self._last_contact: Optional[float] = None  # local clock
        self._lease_expiry = 0.0  # local clock
        self._last_fresh: Optional[float] = None  # local clock
        # Per-peer latest append send time (local clock) whose ack has
        # arrived — the lease's quorum evidence.
        self._ack_starts: Dict[int, float] = {}
        # Follower side: the epoch whose read sequences are being taken,
        # the highest one taken, and one (seq, received real time,
        # leader_commit) mark per sequence not yet proven fresh.
        self._epoch: Any = None
        self._taken = 0
        self._marks: Deque[Tuple[int, float, int]] = deque()

    # -- stickiness (the lease's other half, enforced by *followers*) ----

    @property
    def enabled(self) -> bool:
        """Whether the lease tier (stickiness + lease accounting) is on."""
        return self.config.lease_duration > 0.0

    def note_leader_contact(self, real: float) -> None:
        """An accepted frame from the current leader arrived now."""
        if self.enabled:
            self._last_contact = self.clock.now(real)

    def sticky(self, real: float) -> bool:
        """True while this node must refuse votes/promises to challengers:
        within ``lease_duration`` (local clock) of the last leader contact."""
        if not self.enabled or self._last_contact is None:
            return False
        return (
            self.clock.now(real) - self._last_contact
            < self.config.lease_duration
        )

    # -- lease (leader side) ---------------------------------------------

    def note_ack_time(
        self, peer: int, sent_real: float, majority: int, real: float
    ) -> bool:
        """Lease renewal, the only one: ``peer`` acknowledged an append
        the leader sent at ``sent_real``.

        An accepted append makes the follower sticky for W past its
        receipt, and receipt happened at-or-after our send.  So once a
        majority (the leader itself counts, at ``real``) has acked sends,
        no rival can be elected before ``anchor + W``, where ``anchor`` is
        the *oldest* send time among the newest majority-forming acks.
        Returns True when the lease actually extended.
        """
        if not self.enabled:
            return False
        sent_local = self.clock.now(sent_real)
        if sent_local > self._ack_starts.get(peer, float("-inf")):
            self._ack_starts[peer] = sent_local
        needed = majority - 1  # peers beyond the leader itself
        if needed <= 0:
            anchor = self.clock.now(real)
        else:
            starts = sorted(self._ack_starts.values(), reverse=True)
            if len(starts) < needed:
                return False
            anchor = starts[needed - 1]
        expiry = anchor + self.config.lease_duration
        if expiry > self._lease_expiry:
            self._lease_expiry = expiry
            return True
        return False

    def drop_acks(self) -> None:
        """Abandon the lease's ack evidence (leadership lost)."""
        self._ack_starts.clear()

    def lease_remaining(self, real: float) -> float:
        """Seconds of drift-discounted lease left (<= 0: not serveable)."""
        if not self.enabled:
            return 0.0
        return (
            self._lease_expiry
            - self.config.drift_bound
            - self.clock.now(real)
        )

    def lease_valid(self, real: float) -> bool:
        return self.lease_remaining(real) > 0.0

    # -- freshness (follower side) ---------------------------------------

    def note_append(
        self, epoch: Any, seq: int, leader_commit: int, real: float
    ) -> int:
        """An append of ``epoch`` (ours) carrying read sequence ``seq``
        and ``leader_commit`` arrived at ``real``.  Returns the highest
        sequence taken from this epoch's leader: what every reply to it
        echoes."""
        if epoch != self._epoch:
            self._epoch = epoch
            self._taken = 0
            self._marks.clear()
        if seq > self._taken:
            self._taken = seq
            self._marks.append((seq, real, leader_commit))
        return self._taken

    def note_confirmed(self, confirmed: int, applied: int) -> None:
        """The leader reports every read sequence up to ``confirmed``
        confirmed by a majority.  The newest such mark whose
        ``leader_commit`` we have applied proves us fresh as of its
        receipt; the marks it supersedes go with it."""
        marks = self._marks
        received = None
        while marks and marks[0][0] <= confirmed and marks[0][2] <= applied:
            received = marks.popleft()[1]
        if received is not None:
            self.note_fresh(received)

    def note_fresh(self, real: float) -> None:
        """Our state reflects every write committed before ``real``."""
        self._last_fresh = self.clock.now(real)

    def staleness(self, real: float) -> float:
        """Seconds since the last freshness proof (``inf`` if never)."""
        if self._last_fresh is None:
            return float("inf")
        return self.clock.now(real) - self._last_fresh

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Forget volatile read state (node restart); the clock and its
        drift factor survive — real clocks do not heal on reboot."""
        self._last_contact = None
        self._lease_expiry = 0.0
        self._last_fresh = None
        self._ack_starts.clear()
        self._epoch = None
        self._taken = 0
        self._marks.clear()

    @staticmethod
    def epoch_ready(log: Any, commit_index: int, epoch: Any) -> bool:
        """ReadIndex/lease precondition: this leader has committed an
        entry *in its own epoch* (otherwise its commit index may lag a
        predecessor's — the classic fresh-leader ReadIndex hazard)."""
        if commit_index <= 0:
            return False
        try:
            return log.term_at(commit_index) == epoch
        except (AttributeError, IndexError, KeyError):
            return False

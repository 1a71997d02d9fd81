"""Raft's message types (paper Figure 1) plus client-proposal messages.

All are immutable dataclasses.  ``AppendEntries`` covers both kinds the
paper distinguishes: with ``entries`` non-empty it is the *first* kind
(tentatively append), with ``entries`` empty it is a heartbeat / *second*
kind (advance the commit index); both carry ``leader_commit``.

``AppendEntriesReply`` additionally carries ``match_index`` on success —
the index of the follower's last entry known to match the leader — which
standard Raft implementations use to update ``MatchIndex`` without an extra
round trip.  On failure the same field is a repair hint, so the leader
jumps ``NextIndex`` down in one step instead of the paper's
decrement-by-one retry loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.algorithms.raft.log import Entry
from repro.sim.messages import Pid


@dataclass(frozen=True, slots=True)
class RequestVote:
    """Candidate solicits a vote (Figure 1)."""

    term: int
    candidate_id: Pid
    last_log_index: int
    last_log_term: int


@dataclass(frozen=True, slots=True)
class RequestVoteReply:
    """``ack_RequestVote``: a voter's response."""

    term: int
    vote_granted: bool
    voter_id: Pid


@dataclass(frozen=True, slots=True)
class AppendEntries:
    """Leader replicates entries (non-empty) or heartbeats (empty).

    ``read_seq`` is the leader's read sequence, bumped by each ReadIndex
    barrier; ``read_confirmed`` the newest sequence a majority has echoed
    (see :mod:`repro.algorithms.readpath`).
    """

    term: int
    leader_id: Pid
    prev_log_index: int
    prev_log_term: int
    entries: Tuple[Entry, ...]
    leader_commit: int
    read_seq: int = 0
    read_confirmed: int = 0


@dataclass(frozen=True, slots=True)
class AppendEntriesReply:
    """``ack_AppendEntries``: a follower's response.

    On success, ``match_index`` is the follower's last index consistent
    with the leader's log.  On failure it is the repair hint
    ``min(prev_log_index - 1, last_index)``: the highest index that can
    still match, where the leader probes next.  ``read_seq`` echoes the
    highest read sequence the follower took from this leader in this term.
    """

    term: int
    success: bool
    follower_id: Pid
    match_index: int = 0
    read_seq: int = 0


@dataclass(frozen=True, slots=True)
class InstallSnapshot:
    """Leader ships a state-machine snapshot to a follower whose needed log
    suffix was compacted away (the Raft paper's log-compaction extension)."""

    term: int
    leader_id: Pid
    last_included_index: int
    last_included_term: int
    machine_state: Any


@dataclass(frozen=True, slots=True)
class InstallSnapshotReply:
    """Follower acknowledges a snapshot installation."""

    term: int
    follower_id: Pid
    last_included_index: int


@dataclass(frozen=True, slots=True)
class ClientPropose:
    """A client asks the cluster to append ``command`` to the log.

    Only the leader acts on it, and not when its log already holds
    ``command`` (a retried proposal).
    """

    command: Any

"""Raft's replicated log: 1-indexed, term-tagged entries.

The log implements the two mechanical halves of Raft's Log Matching
property: the AppendEntries *consistency check* (reject unless the entry at
``prev_log_index`` carries ``prev_log_term``) and *conflict-suffix deletion*
(an incoming entry whose term disagrees with the local entry at the same
index deletes that entry and everything after it).  Together they make two
logs identical up through any index where they share an entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class Entry:
    """One log entry: the command and the term it was received in."""

    term: int
    command: Any


class CompactedError(IndexError):
    """Raised when accessing an index that was discarded by compaction."""


class RaftLog:
    """A 1-indexed list of :class:`Entry` with Raft's append semantics.

    Index ``0`` denotes "before the log"; ``term_at(0)`` is ``0``, matching
    the sentinel used in the first AppendEntries a leader ever sends.

    Supports **compaction** (the Raft paper's log-compaction extension):
    :meth:`compact_to` discards a committed prefix, remembering only its
    last index and term; :meth:`install_snapshot` is the follower-side
    reset used by InstallSnapshot.  After compaction, indices up to
    ``snapshot_index`` are inaccessible (:class:`CompactedError`), except
    that ``term_at(snapshot_index)`` still answers from the remembered
    snapshot term — which is all AppendEntries consistency checks need.
    """

    def __init__(self, entries: Optional[Sequence[Entry]] = None):
        self._entries: List[Entry] = list(entries or [])
        self.snapshot_index = 0
        self.snapshot_term = 0
        #: Retained command -> how many retained entries carry it, kept in
        #: step with every mutation so :meth:`contains_command` is O(1).
        #: Unhashable commands are left out (they fall back to the scan).
        self._commands: Dict[Any, int] = {}
        self._tally(self._entries, 1)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def last_index(self) -> int:
        """Index of the last entry (``snapshot_index`` when empty)."""
        return self.snapshot_index + len(self._entries)

    @property
    def last_term(self) -> int:
        """Term of the last entry (the snapshot term when empty)."""
        return self._entries[-1].term if self._entries else self.snapshot_term

    def term_at(self, index: int) -> int:
        """Term of the entry at ``index`` (0 for index 0)."""
        if index == self.snapshot_index:
            return self.snapshot_term
        if index < self.snapshot_index:
            raise CompactedError(f"index {index} was compacted away")
        return self._entries[index - self.snapshot_index - 1].term

    def entry_at(self, index: int) -> Entry:
        """The entry at 1-based ``index``."""
        if index <= self.snapshot_index:
            raise CompactedError(f"index {index} was compacted away")
        if index > self.last_index:
            raise IndexError(f"log index {index} out of range")
        return self._entries[index - self.snapshot_index - 1]

    def entries_from(self, index: int) -> Tuple[Entry, ...]:
        """All entries from 1-based ``index`` to the end (may be empty)."""
        if index < 1:
            raise IndexError("entries_from index must be >= 1")
        if index <= self.snapshot_index:
            raise CompactedError(f"index {index} was compacted away")
        return tuple(self._entries[index - self.snapshot_index - 1 :])

    def as_list(self) -> List[Entry]:
        """A copy of the retained (post-snapshot) entries, first to last."""
        return list(self._entries)

    def contains_command(self, command: Any) -> bool:
        """Whether any retained entry carries ``command`` (no copy made).

        Used by the leader's duplicate-proposal check, which catches a
        proposal rebroadcast unchanged.  On the live KV path every flush
        proposes a fresh :class:`~repro.live.kv.KvBatch`, so a retried
        client op is caught by the KV machine instead.  Compacted
        entries are not consulted.  O(1)
        through the command index; an unhashable command (a client may
        put a list value) is answered by scanning the retained log.
        """
        try:
            return command in self._commands
        except TypeError:
            return any(entry.command == command for entry in self._entries)

    def _tally(self, entries: Sequence[Entry], delta: int) -> None:
        """Add ``delta`` to the command index for each of ``entries``."""
        counts = self._commands
        for entry in entries:
            try:
                left = counts.get(entry.command, 0) + delta
            except TypeError:
                continue  # unhashable: contains_command scans for it
            if left:
                counts[entry.command] = left
            else:
                del counts[entry.command]

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"RaftLog(snapshot@{self.snapshot_index}t{self.snapshot_term}, "
            f"{self._entries!r})"
        )

    # ------------------------------------------------------------------
    # Persistence hooks
    # ------------------------------------------------------------------
    #
    # Every mutation funnels through these two notifications, so a durable
    # subclass (``repro.storage.engine.DurableRaftLog``) can journal the
    # exact change to a write-ahead log without re-deriving it.  The base
    # class persists nothing.

    def _record_append(self, index: int, entry: Entry) -> None:
        """Called after ``entry`` was written at ``index`` (any local
        suffix from ``index`` on was discarded first)."""

    def _record_compact(self, index: int, term: int) -> None:
        """Called after the log's snapshot point moved to ``(index, term)``
        — by leader-side compaction or follower-side InstallSnapshot."""

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact_to(self, index: int) -> None:
        """Discard entries up to and including ``index`` (must be retained).

        The caller is responsible for only compacting *applied* entries and
        for snapshotting the state machine first.
        """
        if index <= self.snapshot_index:
            return
        if index > self.last_index:
            raise IndexError(f"cannot compact beyond last index {self.last_index}")
        term = self.term_at(index)
        cut = index - self.snapshot_index
        self._tally(self._entries[:cut], -1)
        del self._entries[:cut]
        self.snapshot_index = index
        self.snapshot_term = term
        self._record_compact(index, term)

    def install_snapshot(self, index: int, term: int) -> None:
        """Follower-side InstallSnapshot: reset the log to a snapshot point.

        If the local log already contains the snapshot's last entry (same
        index and term), the suffix after it is retained (it is consistent
        by Log Matching); otherwise the entire log is replaced by the
        snapshot marker.
        """
        if index <= self.snapshot_index:
            return
        keep: List[Entry] = []
        if index <= self.last_index:
            try:
                if self.term_at(index) == term:
                    keep = list(self.entries_from(index + 1)) if index < self.last_index else []
            except CompactedError:  # pragma: no cover - defensive
                keep = []
        self._entries = keep
        self._commands = {}
        self._tally(keep, 1)
        self.snapshot_index = index
        self.snapshot_term = term
        self._record_compact(index, term)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def append_new(self, entry: Entry) -> int:
        """Leader-side append of a brand-new entry; returns its index."""
        self._entries.append(entry)
        self._tally((entry,), 1)
        self._record_append(self.last_index, entry)
        return self.last_index

    def try_append(
        self, prev_log_index: int, prev_log_term: int, entries: Sequence[Entry]
    ) -> bool:
        """Follower-side AppendEntries application.

        Returns ``False`` if the consistency check fails (no entry at
        ``prev_log_index``, or its term differs).  Otherwise appends
        ``entries`` after ``prev_log_index``, deleting any conflicting local
        suffix, and returns ``True``.  Entries that already match (same
        index and term) are left untouched, so stale retransmissions are
        harmless.
        """
        if prev_log_index > self.last_index:
            return False
        if prev_log_index < self.snapshot_index:
            # The message overlaps the compacted prefix.  Entries at or
            # before the snapshot point are already covered (committed,
            # hence consistent); skip them and re-anchor at the snapshot.
            skip = self.snapshot_index - prev_log_index
            if len(entries) <= skip:
                return True  # nothing extends past the snapshot
            entries = list(entries)[skip:]
            prev_log_index = self.snapshot_index
            prev_log_term = self.snapshot_term
        if prev_log_index > 0 and self.term_at(prev_log_index) != prev_log_term:
            return False
        for offset, entry in enumerate(entries):
            index = prev_log_index + 1 + offset
            if index <= self.last_index:
                if self.term_at(index) != entry.term:
                    cut = index - self.snapshot_index - 1
                    self._tally(self._entries[cut:], -1)
                    del self._entries[cut:]
                    self._entries.append(entry)
                    self._tally((entry,), 1)
                    self._record_append(index, entry)
                # else: identical entry already present, keep it
            else:
                self._entries.append(entry)
                self._tally((entry,), 1)
                self._record_append(index, entry)
        return True

    # ------------------------------------------------------------------
    # Election support
    # ------------------------------------------------------------------

    def other_is_up_to_date(self, other_last_term: int, other_last_index: int) -> bool:
        """Raft's vote-granting check: is the candidate's log at least as
        up-to-date as ours (by last term, then last index)?"""
        return (other_last_term, other_last_index) >= (self.last_term, self.last_index)

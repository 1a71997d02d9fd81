"""Durable node state on top of the WAL: storage engine + node binding.

:class:`RaftStorage` owns one consensus group's directory — WAL segments
plus snapshot files — and exposes the journalling API the durable node
binding calls.  Recovery happens in the constructor: a cold start
replays the newest checkpointed segment (:func:`repro.storage.wal.recover_wal`)
and the storage comes up already holding the pre-crash durable state,
which :class:`DurableNode` then adopts.

The binding layer is deliberately thin:

* :class:`DurableRaftLog` overrides the two persistence hooks
  :class:`~repro.algorithms.raft.log.RaftLog` fires on every mutation,
  journalling appends as :class:`~repro.storage.wal.WalEntry` records
  and compactions as a snapshot file plus a fresh checkpointed segment;
* :class:`DurableNode` intercepts ``current_term``/``voted_for``
  assignment with properties, journalling :class:`~repro.storage.wal.WalTerm`
  records — the protocol code in :mod:`repro.algorithms` is completely
  unchanged, whichever engine it is.

Journalled records buffer in the WAL until a **sync barrier**.  The live
runtime provides the barrier: before any externally-visible message
leaves the node (a vote, an append ack, a replication broadcast), dirty
storage is synced — Raft's "persist before responding" rule — and the
group-fsync makes every record since the previous barrier durable with
one ``fsync``.  The sync point is the runtime's
(:attr:`repro.core.runtime.Runtime.fsync`), and it answers both where
the fsync runs and whether one runs: on a real clock a worker thread
calls ``os.fsync`` behind the durability watermark (rotation, close and
compaction sync inline); under virtual time the barrier is bookkeeping
alone — inline, the WAL's synced offset and the watermark advance, and
no syscall is made, since the power-failure model reads only that
offset.

Corruption beyond torn-tail recovery **quarantines** the directory: the
damaged files are moved aside (``corrupt-NNNN/``) and the node rejoins
as an empty follower, exactly as if its disk had been replaced.  That
trades the vote ledger away for availability — the same disk-loss model
the existing harness restart used for every restart.  With
``no_rejoin=True`` (``repro serve --no-rejoin``) the trade flips:
corruption raises :class:`StorageQuarantineError` instead, the node
refuses to start, and an operator must intervene — safe against
correlated disk loss, at the cost of availability.  See docs/storage.md
for the trade-off discussion.
"""

from __future__ import annotations

import asyncio
import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from repro.algorithms.raft.log import Entry, RaftLog
from repro.core.runtime import Runtime, current_runtime
from repro.storage.wal import (
    DEFAULT_SEGMENT_BYTES,
    Recovery,
    Wal,
    WalCheckpoint,
    WalCorruptionError,
    WalEntry,
    WalStats,
    WalTerm,
    read_snapshot,
    recover_wal,
    snapshot_files,
    snapshot_path,
    write_snapshot,
)

@dataclass
class DurableState:
    """The replayed Figure-2 state: scalars, snapshot point, entries."""

    term: int = 0
    voted_for: Optional[int] = None
    snapshot_index: int = 0
    snapshot_term: int = 0
    entries: List[Entry] = field(default_factory=list)

    @property
    def last_index(self) -> int:
        return self.snapshot_index + len(self.entries)


def replay_records(records: Sequence[Any]) -> DurableState:
    """Fold a recovered record run into the durable state.

    A :class:`WalEntry` truncates from its index and appends — the same
    semantics the journalling side records — so replay lands on exactly
    the log the node held at its last sync.  Gaps are impossible under
    those semantics, so one is evidence of corruption that slipped past
    the frame checksums and raises :class:`WalCorruptionError`.
    """
    state = DurableState()
    for record in records:
        if isinstance(record, WalCheckpoint):
            state = DurableState(
                term=record.term,
                voted_for=record.voted_for,
                snapshot_index=record.snapshot_index,
                snapshot_term=record.snapshot_term,
            )
        elif isinstance(record, WalTerm):
            state.term = record.term
            state.voted_for = record.voted_for
        elif isinstance(record, WalEntry):
            position = record.index - state.snapshot_index - 1
            if position < 0 or position > len(state.entries):
                raise WalCorruptionError(
                    f"entry record at index {record.index} leaves a gap "
                    f"(snapshot {state.snapshot_index}, "
                    f"{len(state.entries)} entries)"
                )
            del state.entries[position:]
            state.entries.append(Entry(record.term, record.command))
        else:
            raise WalCorruptionError(
                f"unknown WAL record type {type(record).__name__}"
            )
    return state


class StorageQuarantineError(RuntimeError):
    """Durable state is corrupt and ``no_rejoin`` forbids starting empty.

    Raised from the :class:`RaftStorage` constructor when recovery hits
    corruption beyond torn-tail repair and the storage was opened in
    strict mode.  Nothing has been moved aside: the damaged files are
    left in place for inspection, and the node must not join the
    cluster until an operator either repairs the directory or
    explicitly restarts without ``--no-rejoin`` (accepting the
    empty-disk rejoin and its vote-ledger loss).
    """


class RaftStorage:
    """One Raft group's durable state: WAL + snapshot files in a dir.

    Construction *is* recovery: the instance comes up holding the
    durable state found on disk (empty for a fresh directory), starts a
    fresh checkpointed segment restating it (so this incarnation never
    appends to files it did not write), and is immediately ready for
    journalling.  ``runtime`` (default: the ambient one) supplies the
    sync point (:attr:`~repro.core.runtime.Runtime.fsync`): where
    :meth:`begin_sync`'s fsync runs, and whether any sync here makes a
    syscall.

    Attributes after construction (what recovery found):
        term, voted_for, snapshot_index, snapshot_term, entries,
        machine_snapshot: the recovered Figure-2 state.
        torn_tail: a damaged tail was discarded (power failed mid-write).
        quarantined: corruption forced a quarantine; the node restarts
            empty and ``quarantine_reason`` says why.
    """

    def __init__(
        self,
        directory: str,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sync_policy: str = "fsync",
        no_rejoin: bool = False,
        runtime: Optional[Runtime] = None,
    ):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.rt = runtime if runtime is not None else current_runtime()
        self.no_rejoin = no_rejoin
        self.quarantined = False
        self.quarantine_reason: Optional[str] = None
        # Commit-pipeline state.  ``generation`` counts journalled
        # records; ``durable_generation`` is the monotonic watermark of
        # the newest generation a completed barrier covers.  Waiters are
        # (generation, callback) in submission order.
        self.generation = 0
        self.durable_generation = 0
        self._waiters: Deque[Tuple[int, Callable[[], None]]] = deque()
        self._releasing = False
        self._inflight = 0
        # After a failed threaded fsync (EIO may drop dirty pages, so no
        # later barrier vouches for them) the watermark never advances.
        self._sync_failed = False
        self._completions: Deque[Tuple[int, int, List[Tuple[int, int]]]] = deque()
        self._fsync_queue: Optional["queue.Queue"] = None
        self._fsync_thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Compaction telemetry (the snapshot-write stall story).
        self.compactions = 0
        self.last_compact_seconds = 0.0
        self.max_compact_seconds = 0.0
        try:
            recovery = recover_wal(directory)
            state = replay_records(recovery.records)
            machine_snapshot = None
            if state.snapshot_index > 0:
                machine_snapshot = read_snapshot(directory, state.snapshot_index)
        except WalCorruptionError as exc:
            if no_rejoin:
                raise StorageQuarantineError(
                    f"durable state in {directory} is corrupt ({exc}); "
                    "refusing to rejoin empty under --no-rejoin — repair "
                    "or move the directory aside, or restart without "
                    "--no-rejoin to accept the empty-disk rejoin"
                ) from exc
            self._quarantine(exc)
            recovery = Recovery(next_segment=1)
            state = DurableState()
            machine_snapshot = None
        self.term = state.term
        self.voted_for = state.voted_for
        self.snapshot_index = state.snapshot_index
        self.snapshot_term = state.snapshot_term
        self.entries: List[Entry] = list(state.entries)
        self.machine_snapshot = machine_snapshot
        self.torn_tail = recovery.torn_tail
        self.torn_detail = recovery.torn_detail
        self._wal = Wal(
            directory,
            start_segment=recovery.next_segment,
            sync_policy=sync_policy,
            fsync=self.rt.fsync,
        )
        self._checkpoint()

    def _quarantine(self, exc: WalCorruptionError) -> None:
        """Move damaged files aside; the group restarts from nothing."""
        number = 0
        while os.path.isdir(os.path.join(self.directory, f"corrupt-{number:04d}")):
            number += 1
        quarantine_dir = os.path.join(self.directory, f"corrupt-{number:04d}")
        os.makedirs(quarantine_dir)
        for name in os.listdir(self.directory):
            path = os.path.join(self.directory, name)
            if os.path.isfile(path) and name.startswith(("wal-", "snap-")):
                os.replace(path, os.path.join(quarantine_dir, name))
        self.quarantined = True
        self.quarantine_reason = str(exc)

    def _checkpoint(self) -> None:
        """Rotate to a fresh self-contained segment; GC stale snapshots."""
        records: List[Any] = [
            WalCheckpoint(
                self.term, self.voted_for, self.snapshot_index, self.snapshot_term
            )
        ]
        records.extend(
            WalEntry(self.snapshot_index + 1 + i, entry.term, entry.command)
            for i, entry in enumerate(self.entries)
        )
        self._wal.checkpoint(records)
        # A checkpoint is an inline durability point: the fresh segment
        # restates every journalled record, fsynced before this returns,
        # so the watermark jumps past anything still in the fsync queue.
        self._advance_watermark(self.generation)
        self._gc_snapshots()

    def _gc_snapshots(self) -> None:
        """Delete every snapshot file but the one at ``snapshot_index``.

        Runs strictly *after* the checkpoint naming that snapshot is
        durable, so a crash at any point leaves some checkpoint on disk
        whose snapshot still exists.  The opening checkpoint's pass also
        clears what an interrupted compaction left behind: an orphan
        image no checkpoint names, or a ``.tmp`` that never got renamed.
        """
        keep = snapshot_path(self.directory, self.snapshot_index)
        for stale in snapshot_files(self.directory):
            if stale != keep:
                os.unlink(stale)

    # -- journalling API (called by the durable node bindings) ----------

    def record_term(self, term: int, voted_for: Optional[int]) -> None:
        """Journal a ``currentTerm``/``votedFor`` change."""
        if term == self.term and voted_for == self.voted_for:
            return
        self.term = term
        self.voted_for = voted_for
        self._wal.append(WalTerm(term, voted_for))
        self.generation += 1

    def record_append(self, index: int, entry: Entry) -> None:
        """Journal the entry written at ``index`` (suffix discarded)."""
        position = index - self.snapshot_index - 1
        if position < 0 or position > len(self.entries):
            raise WalCorruptionError(
                f"append at index {index} leaves a gap "
                f"(snapshot {self.snapshot_index}, "
                f"{len(self.entries)} entries)"
            )
        del self.entries[position:]
        self.entries.append(entry)
        self._wal.append(WalEntry(index, entry.term, entry.command))
        self.generation += 1

    def record_compact(
        self,
        index: int,
        term: int,
        machine_state: Any,
        entries: Sequence[Entry],
    ) -> None:
        """Journal a compaction: snapshot file first, then a checkpoint.

        The ordering is the durability protocol: the snapshot file is
        fsynced and renamed into place *before* the checkpoint frame
        that references it is written, so a checkpoint on disk always
        points at a snapshot that exists (GC of the old snapshot runs
        only after the new checkpoint is durable).  Every compaction
        writes the full machine image.
        """
        started = time.perf_counter()
        write_snapshot(
            self.directory, index, machine_state, fsync=self.rt.fsync
        )
        self.machine_snapshot = machine_state
        self.snapshot_index = index
        self.snapshot_term = term
        self.entries = list(entries)
        self.generation += 1
        self._checkpoint()
        self.compactions += 1
        self.last_compact_seconds = time.perf_counter() - started
        if self.last_compact_seconds > self.max_compact_seconds:
            self.max_compact_seconds = self.last_compact_seconds

    # -- barrier / lifecycle --------------------------------------------

    @property
    def dirty(self) -> bool:
        """Whether journalled records still await :meth:`sync`."""
        return self._wal.dirty

    @property
    def stats(self) -> WalStats:
        return self._wal.stats

    @property
    def closed(self) -> bool:
        return self._wal.closed

    @property
    def fsync_queue_depth(self) -> int:
        """Barriers submitted to the fsync thread and not yet confirmed."""
        return self._inflight

    @property
    def watermark_lag(self) -> int:
        """Journalled generations not yet covered by the watermark."""
        return self.generation - self.durable_generation

    @property
    def sync_waiters(self) -> int:
        """Callbacks queued on :meth:`notify_durable`."""
        return len(self._waiters)

    def sync(self) -> None:
        """Make every journalled record durable before returning.

        Also rotates to a fresh checkpointed segment once the current
        one outgrows ``segment_bytes`` — rotation happens *at* a
        barrier, so no frame ever straddles segments.
        """
        self._wal.sync()
        self._advance_watermark(self.generation)
        if self._wal.segment_size > self.segment_bytes:
            self._checkpoint()

    def begin_sync(self) -> None:
        """Start a durability barrier covering every record journalled
        so far, without waiting for it.

        On a real clock the buffered frames are handed to the OS here —
        the cheap half — and the fsync stall moves to a dedicated thread;
        the watermark advances when the loop observes the completion,
        which releases :meth:`notify_durable` callbacks in submission
        order.  Under virtual time (``Runtime.fsync`` is ``None``) there
        is no disk latency to overlap and no disk to ask: this *is*
        :meth:`sync`, a sync point by bookkeeping, and the watermark has
        advanced before it returns.
        """
        self._drain_completions()
        if self.rt.fsync is None:
            self.sync()
            return
        gen = self.generation
        written = self._wal.flush_os()
        if self._wal.segment_size > self.segment_bytes:
            # Rotation restates and fsyncs everything inline; it both
            # subsumes this barrier and advances the watermark.
            self._checkpoint()
            return
        if self._wal.sync_policy != "fsync":
            # The deliberately broken lost-ack mode: claim durability
            # without fsync so acks escape — the chaos canary's bug.
            self._advance_watermark(gen)
            return
        fd = self._wal.fileno()
        if fd is None:
            self._advance_watermark(gen)
            return
        segment = self._wal.current_segment
        try:
            dup = os.dup(fd)
        except OSError:  # pragma: no cover - fd table exhausted
            self.sync()
            return
        try:
            self._loop = asyncio.get_running_loop()
        except RuntimeError:
            pass  # offline caller: completions drain via polling
        self._ensure_worker()
        self._inflight += 1
        assert self._fsync_queue is not None
        self._fsync_queue.put((gen, segment, dup, written))

    def notify_durable(self, generation: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the watermark covers ``generation``.

        Callbacks fire in submission order (generations are monotonic),
        so queueing an outbound message here preserves wire order; when
        the watermark already covers the generation and nothing is
        queued ahead, the callback runs immediately on this thread.
        """
        self._drain_completions()
        if not self._waiters and generation <= self.durable_generation:
            callback()
        else:
            self._waiters.append((generation, callback))

    def wait_durable(self, generation: Optional[int] = None, timeout: float = 5.0) -> bool:
        """Block until the watermark covers ``generation`` (default: all
        records journalled so far).  Test/offline helper — the live
        runtime never blocks, it queues on :meth:`notify_durable`."""
        target = self.generation if generation is None else generation
        deadline = time.monotonic() + timeout
        while True:
            self._drain_completions()
            if self.durable_generation >= target:
                return True
            if time.monotonic() > deadline:
                return False
            time.sleep(0.001)

    def _advance_watermark(self, generation: int) -> None:
        if self._sync_failed:
            return
        if generation > self.durable_generation:
            self.durable_generation = generation
        self._release_waiters()

    def _release_waiters(self) -> None:
        if self._releasing:
            return  # re-entrant release: the outer loop re-checks
        self._releasing = True
        try:
            while self._waiters and self._waiters[0][0] <= self.durable_generation:
                self._waiters.popleft()[1]()
        finally:
            self._releasing = False

    def _drain_completions(self) -> None:
        """Apply fsync completions posted by the worker thread (runs on
        the event-loop thread, or inline for offline callers)."""
        advanced = False
        while self._completions:
            gen, count, synced = self._completions.popleft()
            self._inflight -= count
            self._sync_failed = self._sync_failed or gen is None
            if self._sync_failed:
                continue
            for segment, written in synced:
                self._wal.mark_synced(segment, written)
            if gen > self.durable_generation:
                self.durable_generation = gen
                advanced = True
        if advanced:
            self._release_waiters()
            if not self._wal.closed and self._wal.segment_size > self.segment_bytes:
                self._checkpoint()

    def _ensure_worker(self) -> None:
        if self._fsync_thread is not None and self._fsync_thread.is_alive():
            return
        self._fsync_queue = queue.Queue()
        self._fsync_thread = threading.Thread(
            target=self._fsync_worker,
            args=(self._fsync_queue,),
            name=f"wal-fsync:{os.path.basename(self.directory)}",
            daemon=True,
        )
        self._fsync_thread.start()

    def _fsync_worker(self, jobs_queue: "queue.Queue") -> None:
        """Dedicated fsync thread: drain all queued barriers, fsync once
        per distinct segment (group commit across barriers), and post
        the completion back to the loop."""
        fsync = self.rt.fsync
        while True:
            job = jobs_queue.get()
            if job is None:
                return
            jobs = [job]
            stop = False
            while True:
                try:
                    job = jobs_queue.get_nowait()
                except queue.Empty:
                    break
                if job is None:
                    stop = True
                    break
                jobs.append(job)
            # Every job for one segment holds a dup of the same file, so
            # fsyncing the newest dup makes all of them durable at once.
            latest: dict = {}
            for gen, segment, fd, written in jobs:
                latest[segment] = (gen, fd, written)
            failed = False
            for segment, (gen, fd, written) in latest.items():
                try:
                    fsync(fd)
                except OSError:
                    failed = True
            for gen, segment, fd, written in jobs:
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - defensive
                    pass
            # A failed batch still completes (generation ``None``), so the
            # queue depth drops and the loop learns to fail closed.
            top = None if failed else max(job[0] for job in jobs)
            synced = [] if failed else [
                (segment, written)
                for segment, (_gen, _fd, written) in latest.items()
            ]
            self._completions.append((top, len(jobs), synced))
            loop = self._loop
            if loop is not None:
                try:
                    loop.call_soon_threadsafe(self._drain_completions)
                except RuntimeError:
                    pass  # loop already closed; polling will drain
            if stop:
                return

    def _stop_worker(self) -> None:
        if self._fsync_queue is not None:
            self._fsync_queue.put(None)
            self._fsync_queue = None
            self._fsync_thread = None

    def crash(self, *, torn: bool = False) -> None:
        """Simulated power failure (see :meth:`repro.storage.wal.Wal.crash`).

        In-flight threaded fsyncs are abandoned, not awaited — and
        completions the loop never observed are dropped too: whatever
        the watermark did not confirm before the power died is exactly
        what recovery is allowed to lose.
        """
        self._stop_worker()
        self._completions.clear()
        self._wal.crash(torn=torn)

    def close(self) -> None:
        self._stop_worker()
        self._drain_completions()
        self._wal.close()
        # A clean close flushes and fsyncs everything inline.
        self._advance_watermark(self.generation)


class DurableRaftLog(RaftLog):
    """A :class:`RaftLog` whose mutations journal to a :class:`RaftStorage`.

    Starts from the storage's recovered entries/snapshot point; the
    ``machine_snapshot_fn`` callable supplies the owning node's current
    machine snapshot when a compaction needs to persist it.
    """

    def __init__(
        self,
        storage: RaftStorage,
        machine_snapshot_fn: Callable[[], Any],
    ):
        self._storage: Optional[RaftStorage] = None
        super().__init__(storage.entries)
        self.snapshot_index = storage.snapshot_index
        self.snapshot_term = storage.snapshot_term
        self._machine_snapshot_fn = machine_snapshot_fn
        self._storage = storage

    def _record_append(self, index: int, entry: Entry) -> None:
        if self._storage is not None:
            self._storage.record_append(index, entry)

    def _record_compact(self, index: int, term: int) -> None:
        if self._storage is not None:
            self._storage.record_compact(
                index, term, self._machine_snapshot_fn(), self.as_list()
            )


class DurableNode:
    """The durability binding: a node's durable fields persisted to storage.

    Mixed in *before* an election rule's node class
    (:mod:`repro.live.engine` does, once per rule)::

        class DurableRaftNode(DurableNode, RaftNode): ...

    The core (:class:`~repro.algorithms.raft.replication.ReplicatedLogNode`)
    keeps its durable state in four plain attributes.  This class adopts
    the storage's recovered values for them at construction, then
    journals every subsequent change: ``current_term`` and ``voted_for``
    via the property setters below (a :class:`WalTerm` record each — the
    ballot engines never vote, so theirs carry ``None``), the log via
    :class:`DurableRaftLog`, ``machine_snapshot`` when the log compacts.
    The protocol implementation is inherited untouched — persistence is
    pure interception — and :class:`RaftStorage` is engine-neutral, so a
    data directory is one format whichever engine wrote it.
    """

    def __init__(self, *, storage: RaftStorage, **kwargs: Any):
        # The node's __init__ assigns current_term/voted_for through our
        # property setters; keep storage detached until recovery state
        # is adopted so those initial writes are not journalled.
        self._storage: Optional[RaftStorage] = None
        self._current_term = 0
        self._voted_for: Optional[int] = None
        super().__init__(**kwargs)
        self._current_term = storage.term
        self._voted_for = storage.voted_for
        self.machine_snapshot = storage.machine_snapshot
        self.log = DurableRaftLog(storage, lambda: self.machine_snapshot)
        self._storage = storage

    @property
    def current_term(self) -> int:
        return self._current_term

    @current_term.setter
    def current_term(self, value: int) -> None:
        self._current_term = value
        if self._storage is not None:
            self._storage.record_term(value, self._voted_for)

    @property
    def voted_for(self) -> Optional[int]:
        return self._voted_for

    @voted_for.setter
    def voted_for(self, value: Optional[int]) -> None:
        self._voted_for = value
        if self._storage is not None:
            self._storage.record_term(self._current_term, value)

    @property
    def storage(self) -> Optional[RaftStorage]:
        return self._storage

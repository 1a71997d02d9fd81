"""Segmented write-ahead log with checksummed frames.

The WAL is the durability primitive under the live Raft stack: every
change to a group's persistent state (Figure 2 of the Raft paper —
``currentTerm``, ``votedFor``, the log) is journalled here *before* it
becomes externally visible, and a cold restart replays the journal to
reconstruct exactly the pre-crash durable state.

On-disk format
--------------
A WAL directory holds numbered **segment** files ``wal-00000001.log``,
``wal-00000002.log``, ...  Each segment is a run of **frames**::

    +------------+------------+---------------------+
    | u32 length | u32 crc32  |  body (length bytes) |
    +------------+------------+---------------------+

both integers big-endian; the CRC covers the body only.  The body is a
:func:`repro.sim.serialize.binary_dumps` encoding of one record — the
same self-describing binary codec the peer wire protocol uses, so the
WAL inherits its fuzz-hardened decoder and its registered-dataclass
model for free.

Records (their wire names are pinned so segments survive refactors):

* :class:`WalCheckpoint` — the **first frame of every segment**: the
  full durable scalar state (term, vote, snapshot point) at the moment
  the segment was started.  The frames after it restate the retained
  log entries, so *each segment is self-contained*: recovery reads only
  the newest segment with an intact checkpoint and ignores everything
  older (which is why older segments can be deleted after a rotation).
* :class:`WalTerm` — ``currentTerm``/``votedFor`` changed.
* :class:`WalEntry` — the log entry at ``index`` was written, after
  discarding any previous local suffix from ``index`` on (Raft's
  conflict-suffix deletion, journalled as truncate-then-append).

Torn writes and corruption
--------------------------
A frame that fails to parse — short header, absurd length, CRC
mismatch, undecodable body — marks *damage* at its offset:

* damage in the **newest** segment is a torn tail (power failed while
  the tail was being written): recovery keeps the intact prefix and
  discards the rest;
* a newest segment whose *first* frame is damaged is a torn rotation:
  the previous segment's checkpoint had to be durable before the old
  segments were deleted, so the whole file is ignored;
* damage anywhere **else** is real corruption (a lying disk, not a torn
  write) and raises :class:`WalCorruptionError` — the storage engine
  quarantines the directory and the node rejoins as an empty follower.

Power-failure simulation
------------------------
Appends buffer in-process; :meth:`Wal.sync` writes them to the OS,
``fsync``\\ s, and records the synced offset.  :meth:`Wal.crash` models
power failure by that offset alone: buffered (and, under
``sync_policy="none"``, written-but-not-fsynced) bytes are lost,
optionally leaving a torn final frame.  This gives the chaos nemesis a
faithful in-process power switch without needing real machine resets —
and, since the model never asks the kernel what it flushed, a simulated
node passes ``fsync=None`` (:attr:`repro.core.runtime.Runtime.fsync`)
and its sync points cost no syscall.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Callable, List, Optional, Tuple

from repro.core.runtime import wall_fsync
from repro.sim.serialize import (
    WireError,
    binary_dumps,
    binary_dumps_into,
    binary_loads,
    register_wire_type,
)

#: Frame header: big-endian body length, then CRC32 of the body.
FRAME_HEADER = struct.Struct(">II")

#: Upper bound on one frame body — anything larger is garbage from a
#: damaged length field, not a record (no batch comes close).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Rotate to a fresh checkpointed segment once the current one exceeds
#: this many bytes (checked at sync time, so mid-batch frames never
#: straddle segments).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")
_SNAPSHOT_RE = re.compile(r"^snap-\d{16}\.bin(\.tmp)?$")


class WalError(Exception):
    """The WAL cannot perform the requested operation."""


class WalCorruptionError(WalError):
    """The on-disk state is damaged beyond torn-tail recovery."""


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class WalCheckpoint:
    """Full scalar durable state; first frame of every segment."""

    term: int
    voted_for: Optional[int]
    snapshot_index: int
    snapshot_term: int


@dataclass(frozen=True, slots=True)
class WalTerm:
    """``currentTerm``/``votedFor`` changed (Figure 2 scalar state)."""

    term: int
    voted_for: Optional[int]


@dataclass(frozen=True, slots=True)
class WalEntry:
    """The entry at ``index`` was (re)written; any previous local
    entries from ``index`` on were discarded first."""

    index: int
    term: int
    command: Any


# Short pinned wire names: embedded in every frame, and must stay
# stable across refactors for old segments to remain readable.
register_wire_type(WalCheckpoint, "wal:C")
register_wire_type(WalTerm, "wal:T")
register_wire_type(WalEntry, "wal:E")


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------


#: Placeholder for a frame header, patched in place once the body size
#: and checksum are known (see :func:`encode_frame_into`).
_HEADER_PAD = b"\x00" * FRAME_HEADER.size


def encode_frame(record: Any) -> bytes:
    """One record as a checksummed frame."""
    body = binary_dumps(record)
    return FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def encode_frame_into(out: bytearray, record: Any) -> int:
    """Append one checksummed frame to ``out``; returns its byte length.

    Encodes the body straight into the shared buffer (reserving a header
    hole, then patching length + CRC over the in-place body), so a batch
    of appends builds one contiguous write buffer with no per-frame
    ``bytes`` join.
    """
    header_at = len(out)
    out += _HEADER_PAD
    body_at = len(out)
    binary_dumps_into(record, out)
    body = memoryview(out)[body_at:]
    FRAME_HEADER.pack_into(out, header_at, len(body), zlib.crc32(body))
    return FRAME_HEADER.size + len(body)


def scan_frames(
    data: bytes,
) -> Tuple[List[Any], Optional[int], Optional[str]]:
    """Decode ``data`` as a run of frames.

    Returns ``(records, damage_offset, damage_reason)`` — the intact
    prefix of records, plus where and why scanning stopped (``None``,
    ``None`` when the whole buffer parsed cleanly).  Never raises on
    malformed input: damage is data, not an exception, because whether
    it is fatal depends on *which* segment it appears in.
    """
    records: List[Any] = []
    pos = 0
    size = len(data)
    while pos < size:
        if pos + FRAME_HEADER.size > size:
            return records, pos, "truncated frame header"
        length, crc = FRAME_HEADER.unpack_from(data, pos)
        if length == 0 or length > MAX_FRAME_BYTES:
            return records, pos, f"implausible frame length {length}"
        body = data[pos + FRAME_HEADER.size : pos + FRAME_HEADER.size + length]
        if len(body) < length:
            return records, pos, "truncated frame body"
        if zlib.crc32(body) != crc:
            return records, pos, "frame checksum mismatch"
        try:
            records.append(binary_loads(body))
        except WireError as exc:
            return records, pos, f"undecodable frame body ({exc})"
        pos += FRAME_HEADER.size + length
    return records, None, None


# ----------------------------------------------------------------------
# Directory layout
# ----------------------------------------------------------------------


def segment_number(path: str) -> int:
    """The sequence number encoded in a segment file name."""
    match = _SEGMENT_RE.match(os.path.basename(path))
    if match is None:
        raise WalError(f"{path!r} is not a WAL segment")
    return int(match.group(1))


def segment_path(directory: str, number: int) -> str:
    return os.path.join(directory, f"wal-{number:08d}.log")


def wal_segments(directory: str) -> List[str]:
    """All segment paths in ``directory``, oldest first."""
    if not os.path.isdir(directory):
        return []
    names = sorted(n for n in os.listdir(directory) if _SEGMENT_RE.match(n))
    return [os.path.join(directory, n) for n in names]


def snapshot_files(directory: str) -> List[str]:
    """All snapshot file paths in ``directory``, oldest first — with the
    ``.tmp`` leftover of any :func:`write_snapshot` that died before its
    rename."""
    if not os.path.isdir(directory):
        return []
    names = sorted(n for n in os.listdir(directory) if _SNAPSHOT_RE.match(n))
    return [os.path.join(directory, n) for n in names]


def snapshot_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"snap-{index:016d}.bin")


#: A disk sync point: ``fsync`` on a descriptor, or ``None`` for a sync
#: point kept by bookkeeping alone (see :class:`Wal`).
Fsync = Optional[Callable[[int], None]]


def _fsync_dir(directory: str, fsync: Fsync) -> None:
    """Persist directory metadata (new/renamed/unlinked entries)."""
    if fsync is None:
        return
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        fsync(fd)
    except OSError:  # pragma: no cover - platform without dir-fsync
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Snapshot files
# ----------------------------------------------------------------------


def write_snapshot(
    directory: str, index: int, state: Any, *, fsync: Fsync = wall_fsync
) -> str:
    """Durably write the machine state image at log ``index``.

    Single checksummed frame, written to a temp file, fsynced, then
    atomically renamed — a crash leaves either the old world or the new
    file, never a half-written snapshot under the final name.  ``fsync``
    is the sync point, as for :class:`Wal`.
    """
    path = snapshot_path(directory, index)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(encode_frame(state))
        handle.flush()
        if fsync is not None:
            fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(directory, fsync)
    return path


def read_snapshot(directory: str, index: int) -> Any:
    """Load and verify the snapshot at ``index``.

    Raises :class:`WalCorruptionError` when the file is missing or
    damaged: a checkpoint referenced it, so its absence means the disk
    lied about a completed write.
    """
    path = snapshot_path(directory, index)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise WalCorruptionError(f"missing snapshot file {path!r}")
    records, damage, reason = scan_frames(data)
    if damage is not None or len(records) != 1:
        raise WalCorruptionError(
            f"damaged snapshot file {path!r}: {reason or 'extra frames'}"
        )
    return records[0]


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------


@dataclass
class Recovery:
    """What :func:`recover_wal` found on disk.

    ``records`` is the replayable record run of the chosen base segment
    (checkpoint first), already stripped of any damaged tail.
    """

    records: List[Any] = field(default_factory=list)
    next_segment: int = 1
    torn_tail: bool = False
    torn_detail: Optional[str] = None


def recover_wal(directory: str) -> Recovery:
    """Read the durable record run from a WAL directory.

    Picks the newest segment whose first frame is an intact
    :class:`WalCheckpoint` (each segment is self-contained); tolerates
    a torn tail there and a fully-torn newest segment (torn rotation);
    raises :class:`WalCorruptionError` for damage that power failure
    cannot explain.
    """
    segments = wal_segments(directory)
    if not segments:
        return Recovery()
    next_segment = segment_number(segments[-1]) + 1
    last = len(segments) - 1
    for i in range(last, -1, -1):
        path = segments[i]
        with open(path, "rb") as handle:
            data = handle.read()
        records, damage, reason = scan_frames(data)
        if not records or not isinstance(records[0], WalCheckpoint):
            if i == last:
                # Torn rotation: power failed while this segment's
                # checkpoint frame was being written.  The previous
                # checkpoint was durable before old segments were
                # deleted, so skipping the file loses nothing.
                continue
            raise WalCorruptionError(
                f"segment {path!r} has no valid checkpoint frame"
                + (f" ({reason})" if reason else "")
            )
        if damage is not None and i != last:
            # A sealed segment (one a rotation already moved past) was
            # fully synced before the next one existed; mid-file damage
            # there is disk corruption, not a torn write.
            raise WalCorruptionError(
                f"damage inside sealed segment {path!r} "
                f"at offset {damage}: {reason}"
            )
        return Recovery(
            records=records,
            next_segment=next_segment,
            torn_tail=damage is not None,
            torn_detail=(
                f"{os.path.basename(path)}@{damage}: {reason}"
                if damage is not None
                else None
            ),
        )
    # Every segment was a torn first checkpoint — only possible for the
    # very first segment of a fresh directory, i.e. nothing was durable.
    return Recovery(next_segment=next_segment, torn_tail=True)


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------


@dataclass
class WalStats:
    """Write-path counters (the fsync-amortization story in numbers)."""

    appends: int = 0
    syncs: int = 0
    bytes_written: int = 0
    rotations: int = 0


class Wal:
    """Append-only writer over a segment directory.

    Args:
        directory: segment directory (created if missing).
        start_segment: first segment number to write — recovery's
            ``next_segment``, so the writer never touches recovered
            files.
        sync_policy: ``"fsync"`` (default) really syncs;  ``"none"``
            skips ``fsync`` entirely — the deliberately broken mode
            behind the chaos ``lost-ack`` bug injection, where
            acknowledged state evaporates on power failure.
        fsync: the sync point (:attr:`repro.core.runtime.Runtime.fsync`).
            The default makes real ``os.fsync`` calls; ``None`` keeps
            every sync point by bookkeeping alone — the synced offset
            advances and no syscall is made, which is all the
            :meth:`crash` model reads.

    Appends buffer in-process until :meth:`sync`, so one ``fsync``
    covers every record journalled since the last barrier (group
    commit).  A new :class:`Wal` has no open segment: the owner must
    call :meth:`checkpoint` first, which also means every process
    incarnation writes only segments it created itself.
    """

    def __init__(
        self,
        directory: str,
        *,
        start_segment: int = 1,
        sync_policy: str = "fsync",
        fsync: Fsync = wall_fsync,
    ):
        if sync_policy not in ("fsync", "none"):
            raise WalError(f"unknown sync policy {sync_policy!r}")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.sync_policy = sync_policy
        self._fsync = fsync
        self.stats = WalStats()
        self._next_segment = start_segment
        self._segment = 0  # number of the open segment (0 = none yet)
        self._file: Optional[BinaryIO] = None
        self._path: Optional[str] = None
        self._buffer = bytearray()
        self._written = 0  # bytes handed to the OS for this segment
        self._synced = 0  # bytes known fsync-durable for this segment
        self._closed = False

    # -- state ----------------------------------------------------------

    @property
    def dirty(self) -> bool:
        """Whether appended records still await :meth:`sync`."""
        return bool(self._buffer)

    @property
    def segment_size(self) -> int:
        """Current segment size including still-buffered bytes."""
        return self._written + len(self._buffer)

    @property
    def current_segment(self) -> int:
        """Number of the open segment (0 before the first checkpoint)."""
        return self._segment

    @property
    def closed(self) -> bool:
        return self._closed

    # -- write path -----------------------------------------------------

    def append(self, record: Any) -> None:
        """Buffer one record; durable only after the next :meth:`sync`."""
        if self._closed:
            raise WalError("wal is closed")
        if self._file is None:
            raise WalError("no open segment (checkpoint first)")
        encode_frame_into(self._buffer, record)
        self.stats.appends += 1

    def flush_os(self) -> int:
        """Hand buffered frames to the OS **without** fsync.

        The first half of a threaded sync: the event loop pays only the
        (cheap) buffered write, an fsync thread pays the stall, and
        :meth:`mark_synced` later records how far durability reached.
        Returns the total bytes written to the open segment so far — the
        value a completed fsync of the current file covers.
        """
        if self._closed:
            raise WalError("wal is closed")
        if self._file is None:
            return 0
        if self._buffer:
            self._file.write(self._buffer)
            self._file.flush()
            self._written += len(self._buffer)
            self.stats.bytes_written += len(self._buffer)
            self._buffer.clear()
        return self._written

    def fileno(self) -> Optional[int]:
        """Raw descriptor of the open segment (for off-thread fsync)."""
        return None if self._file is None else self._file.fileno()

    def mark_synced(self, segment: int, written: int) -> None:
        """Record that an off-thread fsync of ``segment`` completed,
        covering the first ``written`` bytes.  Completions for rotated
        segments are ignored — the rotation itself was a synchronous
        durability point that restated everything."""
        if self._file is None or segment != self._segment:
            return
        if written > self._synced:
            self._synced = min(written, self._written)
        self.stats.syncs += 1

    def sync(self) -> None:
        """Flush buffered frames and make them durable (one fsync)."""
        if self._closed:
            raise WalError("wal is closed")
        if self._file is None:
            return
        self.flush_os()
        self._sync_file()
        self.stats.syncs += 1

    def _sync_file(self) -> None:
        """The sync point: everything written so far becomes durable."""
        if self.sync_policy != "fsync":
            return
        if self._fsync is not None:
            self._fsync(self._file.fileno())
        self._synced = self._written

    def checkpoint(self, records: List[Any]) -> None:
        """Start a fresh segment holding exactly ``records``, durably.

        The caller restates the *entire* durable state (checkpoint
        frame first, retained entries after), making the new segment
        self-contained; once it is synced and its directory entry is
        durable, every older segment is garbage and gets deleted.  Any
        still-buffered records are dropped — they are subsumed by the
        restated state.
        """
        if self._closed:
            raise WalError("wal is closed")
        old = self._file
        self._buffer.clear()
        number = self._next_segment
        self._next_segment += 1
        path = segment_path(self.directory, number)
        self._file = open(path, "wb")
        self._path = path
        self._segment = number
        self._written = self._synced = 0
        for record in records:
            self.append(record)
        self.sync()
        if self.sync_policy == "fsync":
            _fsync_dir(self.directory, self._fsync)
        if old is not None:
            old.close()
        for stale in wal_segments(self.directory):
            if segment_number(stale) < number:
                os.unlink(stale)
        if self.sync_policy == "fsync":
            _fsync_dir(self.directory, self._fsync)
        self.stats.rotations += 1

    # -- shutdown -------------------------------------------------------

    def crash(self, *, torn: bool = False) -> None:
        """Simulate power failure: whatever was not fsynced is lost.

        Buffered records vanish and the segment is truncated back to
        the last byte a *confirmed* sync point covered — written-but-unsynced
        data dies with the page cache.  After :meth:`sync` (a real fsync,
        or with ``fsync=None`` the bookkeeping alone) the truncation is a
        no-op; behind a threaded barrier it faithfully models an fsync
        still in flight; under
        ``sync_policy="none"`` nothing was ever synced and the whole
        segment evaporates (the lost-ack bug).  With ``torn=True`` a
        strict prefix of the buffered tail lands on disk instead,
        leaving a torn final frame for recovery to find.
        """
        if self._file is not None:
            if self._written != self._synced:
                try:
                    self._file.truncate(self._synced)
                    self._file.seek(self._synced)
                except OSError:  # pragma: no cover - defensive
                    pass
            if torn and self._buffer:
                cut = max(1, len(self._buffer) - 3)
                self._file.write(bytes(self._buffer[:cut]))
                self._file.flush()
            self._file.close()
            self._file = None
        self._buffer.clear()
        self._closed = True

    def close(self) -> None:
        """Graceful shutdown: flush everything, then close.

        Note this is *not* a durability point under ``"none"`` policy
        in the power-failure model — but a clean close is not a power
        failure, so written bytes survive it regardless.
        """
        if self._file is not None:
            if self._buffer:
                data = bytes(self._buffer)
                self._buffer.clear()
                self._file.write(data)
                self._file.flush()
                self._written += len(data)
                self.stats.bytes_written += len(data)
            self._sync_file()
            self._file.close()
            self._file = None
        self._buffer.clear()
        self._closed = True


# ----------------------------------------------------------------------
# Disk-fault injection (nemesis helpers)
# ----------------------------------------------------------------------


def tear_tail(directory: str, nbytes: int = 3) -> Optional[str]:
    """Truncate the last ``nbytes`` of the newest segment.

    Models a lying disk that dropped the tail of an acknowledged write.
    Returns the damaged path, or ``None`` when there is nothing to tear.
    """
    segments = wal_segments(directory)
    if not segments:
        return None
    path = segments[-1]
    size = os.path.getsize(path)
    if size == 0:
        return None
    with open(path, "r+b") as handle:
        handle.truncate(max(0, size - nbytes))
    return path

def flip_bit(directory: str, *, offset: Optional[int] = None) -> Optional[str]:
    """Flip one bit of the newest segment (silent disk corruption).

    ``offset`` defaults to the middle of the file — deterministic, and
    far from both the segment's checkpoint frame and its tail, so the
    damage reliably lands inside the frame run.  Returns the damaged
    path, or ``None`` when there is no segment to corrupt.
    """
    segments = wal_segments(directory)
    if not segments:
        return None
    path = segments[-1]
    size = os.path.getsize(path)
    if size == 0:
        return None
    position = size // 2 if offset is None else offset % size
    with open(path, "r+b") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes((byte[0] ^ 0x10,)))
    return path

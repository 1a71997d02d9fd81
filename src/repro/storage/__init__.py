"""Durable storage for the live consensus stack.

A segmented, checksummed write-ahead log (:mod:`repro.storage.wal`) and
the Raft storage engine binding it under the live node
(:mod:`repro.storage.engine`).  See docs/storage.md for the on-disk
format, the fsync-batching barrier, and the recovery protocol.
"""

from repro.storage.engine import (
    DurableNode,
    DurableRaftLog,
    DurableState,
    RaftStorage,
    StorageQuarantineError,
    replay_records,
)
from repro.storage.wal import (
    DEFAULT_SEGMENT_BYTES,
    Recovery,
    Wal,
    WalCheckpoint,
    WalCorruptionError,
    WalEntry,
    WalError,
    WalStats,
    WalTerm,
    encode_frame,
    flip_bit,
    read_snapshot,
    recover_wal,
    scan_frames,
    snapshot_files,
    tear_tail,
    wal_segments,
    write_snapshot,
)

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "DurableNode",
    "DurableRaftLog",
    "DurableState",
    "RaftStorage",
    "Recovery",
    "StorageQuarantineError",
    "Wal",
    "WalCheckpoint",
    "WalCorruptionError",
    "WalEntry",
    "WalError",
    "WalStats",
    "WalTerm",
    "encode_frame",
    "flip_bit",
    "read_snapshot",
    "recover_wal",
    "replay_records",
    "scan_frames",
    "snapshot_files",
    "tear_tail",
    "wal_segments",
    "write_snapshot",
]

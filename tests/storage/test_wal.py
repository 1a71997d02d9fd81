"""Unit tests for the WAL and the Raft storage engine.

Every durability claim here is proven the only honest way: write, crash
(simulated power failure — un-synced state really disappears), reopen,
and compare against what was durable.  Tier-1: these run on every
``pytest`` invocation.
"""

import os

import pytest

from repro.algorithms.raft.log import Entry
from repro.live.engine import DurableRaftNode
from repro.sim.serialize import binary_dumps
from repro.storage import (
    RaftStorage,
    StorageQuarantineError,
    Wal,
    WalCheckpoint,
    WalCorruptionError,
    WalEntry,
    WalError,
    WalTerm,
    encode_frame,
    flip_bit,
    read_snapshot,
    recover_wal,
    replay_records,
    scan_frames,
    snapshot_files,
    tear_tail,
    wal_segments,
    write_snapshot,
)


def compact_to(storage, index, machine):
    """Append up to ``index`` and compact with ``machine`` as the image."""
    for at in range(storage.snapshot_index + len(storage.entries) + 1, index + 1):
        storage.record_append(at, Entry(1, f"cmd-{at}"))
    storage.record_compact(index, 1, machine, [])


def snapshot_names(directory):
    return [os.path.basename(path) for path in snapshot_files(str(directory))]


class TestFrameCodec:
    def test_roundtrip_single(self):
        records, damage, reason = scan_frames(encode_frame(WalTerm(3, 1)))
        assert damage is None and reason is None
        assert records == [WalTerm(3, 1)]

    def test_roundtrip_run(self):
        run = [
            WalCheckpoint(2, None, 0, 0),
            WalEntry(1, 2, ("put", "k", "v")),
            WalTerm(3, 0),
        ]
        data = b"".join(encode_frame(r) for r in run)
        records, damage, _ = scan_frames(data)
        assert damage is None
        assert records == run

    def test_empty_is_clean(self):
        assert scan_frames(b"") == ([], None, None)

    def test_truncated_header_marks_damage(self):
        data = encode_frame(WalTerm(1, None))
        records, damage, reason = scan_frames(data + b"\x00\x00")
        assert records == [WalTerm(1, None)]
        assert damage == len(data)
        assert "header" in reason

    def test_crc_mismatch_marks_damage(self):
        data = bytearray(encode_frame(WalTerm(1, None)))
        data[-1] ^= 0xFF
        records, damage, reason = scan_frames(bytes(data))
        assert records == [] and damage == 0
        assert "checksum" in reason

    def test_implausible_length_marks_damage(self):
        records, damage, reason = scan_frames(b"\xff\xff\xff\xff" * 4)
        assert records == [] and damage == 0
        assert "length" in reason


class TestWalWriter:
    def test_append_requires_open_segment(self, tmp_path):
        wal = Wal(str(tmp_path))
        with pytest.raises(WalError):
            wal.append(WalTerm(1, None))

    def test_synced_records_survive_crash(self, tmp_path):
        wal = Wal(str(tmp_path))
        wal.checkpoint([WalCheckpoint(0, None, 0, 0)])
        wal.append(WalTerm(1, 2))
        wal.append(WalEntry(1, 1, "a"))
        wal.sync()
        wal.append(WalEntry(2, 1, "lost"))
        assert wal.dirty
        wal.crash()
        recovery = recover_wal(str(tmp_path))
        assert not recovery.torn_tail
        assert recovery.records == [
            WalCheckpoint(0, None, 0, 0),
            WalTerm(1, 2),
            WalEntry(1, 1, "a"),
        ]

    def test_torn_crash_leaves_recoverable_prefix(self, tmp_path):
        wal = Wal(str(tmp_path))
        wal.checkpoint([WalCheckpoint(0, None, 0, 0)])
        wal.append(WalEntry(1, 1, "a"))
        wal.sync()
        wal.append(WalEntry(2, 1, "torn"))
        wal.crash(torn=True)
        recovery = recover_wal(str(tmp_path))
        assert recovery.torn_tail
        assert recovery.records[-1] == WalEntry(1, 1, "a")

    def test_checkpoint_rotates_and_deletes_older_segments(self, tmp_path):
        wal = Wal(str(tmp_path))
        wal.checkpoint([WalCheckpoint(0, None, 0, 0)])
        wal.append(WalEntry(1, 1, "a"))
        wal.sync()
        wal.checkpoint([WalCheckpoint(1, 0, 0, 0), WalEntry(1, 1, "a")])
        segments = wal_segments(str(tmp_path))
        assert [os.path.basename(p) for p in segments] == ["wal-00000002.log"]
        assert wal.stats.rotations == 2

    def test_closed_wal_rejects_writes(self, tmp_path):
        wal = Wal(str(tmp_path))
        wal.checkpoint([WalCheckpoint(0, None, 0, 0)])
        wal.close()
        with pytest.raises(WalError):
            wal.append(WalTerm(1, None))
        with pytest.raises(WalError):
            wal.sync()

    def test_none_policy_loses_everything_on_crash(self, tmp_path):
        wal = Wal(str(tmp_path), sync_policy="none")
        wal.checkpoint([WalCheckpoint(0, None, 0, 0)])
        wal.append(WalEntry(1, 1, "acked"))
        wal.sync()  # claims durability but never fsyncs
        wal.crash()
        recovery = recover_wal(str(tmp_path))
        assert recovery.records == []

    def test_stats_count_group_syncs(self, tmp_path):
        wal = Wal(str(tmp_path))
        wal.checkpoint([WalCheckpoint(0, None, 0, 0)])
        for index in range(1, 11):
            wal.append(WalEntry(index, 1, "x"))
        wal.sync()
        wal.close()
        # 11 appends (checkpoint frame + 10 entries) over 2 syncs: the
        # whole batch shared one fsync barrier.
        assert wal.stats.appends == 11
        assert wal.stats.syncs == 2


class TestRecovery:
    def test_fresh_directory(self, tmp_path):
        recovery = recover_wal(str(tmp_path / "missing"))
        assert recovery.records == [] and recovery.next_segment == 1

    def test_torn_rotation_falls_back_to_previous_segment(self, tmp_path):
        wal = Wal(str(tmp_path))
        wal.checkpoint([WalCheckpoint(3, 1, 0, 0), WalEntry(1, 3, "a")])
        wal.close()
        # A rotation that died mid-checkpoint: garbage newest segment.
        with open(tmp_path / "wal-00000002.log", "wb") as fh:
            fh.write(b"\x00\x01garbage")
        recovery = recover_wal(str(tmp_path))
        assert recovery.records[0] == WalCheckpoint(3, 1, 0, 0)
        assert recovery.next_segment == 3

    def test_bad_checkpoint_in_sealed_segment_is_corruption(self, tmp_path):
        with open(tmp_path / "wal-00000001.log", "wb") as fh:
            fh.write(b"garbage that is not a frame")
        with open(tmp_path / "wal-00000002.log", "wb") as fh:
            fh.write(b"more garbage")
        with pytest.raises(WalCorruptionError):
            recover_wal(str(tmp_path))

    def test_damage_inside_sealed_segment_is_corruption(self, tmp_path):
        frames = [
            encode_frame(WalCheckpoint(1, None, 0, 0)),
            encode_frame(WalEntry(1, 1, "x" * 64)),
            encode_frame(WalEntry(2, 1, "y" * 64)),
        ]
        sealed = bytearray(b"".join(frames))
        sealed[len(frames[0]) + 12] ^= 0x01  # body of the middle frame
        with open(tmp_path / "wal-00000001.log", "wb") as fh:
            fh.write(bytes(sealed))
        with open(tmp_path / "wal-00000002.log", "wb") as fh:
            fh.write(b"torn rotation tail")
        with pytest.raises(WalCorruptionError):
            recover_wal(str(tmp_path))

    def test_replay_applies_truncate_then_append(self):
        state = replay_records(
            [
                WalCheckpoint(1, 0, 0, 0),
                WalEntry(1, 1, "a"),
                WalEntry(2, 1, "b"),
                WalTerm(2, None),
                WalEntry(2, 2, "b'"),  # conflict-suffix rewrite
            ]
        )
        assert state.term == 2 and state.voted_for is None
        assert [e.command for e in state.entries] == ["a", "b'"]
        assert state.entries[1].term == 2

    def test_replay_rejects_gaps(self):
        with pytest.raises(WalCorruptionError):
            replay_records([WalCheckpoint(0, None, 0, 0), WalEntry(5, 1, "x")])


class TestSnapshotFiles:
    def test_roundtrip(self, tmp_path):
        write_snapshot(str(tmp_path), 7, ({"k": "v"}, 7))
        assert read_snapshot(str(tmp_path), 7) == ({"k": "v"}, 7)

    def test_missing_raises(self, tmp_path):
        with pytest.raises(WalCorruptionError):
            read_snapshot(str(tmp_path), 9)

    def test_damaged_raises(self, tmp_path):
        path = write_snapshot(str(tmp_path), 7, ({"k": "v"}, 7))
        with open(path, "r+b") as fh:
            fh.seek(10)
            fh.write(b"\xff")
        with pytest.raises(WalCorruptionError):
            read_snapshot(str(tmp_path), 7)

    def test_truncated_raises(self, tmp_path):
        path = write_snapshot(str(tmp_path), 7, ({"k": "v"}, 7))
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-3])
        with pytest.raises(WalCorruptionError):
            read_snapshot(str(tmp_path), 7)

    def test_empty_file_raises(self, tmp_path):
        open(tmp_path / f"snap-{7:016d}.bin", "wb").close()
        with pytest.raises(WalCorruptionError):
            read_snapshot(str(tmp_path), 7)

    def test_extra_frames_raise(self, tmp_path):
        # One image per file: a second intact frame is not a snapshot.
        path = write_snapshot(str(tmp_path), 7, ({"k": "v"}, 7))
        with open(path, "ab") as fh:
            fh.write(encode_frame(({"k": "w"}, 8)))
        with pytest.raises(WalCorruptionError):
            read_snapshot(str(tmp_path), 7)

    def test_rewrite_replaces_image_and_leaves_no_temp(self, tmp_path):
        write_snapshot(str(tmp_path), 7, ({"k": "v"}, 7))
        write_snapshot(str(tmp_path), 7, ({"k": "w"}, 7))
        assert read_snapshot(str(tmp_path), 7) == ({"k": "w"}, 7)
        assert snapshot_names(tmp_path) == [f"snap-{7:016d}.bin"]

    def test_snapshot_files_lists_images_and_temp_leftovers(self, tmp_path):
        for name in (
            f"snap-{20:016d}.bin.tmp",
            f"snap-{10:016d}.bin",
            f"snap-{10:016d}.bin.bak",
            "snap-10.bin",
            f"wal-{1:08d}.log",
        ):
            (tmp_path / name).write_bytes(b"")
        assert snapshot_names(tmp_path) == [
            f"snap-{10:016d}.bin",
            f"snap-{20:016d}.bin.tmp",
        ]


class TestRaftStorage:
    def test_cold_start_is_empty(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        assert storage.term == 0 and storage.voted_for is None
        assert storage.entries == [] and storage.snapshot_index == 0
        assert not storage.quarantined

    def test_crash_recovery_preserves_synced_state(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        storage.record_term(2, 1)
        storage.record_append(1, Entry(2, "a"))
        storage.record_append(2, Entry(2, "b"))
        storage.sync()
        storage.record_append(3, Entry(2, "unsynced"))
        storage.crash()

        recovered = RaftStorage(str(tmp_path))
        assert recovered.term == 2 and recovered.voted_for == 1
        assert [e.command for e in recovered.entries] == ["a", "b"]

    def test_compaction_persists_snapshot_and_prunes(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        for index in range(1, 6):
            storage.record_append(index, Entry(1, f"c{index}"))
        storage.record_compact(3, 1, ({"state": 3}, 3), [Entry(1, "c4"), Entry(1, "c5")])
        storage.sync()
        storage.crash()

        recovered = RaftStorage(str(tmp_path))
        assert recovered.snapshot_index == 3 and recovered.snapshot_term == 1
        assert recovered.machine_snapshot == ({"state": 3}, 3)
        assert [e.command for e in recovered.entries] == ["c4", "c5"]

    def test_segment_overflow_rotates_at_sync(self, tmp_path):
        storage = RaftStorage(str(tmp_path), segment_bytes=512)
        for index in range(1, 20):
            storage.record_append(index, Entry(1, "x" * 64))
            storage.sync()
        assert storage.stats.rotations > 1
        assert len(wal_segments(str(tmp_path))) == 1  # old ones GC'd
        recovered = RaftStorage(str(tmp_path))
        assert len(recovered.entries) == 19

    def test_quarantine_on_corruption(self, tmp_path):
        frames = [
            encode_frame(WalCheckpoint(1, None, 0, 0)),
            encode_frame(WalEntry(1, 1, "x" * 64)),
            encode_frame(WalEntry(2, 1, "y" * 64)),
        ]
        sealed = bytearray(b"".join(frames))
        sealed[len(frames[0]) + 12] ^= 0x01
        with open(tmp_path / "wal-00000001.log", "wb") as fh:
            fh.write(bytes(sealed))
        with open(tmp_path / "wal-00000002.log", "wb") as fh:
            fh.write(b"torn rotation tail")
        storage = RaftStorage(str(tmp_path))
        assert storage.quarantined
        assert storage.term == 0 and storage.entries == []
        quarantined = [
            name for name in os.listdir(tmp_path) if name.startswith("corrupt-")
        ]
        assert len(quarantined) == 1
        # The node is operational again and persists as usual.
        storage.record_term(1, 0)
        storage.sync()
        storage.crash()
        assert RaftStorage(str(tmp_path)).term == 1

    def test_no_rejoin_cold_start_and_recovery_unaffected(self, tmp_path):
        storage = RaftStorage(str(tmp_path), no_rejoin=True)
        storage.record_term(3, 1)
        storage.record_append(1, Entry(3, "a"))
        storage.sync()
        storage.crash()
        recovered = RaftStorage(str(tmp_path), no_rejoin=True)
        assert recovered.term == 3
        assert [e.command for e in recovered.entries] == ["a"]

    def test_no_rejoin_tolerates_torn_tail(self, tmp_path):
        # A torn tail is a crash signature, not a failing disk: strict
        # mode must still recover the valid prefix and start.
        storage = RaftStorage(str(tmp_path))
        for index in range(1, 6):
            storage.record_append(index, Entry(1, f"v{index}" * 10))
        storage.sync()
        storage.close()
        assert tear_tail(str(tmp_path)) is not None
        recovered = RaftStorage(str(tmp_path), no_rejoin=True)
        assert recovered.torn_tail
        assert len(recovered.entries) == 4

    def _corrupt_sealed_segment(self, tmp_path):
        frames = [
            encode_frame(WalCheckpoint(1, None, 0, 0)),
            encode_frame(WalEntry(1, 1, "x" * 64)),
        ]
        sealed = bytearray(b"".join(frames))
        sealed[len(frames[0]) + 12] ^= 0x01
        with open(tmp_path / "wal-00000001.log", "wb") as fh:
            fh.write(bytes(sealed))
        with open(tmp_path / "wal-00000002.log", "wb") as fh:
            fh.write(b"torn rotation tail")

    def test_no_rejoin_refuses_corrupt_segment(self, tmp_path):
        self._corrupt_sealed_segment(tmp_path)
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(StorageQuarantineError):
            RaftStorage(str(tmp_path), no_rejoin=True)
        # Nothing moved aside: the evidence stays put for the operator.
        assert sorted(os.listdir(tmp_path)) == before
        assert not any(name.startswith("corrupt-") for name in before)
        # Default mode on the same directory still self-heals.
        storage = RaftStorage(str(tmp_path))
        assert storage.quarantined

    def test_no_rejoin_refuses_missing_snapshot(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        for index in range(1, 4):
            storage.record_append(index, Entry(1, f"c{index}"))
        storage.record_compact(2, 1, ({"k": 2}, 2), [Entry(1, "c3")])
        storage.sync()
        storage.close()
        os.unlink(tmp_path / f"snap-{2:016d}.bin")
        with pytest.raises(StorageQuarantineError):
            RaftStorage(str(tmp_path), no_rejoin=True)

    def test_every_compaction_writes_one_full_image(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        data = {}
        for step in range(1, 6):
            data = dict(data, **{f"k{step}": step})
            compact_to(storage, step * 10, (data, step * 10))
            assert snapshot_names(tmp_path) == [f"snap-{step * 10:016d}.bin"]
            assert read_snapshot(str(tmp_path), step * 10) == (data, step * 10)
        assert storage.compactions == 5
        storage.crash()
        recovered = RaftStorage(str(tmp_path))
        assert recovered.snapshot_index == 50
        assert recovered.machine_snapshot == (data, 50)
        recovered.close()

    def test_recovered_storage_compacts_again(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        compact_to(storage, 10, ({"a": 1}, 10))
        storage.crash()
        recovered = RaftStorage(str(tmp_path))
        compact_to(recovered, 20, ({"a": 2}, 20))
        assert snapshot_names(tmp_path) == [f"snap-{20:016d}.bin"]
        recovered.crash()
        again = RaftStorage(str(tmp_path))
        assert again.snapshot_index == 20
        assert again.machine_snapshot == ({"a": 2}, 20)
        again.close()

    def test_stale_older_snapshot_is_unlinked_at_open(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        compact_to(storage, 10, ({"a": 1}, 10))
        storage.crash()
        write_snapshot(str(tmp_path), 5, ({"a": 0}, 5))
        recovered = RaftStorage(str(tmp_path))
        assert recovered.snapshot_index == 10
        assert recovered.machine_snapshot == ({"a": 1}, 10)
        assert snapshot_names(tmp_path) == [f"snap-{10:016d}.bin"]
        recovered.close()

    def test_missing_snapshot_quarantines_and_rejoins_empty(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        compact_to(storage, 10, ({"a": 1}, 10))
        storage.close()
        os.unlink(tmp_path / f"snap-{10:016d}.bin")
        recovered = RaftStorage(str(tmp_path))
        assert recovered.quarantined
        assert "missing snapshot" in recovered.quarantine_reason
        assert recovered.snapshot_index == 0 and recovered.entries == []
        assert recovered.machine_snapshot is None
        recovered.close()

    def test_second_compaction_leaves_one_snapshot_file(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        compact_to(storage, 10, ({"keep": 1, "drop": 2}, 10))
        compact_to(storage, 20, ({"keep": 1, "new": 3}, 20))
        assert snapshot_names(tmp_path) == [f"snap-{20:016d}.bin"]
        storage.crash()
        recovered = RaftStorage(str(tmp_path))
        assert recovered.snapshot_index == 20
        assert recovered.machine_snapshot == ({"keep": 1, "new": 3}, 20)
        recovered.close()

    def test_crash_between_snapshot_and_checkpoint(self, tmp_path):
        """Compaction dies after writing its image but before the
        checkpoint that names it: the older snapshot is still the durable
        truth, and the opening checkpoint's GC drops only the orphan."""
        storage = RaftStorage(str(tmp_path))
        compact_to(storage, 10, ({"a": 1}, 10))
        compact_to(storage, 20, ({"a": 1, "b": 2}, 20))
        write_snapshot(str(tmp_path), 30, ({"a": 1, "b": 2, "c": 3}, 30))
        storage.crash()
        recovered = RaftStorage(str(tmp_path))
        assert recovered.snapshot_index == 20
        assert recovered.machine_snapshot == ({"a": 1, "b": 2}, 20)
        assert snapshot_names(tmp_path) == [f"snap-{20:016d}.bin"]
        recovered.close()

    def test_unrenamed_snapshot_temp_file_is_cleared(self, tmp_path):
        """A crash inside ``write_snapshot`` (before its rename) leaves a
        ``.tmp``; reopening unlinks it and recovers the named snapshot."""
        storage = RaftStorage(str(tmp_path))
        compact_to(storage, 10, ({"a": 1}, 10))
        storage.crash()
        leftover = tmp_path / f"snap-{20:016d}.bin.tmp"
        leftover.write_bytes(encode_frame(({"a": 1, "b": 2}, 20))[:-3])
        recovered = RaftStorage(str(tmp_path))
        assert not leftover.exists()
        assert not recovered.quarantined
        assert recovered.snapshot_index == 10
        assert recovered.machine_snapshot == ({"a": 1}, 10)
        assert snapshot_names(tmp_path) == [f"snap-{10:016d}.bin"]
        recovered.close()

    def _damage_snapshot(self, directory):
        storage = RaftStorage(str(directory))
        compact_to(storage, 10, ({"a": 1}, 10))
        compact_to(storage, 20, ({"a": 1, "b": 2}, 20))
        storage.crash()
        path = directory / f"snap-{20:016d}.bin"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))

    def test_damaged_snapshot_quarantines_and_rejoins_empty(self, tmp_path):
        self._damage_snapshot(tmp_path)
        recovered = RaftStorage(str(tmp_path))
        assert recovered.quarantined
        assert recovered.snapshot_index == 0 and recovered.entries == []
        assert recovered.machine_snapshot is None
        assert snapshot_names(tmp_path) == []
        recovered.close()

    def test_damaged_snapshot_respects_no_rejoin(self, tmp_path):
        self._damage_snapshot(tmp_path)
        with pytest.raises(StorageQuarantineError):
            RaftStorage(str(tmp_path), no_rejoin=True)

    def test_quarantine_keeps_damaged_snapshot_as_evidence(self, tmp_path):
        self._damage_snapshot(tmp_path)
        recovered = RaftStorage(str(tmp_path))
        kept = sorted(os.listdir(tmp_path / "corrupt-0000"))
        assert f"snap-{20:016d}.bin" in kept
        assert any(name.startswith("wal-") for name in kept)
        recovered.close()

    def test_unrenamed_temp_file_is_no_corruption_under_no_rejoin(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        compact_to(storage, 10, ({"a": 1}, 10))
        storage.crash()
        leftover = tmp_path / f"snap-{20:016d}.bin.tmp"
        leftover.write_bytes(b"half an image")
        recovered = RaftStorage(str(tmp_path), no_rejoin=True)
        assert not leftover.exists()
        assert recovered.machine_snapshot == ({"a": 1}, 10)
        recovered.close()

    def test_term_journalling_deduplicates(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        appends_before = storage.stats.appends
        storage.record_term(1, None)
        storage.record_term(1, None)  # repeat assignment, no new record
        storage.record_term(1, 2)
        assert storage.stats.appends == appends_before + 2


class TestFaultHelpers:
    def _stored(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        for index in range(1, 6):
            storage.record_append(index, Entry(1, f"v{index}" * 10))
        storage.sync()
        storage.close()

    def test_tear_tail_truncates_last_record(self, tmp_path):
        self._stored(tmp_path)
        assert tear_tail(str(tmp_path)) is not None
        recovered = RaftStorage(str(tmp_path))
        assert recovered.torn_tail
        assert len(recovered.entries) == 4

    def test_flip_bit_damages_without_wrong_records(self, tmp_path):
        self._stored(tmp_path)
        assert flip_bit(str(tmp_path)) is not None
        recovered = RaftStorage(str(tmp_path))
        # Damage mid-segment: recovery truncated from it (or, had it hit
        # the checkpoint, started empty) — but never invented a record.
        commands = [e.command for e in recovered.entries]
        assert commands == [f"v{i}" * 10 for i in range(1, len(commands) + 1)]
        assert len(commands) < 5


class TestDurableRaftNode:
    def test_journal_and_recover_figure2_state(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        node = DurableRaftNode(storage=storage)
        node.current_term = 4
        node.voted_for = 2
        node.log.append_new(Entry(4, "alpha"))
        node.log.append_new(Entry(4, "beta"))
        assert node.log.try_append(2, 4, [Entry(5, "beta'")])
        storage.sync()
        storage.crash()

        recovered = RaftStorage(str(tmp_path))
        revived = DurableRaftNode(storage=recovered)
        assert revived.current_term == 4
        assert revived.voted_for == 2
        assert revived.log.last_index == 3
        assert [e.command for e in revived.log.as_list()] == [
            "alpha", "beta", "beta'",
        ]
        assert revived.log.term_at(3) == 5

    def test_compaction_journals_machine_snapshot(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        node = DurableRaftNode(storage=storage)
        node.current_term = 1
        for command in ("a", "b", "c"):
            node.log.append_new(Entry(1, command))
        node.machine_snapshot = ({"applied": "ab"}, 2)
        node.log.compact_to(2)
        storage.sync()
        storage.crash()

        recovered = RaftStorage(str(tmp_path))
        revived = DurableRaftNode(storage=recovered)
        assert revived.log.snapshot_index == 2
        assert revived.machine_snapshot == ({"applied": "ab"}, 2)
        assert [e.command for e in revived.log.as_list()] == ["c"]

    def test_unsynced_changes_die_with_the_power(self, tmp_path):
        storage = RaftStorage(str(tmp_path))
        node = DurableRaftNode(storage=storage)
        node.current_term = 1
        node.log.append_new(Entry(1, "durable"))
        storage.sync()
        node.current_term = 9  # never synced
        node.log.append_new(Entry(9, "gone"))
        storage.crash()

        revived = DurableRaftNode(storage=RaftStorage(str(tmp_path)))
        assert revived.current_term == 1
        assert [e.command for e in revived.log.as_list()] == ["durable"]

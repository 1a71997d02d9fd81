"""Seeded crash-recovery property test — Raft Figure 2, proven by fire.

Each scenario drives a :class:`RaftStorage` through a random interleaving
of term bumps, votes, appends, conflict-suffix rewrites, compactions and
syncs, then pulls the power at that random point and cold-restarts.  The
recovered ``currentTerm`` / ``votedFor`` / log / snapshot must equal the
shadow model's state at the last durability barrier (an explicit sync or
a compaction checkpoint):

* a **clean** power failure loses exactly the un-fsynced buffer, so
  recovery must land *exactly* on the durable shadow;
* a **torn** power failure may persist any prefix of the buffered
  records plus a damaged final frame, so recovery must land on the
  durable shadow extended by some prefix of the pending operations —
  and nothing else.

Both sync points run the property: the wall clock's real ``fsync`` and
:class:`SimRuntime`'s bookkeeping alone (with ``os.fsync`` made to
raise), so a simulated disk's durability is the same model.

Tier-1: in-process power failures are cheap, so this runs everywhere.
"""

import copy
import os
import random

import pytest

from repro.algorithms.raft.log import Entry
from repro.core.runtime import AsyncioRuntime, SimRuntime
from repro.storage import RaftStorage


def fresh_shadow():
    return {
        "term": 0,
        "voted_for": None,
        "snapshot_index": 0,
        "snapshot_term": 0,
        "entries": [],
        "machine": None,
    }


def apply_op(shadow, op):
    """Apply one logical operation to a shadow state (mutates it)."""
    kind = op[0]
    if kind == "term":
        _, term, voted_for = op
        shadow["term"] = term
        shadow["voted_for"] = voted_for
    elif kind == "append":
        _, index, entry = op
        position = index - shadow["snapshot_index"] - 1
        del shadow["entries"][position:]
        shadow["entries"].append(entry)
    elif kind == "compact":
        _, index, term, machine = op
        keep = index - shadow["snapshot_index"]
        shadow["entries"] = shadow["entries"][keep:]
        shadow["snapshot_index"] = index
        shadow["snapshot_term"] = term
        shadow["machine"] = machine
    else:  # pragma: no cover - generator bug
        raise AssertionError(op)


def state_of(storage):
    return {
        "term": storage.term,
        "voted_for": storage.voted_for,
        "snapshot_index": storage.snapshot_index,
        "snapshot_term": storage.snapshot_term,
        "entries": list(storage.entries),
        "machine": storage.machine_snapshot,
    }


def perform(storage, op):
    kind = op[0]
    if kind == "term":
        storage.record_term(op[1], op[2])
    elif kind == "append":
        storage.record_append(op[1], op[2])
    else:
        _, index, term, machine = op
        shadow_entries = storage.entries[index - storage.snapshot_index :]
        storage.record_compact(index, term, machine, shadow_entries)


def generate_op(rng, shadow):
    """Draw the next operation, valid against the current shadow state."""
    last_index = shadow["snapshot_index"] + len(shadow["entries"])
    choices = ["append"] * 6 + ["term"] * 2 + ["sync"] * 3
    if last_index > shadow["snapshot_index"]:
        choices += ["compact"]
    kind = rng.choice(choices)
    if kind == "append":
        if shadow["entries"] and rng.random() < 0.2:
            # Conflict-suffix rewrite at a random retained position.
            index = rng.randint(shadow["snapshot_index"] + 1, last_index)
            term = shadow["term"] + 1
        else:
            index = last_index + 1
            term = max(shadow["term"], 1)
        return ("append", index, Entry(term, f"cmd-{index}-{term}"))
    if kind == "term":
        return ("term", shadow["term"] + 1, rng.choice([None, 0, 1, 2]))
    if kind == "compact":
        index = rng.randint(shadow["snapshot_index"] + 1, last_index)
        position = index - shadow["snapshot_index"] - 1
        term = shadow["entries"][position].term
        return ("compact", index, term, ({"applied": index}, index))
    return ("sync",)


def run_scenario(seed, directory, *, torn, runtime):
    rng = random.Random(seed)
    storage = RaftStorage(str(directory), runtime=runtime)
    durable = fresh_shadow()  # opening checkpoint is itself synced
    latest = fresh_shadow()
    pending = []

    for _ in range(rng.randint(4, 40)):
        op = generate_op(rng, latest)
        if op[0] == "sync":
            storage.sync()
            durable = copy.deepcopy(latest)
            pending = []
            continue
        perform(storage, op)
        apply_op(latest, op)
        if op[0] == "compact":
            # Compaction checkpoints (and fsyncs) the full state.
            durable = copy.deepcopy(latest)
            pending = []
        else:
            pending.append(op)

    storage.crash(torn=torn)
    recovered = RaftStorage(str(directory), runtime=runtime)
    observed = state_of(recovered)
    recovered.close()

    if not torn:
        assert observed == durable, (
            f"seed {seed}: clean power failure must land exactly on the "
            f"durable barrier\n durable={durable}\nobserved={observed}"
        )
        return

    # Torn write: any prefix of the pending ops may have hit the platter.
    candidates = []
    shadow = copy.deepcopy(durable)
    candidates.append(copy.deepcopy(shadow))
    for op in pending:
        apply_op(shadow, op)
        candidates.append(copy.deepcopy(shadow))
    assert observed in candidates, (
        f"seed {seed}: torn recovery produced a state that was never "
        f"journalled\nobserved={observed}\ncandidates={candidates}"
    )


class TestCrashRecoveryProperty:
    """On the wall clock: every sync point is a real ``fsync``."""

    @pytest.fixture
    def runtime(self):
        return AsyncioRuntime()

    @pytest.mark.parametrize("seed", range(30))
    def test_clean_power_failure(self, tmp_path, seed, runtime):
        run_scenario(seed, tmp_path, torn=False, runtime=runtime)

    @pytest.mark.parametrize("seed", range(30))
    def test_torn_power_failure(self, tmp_path, seed, runtime):
        run_scenario(seed + 1000, tmp_path, torn=True, runtime=runtime)

    @pytest.mark.parametrize("seed", range(10))
    def test_double_crash(self, tmp_path, seed, runtime):
        """Crash during recovery's own checkpoint must also be safe."""
        rng = random.Random(seed)
        storage = RaftStorage(str(tmp_path), runtime=runtime)
        for index in range(1, rng.randint(2, 10)):
            storage.record_append(index, Entry(1, f"c{index}"))
        storage.sync()
        expected = state_of(storage)
        storage.crash()
        # First recovery immediately loses power again, before syncing
        # anything new; its opening checkpoint is the only write.
        first = RaftStorage(str(tmp_path), runtime=runtime)
        first.crash(torn=bool(seed % 2))
        second = RaftStorage(str(tmp_path), runtime=runtime)
        assert state_of(second) == expected
        second.close()


class TestCrashRecoveryPropertySimulated(TestCrashRecoveryProperty):
    """On :class:`SimRuntime`: every sync point is bookkeeping, and a
    clean crash still lands exactly on the last one."""

    @pytest.fixture
    def runtime(self, monkeypatch):
        def no_fsync(fd):
            raise AssertionError("a simulated disk made an fsync syscall")

        monkeypatch.setattr(os, "fsync", no_fsync)
        rt = SimRuntime()
        yield rt
        rt.close()

"""Tests for the log-compaction / InstallSnapshot extension."""

import pytest

from repro.algorithms.raft import ClientPropose, Put, RaftNode
from repro.algorithms.raft.log import CompactedError, Entry, RaftLog
from repro.algorithms.raft.state_machine import (
    DecideStateMachine,
    KeyValueStateMachine,
)
from repro.sim.async_runtime import AsyncRuntime
from repro.sim.failures import CrashPlan
from repro.sim.network import NetworkConfig, UniformDelay
from repro.sim.ops import Broadcast, Receive, SetTimer, TimerFired
from repro.sim.process import FunctionProcess


def entries(*terms):
    return [Entry(term, f"cmd{i}") for i, term in enumerate(terms, 1)]


class TestLogCompaction:
    def test_compact_discards_prefix_keeps_semantics(self):
        log = RaftLog(entries(1, 1, 2, 3))
        log.compact_to(2)
        assert log.snapshot_index == 2
        assert log.snapshot_term == 1
        assert log.last_index == 4
        assert log.last_term == 3
        assert log.term_at(2) == 1  # remembered from the snapshot
        assert log.term_at(3) == 2

    def test_compacted_indices_raise(self):
        log = RaftLog(entries(1, 1, 2))
        log.compact_to(2)
        with pytest.raises(CompactedError):
            log.entry_at(1)
        with pytest.raises(CompactedError):
            log.term_at(1)
        with pytest.raises(CompactedError):
            log.entries_from(1)

    def test_compact_is_idempotent_and_bounded(self):
        log = RaftLog(entries(1, 2))
        log.compact_to(1)
        log.compact_to(1)  # no-op
        assert log.snapshot_index == 1
        with pytest.raises(IndexError):
            log.compact_to(5)

    def test_try_append_after_compaction(self):
        log = RaftLog(entries(1, 1, 2))
        log.compact_to(2)
        assert log.try_append(3, 2, [Entry(3, "new")])
        assert log.last_index == 4
        # Conflict deletion across the snapshot boundary:
        assert log.try_append(2, 1, [Entry(4, "overwrite")])
        assert log.last_index == 3
        assert log.term_at(3) == 4

    def test_try_append_overlapping_compacted_prefix(self):
        log = RaftLog(entries(1, 1))
        log.compact_to(2)
        # A stale message covering already-compacted entries only: accepted
        # as a no-op (it is committed history).
        assert log.try_append(0, 0, entries(1, 1))
        assert log.last_index == 2
        # One that extends beyond the snapshot: skip the covered part.
        assert log.try_append(0, 0, entries(1, 1) + [Entry(2, "tail")])
        assert log.last_index == 3
        assert log.term_at(3) == 2

    def test_install_snapshot_replaces_conflicting_log(self):
        log = RaftLog(entries(1, 1))
        log.install_snapshot(5, 3)
        assert log.snapshot_index == 5
        assert log.last_index == 5
        assert len(log) == 0

    def test_install_snapshot_keeps_consistent_suffix(self):
        log = RaftLog(entries(1, 1, 2, 2))
        log.install_snapshot(3, 2)  # matches local entry 3's term
        assert log.snapshot_index == 3
        assert log.last_index == 4
        assert log.entry_at(4).term == 2

    def test_install_snapshot_older_than_current_is_ignored(self):
        log = RaftLog(entries(1, 1, 2))
        log.compact_to(3)
        log.install_snapshot(2, 1)
        assert log.snapshot_index == 3


class TestStateMachineSnapshots:
    def test_kv_snapshot_roundtrip(self):
        machine = KeyValueStateMachine()
        machine.apply(1, Put("a", 1))
        image = machine.snapshot()
        machine.apply(2, Put("a", 2))
        machine.restore(image)
        assert machine.data == {"a": 1}
        assert machine.applied_count == 1

    def test_decide_snapshot_roundtrip(self):
        machine = DecideStateMachine()
        from repro.algorithms.raft.state_machine import DecideAndStop

        machine.apply(1, DecideAndStop("v"))
        image = machine.snapshot()
        machine.reset()
        machine.restore(image)
        assert machine.decision == "v"


def kv_node(threshold):
    return RaftNode(
        state_machine_factory=KeyValueStateMachine,
        propose_on_leadership=False,
        snapshot_threshold=threshold,
        cluster_size=3,
    )


COMMANDS = [Put(f"k{i}", i) for i in range(8)]
EXPECTED = {f"k{i}": i for i in range(8)}


def make_client(commands):
    def client(api):
        yield SetTimer(5.0, "tick")
        while True:
            yield Receive(
                count=1, predicate=lambda e: isinstance(e.payload, TimerFired)
            )
            for command in commands:
                yield Broadcast(ClientPropose(command), include_self=False)
            yield SetTimer(8.0, "tick")

    return FunctionProcess(client)


def run_cluster(threshold, seed=0, crash_plans=(), max_time=800.0):
    nodes = [kv_node(threshold) for _ in range(3)]
    processes = nodes + [make_client(COMMANDS)]

    def all_caught_up(runtime):
        if runtime.pending_restarts:
            return False  # wait for scheduled restarts to rejoin first
        live = [
            node for pid, node in enumerate(nodes) if runtime.is_alive(pid)
        ]
        return bool(live) and all(
            node.machine.applied_count >= len(COMMANDS) for node in live
        )

    runtime = AsyncRuntime(
        processes,
        t=1,
        network=NetworkConfig(delay_model=UniformDelay(0.5, 1.5)),
        seed=seed,
        crash_plans=crash_plans,
        max_time=max_time,
        stop_when=all_caught_up,
    )
    return nodes, runtime.run()


class TestClusterWithSnapshots:
    @pytest.mark.parametrize("seed", range(4))
    def test_compaction_does_not_change_the_replicated_state(self, seed):
        nodes, result = run_cluster(threshold=3, seed=seed)
        assert all(node.machine.data == EXPECTED for node in nodes)
        compactions = result.trace.annotations("compacted")
        assert compactions, "threshold 3 over 8 commands must compact"

    @pytest.mark.parametrize("seed", range(4))
    def test_lagging_follower_repaired_via_install_snapshot(self, seed):
        # Node 2 sleeps through the whole stream; by the time it restarts
        # the leader has compacted, so only InstallSnapshot can repair it.
        nodes, result = run_cluster(
            threshold=2,
            seed=seed,
            crash_plans=[CrashPlan(2, at_time=2.0, restart_at=120.0)],
            max_time=2_000.0,
        )
        assert nodes[2].machine.data == EXPECTED
        installed = [
            (pid, value)
            for pid, _t, value in result.trace.annotations("snapshot_installed")
        ]
        assert any(pid == 2 for pid, _v in installed)

    def test_snapshot_survives_crash_restart(self):
        nodes, _result = run_cluster(
            threshold=2,
            seed=7,
            crash_plans=[CrashPlan(0, at_time=40.0, restart_at=60.0)],
            max_time=2_000.0,
        )
        assert nodes[0].machine.data == EXPECTED

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RaftNode(snapshot_threshold=0)

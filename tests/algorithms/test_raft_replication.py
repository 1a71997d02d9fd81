"""Raft as a general replicated log: client proposals + KV state machine.

These tests exercise the parts of the Raft substrate the single-shot
consensus specialization does not: multi-entry logs, client-driven
proposals, follower catch-up after restart, and NextIndex repair.
"""

import pytest

from repro.algorithms.raft import ClientPropose, LEADER, Put, RaftNode
from repro.algorithms.raft.state_machine import KeyValueStateMachine
from repro.sim.async_runtime import AsyncRuntime
from repro.sim.failures import CrashPlan
from repro.sim.network import ConstantDelay, NetworkConfig, UniformDelay
from repro.sim.ops import Broadcast, Receive, SetTimer, TimerFired
from repro.sim.process import FunctionProcess


def kv_node(cluster_size):
    return RaftNode(
        state_machine_factory=KeyValueStateMachine,
        propose_on_leadership=False,
        cluster_size=cluster_size,
    )


def make_client(commands, period=8.0, start=5.0, staggered=False):
    """A client that broadcasts each command periodically until the run ends.

    Rebroadcasting makes proposals survive leader changes; the leader-side
    duplicate check keeps the log clean.  With ``staggered=True`` the i-th
    command is first introduced only on the i-th tick, so (in a fault-free
    run with latencies well under the period) log order matches list order;
    concurrent proposals otherwise land in arbitrary order, as in real Raft.
    """

    def client(api):
        yield SetTimer(start, "tick")
        tick = 0
        while True:
            yield Receive(
                count=1,
                predicate=lambda e: isinstance(e.payload, TimerFired),
            )
            tick += 1
            visible = commands[:tick] if staggered else commands
            for command in visible:
                yield Broadcast(ClientPropose(command), include_self=False)
            yield SetTimer(period, "tick")

    return FunctionProcess(client)


def run_replication(
    n_nodes,
    commands,
    *,
    seed=0,
    crash_plans=(),
    network=None,
    max_time=300.0,
    staggered=False,
):
    nodes = [kv_node(n_nodes) for _ in range(n_nodes)]
    processes = nodes + [make_client(commands, staggered=staggered)]

    def all_applied(runtime):
        if runtime.pending_restarts:
            return False  # wait for scheduled restarts to rejoin first
        live = [
            node
            for pid, node in enumerate(nodes)
            if runtime.is_alive(pid)
        ]
        return bool(live) and all(
            node.machine.applied_count >= len(commands) for node in live
        )

    runtime = AsyncRuntime(
        processes,
        t=(n_nodes - 1) // 2,
        network=network or NetworkConfig(delay_model=UniformDelay(0.5, 1.5)),
        seed=seed,
        crash_plans=crash_plans,
        max_time=max_time,
        stop_when=all_applied,
    )
    result = runtime.run()
    return nodes, result


#: Distinct keys: the converged map is independent of proposal arrival order.
COMMANDS = [Put("a", 1), Put("b", 2), Put("c", 3)]
EXPECTED = {"a": 1, "b": 2, "c": 3}


class TestReplication:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_nodes_converge_to_same_map(self, seed):
        nodes, _result = run_replication(3, COMMANDS, seed=seed)
        maps = [node.machine.data for node in nodes]
        assert all(m == EXPECTED for m in maps), maps

    @pytest.mark.parametrize("seed", range(5))
    def test_all_logs_identical_after_convergence(self, seed):
        nodes, _result = run_replication(5, COMMANDS, seed=seed)
        logs = [node.log.as_list() for node in nodes]
        assert all(log == logs[0] for log in logs)
        assert sorted((e.command.key, e.command.value) for e in logs[0]) == [
            ("a", 1), ("b", 2), ("c", 3),
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_staggered_proposals_apply_in_order(self, seed):
        # Constant latency keeps arrival order equal to send order, so the
        # staggered client's introduction order is the log order.
        nodes, _result = run_replication(
            3,
            COMMANDS,
            seed=seed,
            staggered=True,
            network=NetworkConfig(delay_model=ConstantDelay(1.0)),
            max_time=600.0,
        )
        for node in nodes:
            assert [e.command for e in node.log.as_list()] == COMMANDS

    def test_no_duplicate_entries_despite_client_retries(self):
        nodes, _result = run_replication(3, COMMANDS, seed=1, max_time=400.0)
        for node in nodes:
            commands = [e.command for e in node.log.as_list()]
            assert len(commands) == len(set((c.key, c.value) for c in commands))

    @pytest.mark.parametrize("seed", range(3))
    def test_follower_restart_catches_up(self, seed):
        nodes, _result = run_replication(
            3,
            COMMANDS,
            seed=seed,
            crash_plans=[CrashPlan(2, at_time=10.0, restart_at=60.0)],
            max_time=600.0,
        )
        assert nodes[2].machine.data == EXPECTED

    def test_next_index_repair_backfills_stale_follower(self):
        # A follower that crashed before the first append must be repaired
        # via next_index decrements / full-log resends after it restarts.
        nodes, _result = run_replication(
            3,
            COMMANDS,
            seed=5,
            crash_plans=[CrashPlan(1, at_time=2.0, restart_at=80.0)],
            max_time=800.0,
        )
        assert nodes[1].machine.data == EXPECTED
        assert nodes[1].log.last_index >= len(COMMANDS)

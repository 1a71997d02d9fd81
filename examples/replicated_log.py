#!/usr/bin/env python3
"""A replicated key-value store on the full Raft substrate.

This drives Raft as the paper's reference [6] intends — general log
replication, not just one-shot consensus: a client proposes Put commands, a
leader replicates them, a follower crashes and restarts mid-stream, and the
NextIndex repair loop backfills its log.  At the end all three state
machines hold the same map.

Run:  python examples/replicated_log.py
"""

from repro.algorithms.raft import ClientPropose, Put, RaftNode
from repro.algorithms.raft.state_machine import KeyValueStateMachine
from repro.sim.async_runtime import AsyncRuntime
from repro.sim.failures import CrashPlan
from repro.sim.network import NetworkConfig, UniformDelay
from repro.sim.ops import Broadcast, Receive, SetTimer, TimerFired
from repro.sim.process import FunctionProcess

COMMANDS = [
    Put("alice", 100),
    Put("bob", 250),
    Put("carol", 75),
    Put("alice", 130),  # overwrite
]


def client(api):
    """Rebroadcast all proposals every 8 time units until the run ends."""
    yield SetTimer(5.0, "tick")
    while True:
        yield Receive(count=1, predicate=lambda e: isinstance(e.payload, TimerFired))
        for command in COMMANDS:
            yield Broadcast(ClientPropose(command), include_self=False)
        yield SetTimer(8.0, "tick")


def main() -> None:
    nodes = [
        RaftNode(
            state_machine_factory=KeyValueStateMachine,
            propose_on_leadership=False,
            cluster_size=3,  # the client (pid 3) is not a Raft member
        )
        for _ in range(3)
    ]

    def all_caught_up(runtime):
        if runtime.pending_restarts:
            return False  # let the crashed follower rejoin and catch up
        live = [n for pid, n in enumerate(nodes) if runtime.is_alive(pid)]
        return bool(live) and all(
            node.machine.applied_count >= len(COMMANDS) for node in live
        )

    runtime = AsyncRuntime(
        nodes + [FunctionProcess(client)],
        t=1,
        network=NetworkConfig(delay_model=UniformDelay(0.5, 1.5)),
        seed=11,
        crash_plans=[CrashPlan(pid=2, at_time=12.0, restart_at=55.0)],
        max_time=600.0,
        stop_when=all_caught_up,
    )
    result = runtime.run()

    print(f"run finished at virtual time {result.final_time:.1f} "
          f"({result.events_processed} events)\n")
    for pid, node in enumerate(nodes):
        entries = [(e.term, e.command.key, e.command.value) for e in node.log.as_list()]
        print(f"node {pid} [{node.state:9s}] term={node.current_term} "
              f"commit={node.commit_index}")
        print(f"  log: {entries}")
        print(f"  kv : {node.machine.data}")
    maps = [node.machine.data for node in nodes]
    assert all(m == maps[0] for m in maps), "state machines diverged!"
    print("\nall state machines identical: OK")
    print(f"final map: {maps[0]}")


if __name__ == "__main__":
    main()

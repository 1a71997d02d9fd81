"""Cluster assembly for Raft runs, and the run-to-decision harness it shares
with :func:`~repro.algorithms.multi_paxos.run_paxos`.

These helpers encode the paper's *timing property* — broadcast time much
smaller than the election timeout, which in turn is much smaller than the
mean time between failures — into sensible defaults: message latencies of
roughly one time unit, election timeouts of 10-20 units, heartbeats every 2.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.algorithms.raft.node import RaftNode
from repro.sim.async_runtime import AsyncRuntime, RunResult
from repro.sim.failures import CrashPlan
from repro.sim.network import NetworkConfig, UniformDelay
from repro.sim.process import Process


def build_raft_cluster(
    n: int,
    *,
    election_timeout: Tuple[float, float] = (10.0, 20.0),
    heartbeat_interval: float = 2.0,
    propose_on_leadership: bool = True,
) -> list:
    """Build ``n`` identically configured :class:`RaftNode` instances."""
    return [
        RaftNode(
            election_timeout=election_timeout,
            heartbeat_interval=heartbeat_interval,
            propose_on_leadership=propose_on_leadership,
        )
        for _ in range(n)
    ]


def run_to_decision(
    nodes: Sequence[Process],
    init_values: Sequence[Any],
    seed: int,
    crash_plans: Sequence[CrashPlan],
    network: Optional[NetworkConfig],
    max_time: float,
    max_events: int,
) -> RunResult:
    """Run decide-and-stop ``nodes`` until every live one has decided."""
    n = len(init_values)
    return AsyncRuntime(
        list(nodes),
        init_values=list(init_values),
        t=(n - 1) // 2,
        network=network or NetworkConfig(delay_model=UniformDelay(0.5, 1.5)),
        seed=seed,
        crash_plans=crash_plans,
        max_time=max_time,
        max_events=max_events,
        stop_when="all_alive_decided",
    ).run()


def run_raft_consensus(
    init_values: Sequence[Any],
    *,
    seed: int = 0,
    crash_plans: Sequence[CrashPlan] = (),
    network: Optional[NetworkConfig] = None,
    election_timeout: Tuple[float, float] = (10.0, 20.0),
    heartbeat_interval: float = 2.0,
    max_time: float = 2_000.0,
    max_events: int = 2_000_000,
) -> RunResult:
    """Run one Raft consensus (Algorithm 7) to completion: every node is a
    decide-and-stop :class:`~repro.algorithms.raft.node.RaftNode`, and the
    trace carries its ``leader``, ``vac`` and ``applied`` annotations."""
    nodes = build_raft_cluster(
        len(init_values),
        election_timeout=election_timeout,
        heartbeat_interval=heartbeat_interval,
    )
    return run_to_decision(
        nodes, init_values, seed, crash_plans, network, max_time, max_events
    )

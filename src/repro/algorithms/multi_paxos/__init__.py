"""Paxos: :class:`~repro.algorithms.replica.BallotReplicaNode` speaking
:data:`~repro.algorithms.multi_paxos.messages.PAX_FAMILY` under a
:class:`~repro.algorithms.trigger.TimerTrigger`, the live ``paxos`` engine.
:func:`run_paxos` runs it as single-decree Paxos on the simulator, ballots
(``counter * 4096 + pid``) as template rounds and the election timer as
reconciliator, so :func:`~repro.algorithms.raft.vac.check_raft_vac` applies.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.algorithms.multi_paxos.messages import PAX_FAMILY
from repro.algorithms.raft.cluster import run_to_decision
from repro.algorithms.replica import BallotReplicaNode
from repro.algorithms.trigger import TimerTrigger
from repro.sim.async_runtime import RunResult
from repro.sim.failures import CrashPlan
from repro.sim.network import NetworkConfig

__all__ = ["run_paxos"]


def run_paxos(
    init_values: Sequence[Any],
    *,
    seed: int = 0,
    crash_plans: Sequence[CrashPlan] = (),
    network: Optional[NetworkConfig] = None,
    election_timeout: Tuple[float, float] = (10.0, 20.0),
    max_time: float = 3_000.0,
    max_events: int = 2_000_000,
) -> RunResult:
    """Run one single-decree Paxos until every live node has decided: a
    fresh leader proposes ``D&S`` of the merged log's value, else its input."""
    nodes = [
        BallotReplicaNode(
            family=PAX_FAMILY,
            trigger=TimerTrigger(election_timeout),
            propose_on_leadership=True,
        )
        for _ in init_values
    ]
    return run_to_decision(
        nodes, init_values, seed, crash_plans, network, max_time, max_events
    )

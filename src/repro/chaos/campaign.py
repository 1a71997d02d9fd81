"""The fault-campaign runner: the one place the campaign sequence lives.

    boot → leaders → nemesis ‖ recorded workload → heal/restart
         → leaders → read-only grace pass → (caller checks the history)

:func:`run` owns that sequence on the runtime seam, so the identical
coroutine drives a wall-clock campaign on ``AsyncioRuntime`` (``python -m
repro chaos``, ``tests/chaos``) and a virtual-time one on ``SimRuntime``
(``explore --stack live``, ``tests/chaos``).  Callers differ only in how
they build the plan and what they do with the :class:`CampaignResult`.
The knobs every campaign shares live beside it.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.history import History
from repro.chaos.nemesis import (
    DURABILITY_KINDS,
    FaultEvent,
    FaultPlan,
    Nemesis,
    NemesisAction,
    check_kind,
)
from repro.chaos.workload import close_clients, make_clients, run_workload
from repro.core.runtime import Runtime
from repro.live.harness import LiveKVCluster

#: Fast-failover timings for campaigns: elections resolve in about a
#: second, so even a short campaign sees several leadership changes.
CAMPAIGN_TIMINGS = dict(election_timeout=(0.3, 0.6), heartbeat_interval=0.06)

#: Deadline for every shard to elect a leader, at boot and after the
#: final heal (an upper bound: healthy clusters take one election timeout).
LEADER_WAIT = 30.0

#: ``--inject-bug`` choices: the checker must reject the resulting history.
INJECTABLE_BUGS = ("stale-reads", "unbounded-lease", "lost-ack")


def parse_kinds(spec: str) -> Tuple[str, ...]:
    """Parse a ``--kinds K1,K2,...`` flag; ``ValueError`` names a bad kind."""
    return tuple(check_kind(k.strip()) for k in spec.split(",") if k.strip())


def cluster_options(
    inject_bug: Optional[str],
    read_tier: str,
    drift_bound: float,
    kinds: Sequence[str],
) -> Tuple[Dict[str, Any], bool]:
    """``LiveKVCluster`` keywords for a fault model, plus "needs a data dir".

    ``unbounded-lease`` zeroes the drift bound and forces the lease tier
    (the bug needs a lease to mis-bound); ``lost-ack`` and every
    durability fault kind need per-node data directories.
    """
    if inject_bug == "unbounded-lease":
        drift_bound = 0.0
        if read_tier == "safe":
            read_tier = "lease"
    options = dict(
        unsafe_lin_reads=(inject_bug == "stale-reads"),
        lost_ack_bug=(inject_bug == "lost-ack"),
        read_tier=read_tier,
        drift_bound=drift_bound,
    )
    needs_disk = inject_bug == "lost-ack" or any(
        kind in DURABILITY_KINDS for kind in kinds
    )
    return options, needs_disk


@dataclass
class CampaignResult:
    """What one campaign produced, before anyone judges it.

    ``fault_stats`` / ``post_heal_stats`` are ``ok`` / ``ambiguous`` /
    ``failed`` op counts per phase; the first ``fault_ops`` records of
    ``history.ops`` are the fault phase, the rest grace reads.
    ``cluster`` is the stopped harness (no trace: pass ``observers=``).
    """

    history: History
    nemesis_log: List[NemesisAction]
    fault_stats: Dict[str, int]
    post_heal_stats: Dict[str, int]
    fault_ops: int
    cluster: LiveKVCluster


async def run(
    rt: Runtime,
    plan: FaultPlan,
    *,
    nodes: int,
    shards: int,
    seed: int,
    duration: float,
    grace: float,
    clients: int = 4,
    key_space: int = 4,
    read_fraction: float = 0.5,
    readonly_clients: int = 1,
    op_pause: float = 0.005,
    deterministic_ids: bool = False,
    data_dir: Optional[str] = None,
    needs_disk: bool = False,
    **cluster_kwargs: Any,
) -> CampaignResult:
    """Run ``plan`` against a fresh cluster under a recorded workload.

    ``duration`` seconds of mixed load run beside the nemesis; after the
    heal every client spends ``grace`` seconds only reading, so stale
    state still visible anywhere lands in the history.  Times are
    ``rt``'s (virtual under ``SimRuntime``).  ``needs_disk`` without a
    ``data_dir`` provisions a temporary one; ``cluster_kwargs`` go to
    :class:`~repro.live.harness.LiveKVCluster` verbatim.
    """
    tmp_dir: Optional[tempfile.TemporaryDirectory] = None
    if needs_disk and data_dir is None:
        tmp_dir = tempfile.TemporaryDirectory(prefix="repro-campaign-")
        data_dir = tmp_dir.name
    cluster = LiveKVCluster(
        nodes,
        seed=seed,
        shards=shards,
        data_dir=data_dir,
        runtime=rt,
        **cluster_kwargs,
        **CAMPAIGN_TIMINGS,
    )
    history = History(runtime=rt)
    recorders = make_clients(
        cluster.cluster,
        history,
        clients,
        shards=shards,
        deterministic_ids=deterministic_ids,
    )
    nemesis = Nemesis(cluster, plan)
    post_heal_stats = {"ok": 0, "ambiguous": 0, "failed": 0}
    try:
        await cluster.start()
        await cluster.wait_for_all_leaders(LEADER_WAIT)
        workload = rt.spawn(
            run_workload(
                recorders,
                duration=duration,
                seed=seed,
                key_space=key_space,
                read_fraction=read_fraction,
                readonly_clients=readonly_clients,
                pause=op_pause,
            )
        )
        await nemesis.run()
        fault_stats = await workload
        fault_ops = len(history)
        # Heal, revive, and let the converged cluster answer reads.
        await nemesis.apply(FaultEvent(0.0, "heal"))
        await nemesis.apply(FaultEvent(0.0, "restart"))
        await cluster.wait_for_all_leaders(LEADER_WAIT)
        if grace > 0:
            # Client counters are cumulative across both phases.
            totals = await run_workload(
                recorders,
                duration=grace,
                seed=seed + 1,
                key_space=key_space,
                read_fraction=1.0,
                readonly_clients=len(recorders),
                pause=op_pause,
            )
            post_heal_stats = {
                key: totals[key] - fault_stats[key] for key in totals
            }
    finally:
        await close_clients(recorders)
        await cluster.stop()
        if tmp_dir is not None:
            tmp_dir.cleanup()
    return CampaignResult(
        history=history,
        nemesis_log=nemesis.log,
        fault_stats=fault_stats,
        post_heal_stats=post_heal_stats,
        fault_ops=fault_ops,
        cluster=cluster,
    )

"""Pluggable consensus engines for the live KV stack.

The paper's framework says a consensus protocol is an assembly of
objects — a failure detector composed with a mixer — and that different
assemblies should be interchangeable behind one interface.  This module
is that interface for the live service: a :class:`ConsensusEngine` is one
row of a table — an election rule (the reconciliator), the wire family
it speaks, and the trigger that decides when it campaigns — and builds
the protocol node for one shard (durable for ``--data-dir``) from the
service-level tuning knobs.  :class:`~repro.live.kv.KVShard` consumes
*only* this seam plus the node contract below — it never mentions a
concrete protocol.

Node contract (duck-typed, pinned by tests/live/test_engine_conformance.py):

* attributes ``state`` (identity-comparable against
  :data:`~repro.algorithms.raft.node.LEADER`), ``current_term`` (the
  monotone leadership epoch — Raft's term, the ballot rule's promised
  ballot), ``commit_index``, ``last_applied``, ``leader_hint``,
  ``machine``, and ``log`` (``last_index``);
* consumes :class:`~repro.algorithms.raft.messages.ClientPropose`
  (injected locally, never crossing the wire) with duplicate-proposal
  detection;
* emits ``("leader", (epoch, pid))`` and
  ``("applied", (index, epoch, command))`` trace annotations — the
  commit stream the KV layer resolves client futures from;
* installs snapshots from peers and supports crash-restart from a
  :class:`~repro.storage.engine.RaftStorage` directory;
* carries a :class:`~repro.algorithms.readpath.ReadLedger` as ``reads``
  (configured via ``build_node``'s ``read``), consumes a locally
  injected :class:`~repro.algorithms.readpath.ReadBarrier` (never
  crossing the wire), answers it with a ``("read_ready", (barrier_id,
  read_index, ok))`` annotation once a majority has acked an append
  carrying it, and — when a lease is configured — refuses
  votes/promises to challengers within the stickiness window.  Reads
  add no message type: they ride each engine's own append family.

Engines available (``--engine`` on serve/client/loadgen/chaos), election
rule × trigger:

=========  ==========================================================
``raft``   RequestVote (vote on log freshness) × randomized election
           timer.
``paxos``  prepare/promise + suffix merge × the same timer.
``ct``     the same ballot rule × a live Ω/◇S heartbeat failure
           detector (:mod:`repro.live.detector`).
=========  ==========================================================

Every engine speaks a disjoint message family, so wire frames are
self-describing down to the engine: a frame from a misconfigured peer
running a different engine is rejected (counted + logged) by the
runtime's wire filter instead of being half-interpreted.

Per-shard selection: an engine *spec* is either one name (every shard)
or comma-separated names, one per shard — ``raft,ct`` runs shard 0 on
Raft and shard 1 on Chandra-Toueg.  See docs/engines.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple, Type

from repro.algorithms.chandra_toueg.replicated import CT_FAMILY, OmegaTrigger
from repro.algorithms.multi_paxos.messages import PAX_FAMILY
from repro.algorithms.raft.node import RAFT_FAMILY, RaftNode
from repro.algorithms.raft.replication import ReplicatedLogNode, WireFamily
from repro.algorithms.readpath import ReadConfig
from repro.algorithms.replica import BallotReplicaNode
from repro.algorithms.trigger import TimerTrigger, Trigger
from repro.storage.engine import DurableNode, RaftStorage


class EngineError(ValueError):
    """Unknown engine name or malformed engine spec."""


class DurableRaftNode(DurableNode, RaftNode):
    """Raft persisting term, vote and log to a WAL directory."""


class DurableBallotReplicaNode(DurableNode, BallotReplicaNode):
    """A ballot replica persisting promised ballot + log to a WAL directory."""


#: Each election rule under the durability binding.
DURABLE: Dict[Type[ReplicatedLogNode], Type[ReplicatedLogNode]] = {
    RaftNode: DurableRaftNode,
    BallotReplicaNode: DurableBallotReplicaNode,
}


@dataclass(frozen=True)
class ConsensusEngine:
    """One backend: an election rule, its wire family, and a trigger.

    Engines are stateless — one shared instance per row of
    :data:`ENGINES`.

    Args:
        name: CLI / spec name.
        reconciliator: the election rule's node class
            (:class:`~repro.algorithms.raft.node.RaftNode` or
            :class:`~repro.algorithms.replica.BallotReplicaNode`).
        family: the message classes the rule speaks.
        trigger: the trigger class; its ``for_shard`` builds one per node.
    """

    name: str
    reconciliator: Type[ReplicatedLogNode]
    family: WireFamily
    trigger: Type[Trigger]

    @cached_property
    def wire_classes(self) -> FrozenSet[type]:
        """Every message class this engine's nodes exchange — derived from
        what the node is built with, so the two cannot disagree."""
        return self.family.classes | self.trigger.MESSAGES

    def build_node(
        self,
        *,
        shard_id: int,
        shard_count: int,
        pid: int,
        n: int,
        election_timeout: Tuple[float, float],
        heartbeat_interval: float,
        state_machine_factory: Callable[[], Any],
        snapshot_threshold: Optional[int],
        storage: Optional[RaftStorage],
        read: Optional[ReadConfig] = None,
    ) -> ReplicatedLogNode:
        """Build this shard's protocol node (durable iff ``storage``).

        ``election_timeout``/``heartbeat_interval`` are the service-level
        knobs; the trigger maps them onto its own parameters (the Ω
        trigger ticks at the heartbeat interval, for example) so one CLI
        surface tunes every backend.  ``read`` configures the fast read
        path (lease duration + drift bound); ``None`` keeps it inert.
        """
        args: Dict[str, Any] = dict(
            family=self.family,
            trigger=self.trigger.for_shard(
                shard_id=shard_id,
                shard_count=shard_count,
                pid=pid,
                n=n,
                election_timeout=election_timeout,
                heartbeat_interval=heartbeat_interval,
            ),
            heartbeat_interval=heartbeat_interval,
            state_machine_factory=state_machine_factory,
            propose_on_leadership=False,
            snapshot_threshold=snapshot_threshold,
            cluster_size=n,
            read_config=read,
        )
        if storage is not None:
            return DURABLE[self.reconciliator](storage=storage, **args)
        return self.reconciliator(**args)

    def accepts(self, payload: Any) -> bool:
        """Wire filter: is ``payload`` part of this engine's protocol?
        Locally injected requests (proposals, read barriers) never pass
        it, so a peer sending one is foreign."""
        return type(payload) in self.wire_classes


#: The engine table, one row per backend.  The order is part of the
#: contract: live sweeps run schedule ``i`` on row ``i % len(ENGINES)``,
#: so every recorded sweep digest depends on it.
ENGINES: Dict[str, ConsensusEngine] = {
    engine.name: engine
    for engine in (
        ConsensusEngine("raft", RaftNode, RAFT_FAMILY, TimerTrigger),
        ConsensusEngine("paxos", BallotReplicaNode, PAX_FAMILY, TimerTrigger),
        ConsensusEngine("ct", BallotReplicaNode, CT_FAMILY, OmegaTrigger),
    )
}

#: Default engine spec (the pre-seam behaviour).
DEFAULT_ENGINE = "raft"


def get_engine(name: str) -> ConsensusEngine:
    """Look up one engine by name."""
    try:
        return ENGINES[name]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r} (choose from {sorted(ENGINES)})"
        ) from None


def parse_engine_spec(spec: str, shard_count: int) -> Tuple[ConsensusEngine, ...]:
    """Resolve an engine spec to one engine per shard.

    ``"ct"`` runs every shard on Chandra-Toueg; ``"raft,ct"`` with two
    shards runs shard 0 on Raft and shard 1 on Chandra-Toueg.  A
    comma-separated spec must name exactly ``shard_count`` engines, and
    no entry may be empty.
    """
    names = [name.strip() for name in spec.split(",")]
    if "" in names:
        raise EngineError(f"engine spec {spec!r} has an empty entry")
    if len(names) == 1:
        names = names * shard_count
    if len(names) != shard_count:
        raise EngineError(
            f"engine spec {spec!r} names {len(names)} engines "
            f"for {shard_count} shard(s)"
        )
    return tuple(get_engine(name) for name in names)

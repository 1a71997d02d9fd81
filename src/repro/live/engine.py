"""Pluggable consensus engines for the live KV stack.

The paper's framework says a consensus protocol is an assembly of
objects — a failure detector composed with a mixer — and that different
assemblies should be interchangeable behind one interface.  This module
is that interface for the live service: a :class:`ConsensusEngine`
builds a protocol node for one shard (and its durable variant for
``--data-dir``), names the wire-message family the node speaks, and maps
the service-level tuning knobs onto the backend's own parameters.
:class:`~repro.live.kv.KVShard` consumes *only* this seam plus the
node contract below — it never mentions a concrete protocol.

Node contract (duck-typed, pinned by tests/live/test_engine_conformance.py):

* attributes ``state`` (identity-comparable against
  :data:`~repro.algorithms.raft.node.LEADER`), ``current_term`` (the
  monotone leadership epoch — Raft's term, the ballot engines' promised
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
  injected :class:`~repro.algorithms.readpath.ReadBarrier`, answers it
  with a ``("read_ready", (barrier_id, read_index, ok))`` annotation
  after one probe round, and — when a lease is configured — refuses
  votes/promises to challengers within the stickiness window.  The
  read-path messages (:data:`~repro.algorithms.readpath.READ_WIRE_CLASSES`)
  are engine-independent and admitted by every engine's wire filter on
  top of its own disjoint family.

Engines available (``--engine`` on serve/client/loadgen/chaos):

=========  ==========================================================
``raft``   Raft's election rule (randomized election timeout / vote
           on log freshness) over the shared replicated-log core.
``paxos``  Multi-Paxos: the same core and the same randomized-timeout
           detector, leadership won by prepare/promise + suffix merge
           instead of vote-and-truncate.
``ct``     Chandra-Toueg: the ballot election under a live Ω/◇S
           heartbeat failure detector (:mod:`repro.live.detector`).
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

from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple, Type

from repro.algorithms.chandra_toueg.replicated import (
    CtChain,
    CtChainAck,
    CtPrepare,
    CtPrepareNack,
    CtPromise,
    CtReplicatedNode,
    CtSnapshot,
    CtSnapshotAck,
)
from repro.algorithms.multi_paxos import (
    MultiPaxosNode,
    PaxChain,
    PaxChainAck,
    PaxPrepare,
    PaxPrepareNack,
    PaxPromise,
    PaxSnapshot,
    PaxSnapshotAck,
)
from repro.algorithms.raft.messages import (
    AppendEntries,
    AppendEntriesReply,
    InstallSnapshot,
    InstallSnapshotReply,
    RequestVote,
    RequestVoteReply,
)
from repro.algorithms.raft.node import RaftNode
from repro.algorithms.readpath import READ_WIRE_CLASSES, ReadConfig
from repro.live.detector import FdHeartbeat
from repro.live.sharding import preferred_leader, staggered_election_timeout
from repro.sim.process import Process
from repro.storage.engine import DurableNode, RaftStorage


class EngineError(ValueError):
    """Unknown engine name or malformed engine spec."""


class DurableRaftNode(DurableNode, RaftNode):
    """Raft persisting term, vote and log to a WAL directory."""


class DurableMultiPaxosNode(DurableNode, MultiPaxosNode):
    """Multi-Paxos persisting promised ballot + log to a WAL directory."""


class DurableCtReplicatedNode(DurableNode, CtReplicatedNode):
    """Chandra-Toueg persisting promised ballot + log to a WAL directory."""


class ConsensusEngine:
    """One pluggable backend: node classes + wire family + tuning map.

    Subclasses set :attr:`name`, :attr:`wire_classes`, :attr:`node_cls`
    and :attr:`durable_cls`, and override :meth:`election_kwargs` when
    their election rule is not tuned by an election timeout.  Engines
    are stateless — one shared instance per backend lives in
    :data:`ENGINES`.
    """

    #: CLI / spec name.
    name: str = ""
    #: The message classes this engine's nodes exchange over the wire.
    wire_classes: FrozenSet[Type[Any]] = frozenset()
    #: The protocol node, and the same node under the durability binding.
    node_cls: Type[Process]
    durable_cls: Type[Process]

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
    ) -> Process:
        """Build this shard's protocol node (durable iff ``storage``).

        ``election_timeout``/``heartbeat_interval`` are the service-level
        knobs; each engine maps them onto its own parameters in
        :meth:`election_kwargs` (the ct engine derives its detector
        cadence from the heartbeat interval, for example) so one CLI
        surface tunes every backend.  ``read`` configures the fast read
        path (lease duration + drift bound); ``None`` keeps it inert.
        """
        args = dict(
            heartbeat_interval=heartbeat_interval,
            state_machine_factory=state_machine_factory,
            propose_on_leadership=False,
            snapshot_threshold=snapshot_threshold,
            cluster_size=n,
            read_config=read,
            **self.election_kwargs(
                shard_id=shard_id,
                shard_count=shard_count,
                pid=pid,
                n=n,
                election_timeout=election_timeout,
                heartbeat_interval=heartbeat_interval,
            ),
        )
        if storage is not None:
            return self.durable_cls(storage=storage, **args)
        return self.node_cls(**args)

    def election_kwargs(
        self,
        *,
        shard_id: int,
        shard_count: int,
        pid: int,
        n: int,
        election_timeout: Tuple[float, float],
        heartbeat_interval: float,
    ) -> Dict[str, Any]:
        """The node arguments that tune this engine's election rule.

        Default: a randomized election timeout, staggered so shard i's
        first leadership starts on node i mod n and load spreads across
        the cluster.
        """
        if shard_count > 1:
            election_timeout = staggered_election_timeout(
                election_timeout, shard_id, pid, n
            )
        return {"election_timeout": election_timeout}

    def accepts(self, payload: Any) -> bool:
        """Wire filter: is ``payload`` part of this engine's protocol?

        Every engine also admits the engine-independent read-path family
        (probes, acks, freshness) on top of its own disjoint classes.
        """
        return (
            type(payload) in self.wire_classes
            or type(payload) in READ_WIRE_CLASSES
        )


class RaftEngine(ConsensusEngine):
    """Raft: vote on log freshness, randomized election timeout."""

    name = "raft"
    wire_classes = frozenset(
        {
            RequestVote,
            RequestVoteReply,
            AppendEntries,
            AppendEntriesReply,
            InstallSnapshot,
            InstallSnapshotReply,
        }
    )
    node_cls = RaftNode
    durable_cls = DurableRaftNode


class MultiPaxosEngine(ConsensusEngine):
    """Multi-Paxos: ballot election, randomized retry timeout."""

    name = "paxos"
    wire_classes = frozenset(
        {
            PaxPrepare,
            PaxPromise,
            PaxPrepareNack,
            PaxChain,
            PaxChainAck,
            PaxSnapshot,
            PaxSnapshotAck,
        }
    )
    node_cls = MultiPaxosNode
    durable_cls = DurableMultiPaxosNode


class ChandraTouegEngine(ConsensusEngine):
    """Chandra-Toueg: ballot election, live Ω/◇S heartbeat detector.

    The detector ticks at the service heartbeat interval (its beacons
    *are* this engine's liveness signal), and per-shard leader
    staggering comes from Ω's rank rotation (``preferred``) rather than
    timeout offsets — the same placement, produced by the detector
    object instead of by timing.
    """

    name = "ct"
    wire_classes = frozenset(
        {
            CtPrepare,
            CtPromise,
            CtPrepareNack,
            CtChain,
            CtChainAck,
            CtSnapshot,
            CtSnapshotAck,
            FdHeartbeat,
        }
    )
    node_cls = CtReplicatedNode
    durable_cls = DurableCtReplicatedNode

    def election_kwargs(
        self,
        *,
        shard_id: int,
        shard_count: int,
        pid: int,
        n: int,
        election_timeout: Tuple[float, float],
        heartbeat_interval: float,
    ) -> Dict[str, Any]:
        return {
            "detector_interval": heartbeat_interval,
            "preferred": preferred_leader(shard_id, n),
        }


#: The engine registry: one shared stateless instance per backend.
ENGINES: Dict[str, ConsensusEngine] = {
    engine.name: engine
    for engine in (RaftEngine(), MultiPaxosEngine(), ChandraTouegEngine())
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
    comma-separated spec must name exactly ``shard_count`` engines.
    """
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise EngineError("empty engine spec")
    if len(names) == 1:
        names = names * shard_count
    if len(names) != shard_count:
        raise EngineError(
            f"engine spec {spec!r} names {len(names)} engines "
            f"for {shard_count} shard(s)"
        )
    return tuple(get_engine(name) for name in names)

"""A replicated key-value service on top of the live consensus cluster.

Each :class:`KVServer` hosts one or more *shards* — independent
consensus groups, each built by a pluggable
:class:`~repro.live.engine.ConsensusEngine` backend (Raft, Multi-Paxos,
or Chandra-Toueg over a live Ω detector; ``--engine``, per-shard specs
allowed) and each under its own
:class:`~repro.live.runtime.LiveRuntime` — multiplexed over a single
shared :class:`~repro.live.transport.PeerTransport` (shard-tagged wire
frames, one socket pair per peer), plus a client-facing TCP frontend
speaking the same length-prefixed wire protocol.  The KV layer consumes
only the engine seam's node contract (leadership state, commit/apply
annotations, ``ClientPropose``) — nothing below this module names a
concrete protocol.

Sharding
--------
Keys are hash-partitioned across shards (:func:`repro.live.sharding.shard_of`
— deterministic across processes, so clients route locally), and every
request touches exactly one shard.  Leader placement is staggered: shard
``i`` prefers starting leadership on node ``i mod n``
(:func:`~repro.live.sharding.staggered_election_timeout`), so the ``S``
leaders — and therefore the replication fan-out and client write load —
spread across the cluster instead of piling on one node.

Write path
----------
Client ``put`` requests reaching the owning shard's leader are *batched*
into one :class:`KvBatch` log command, proposed as a single
:class:`~repro.algorithms.raft.messages.ClientPropose`, so one
replication round-trip commits many client writes.  Commits, not a
fixed window, clock the flush.  A held batch is proposed when it holds
``max_batch`` ops and fewer than ``max_inflight`` entries are
uncommitted (full batches pipeline), or when nothing is uncommitted and
it holds as many ops as the last applied batch carried plus those that
queued behind it: the clients that commit released, expected back.  A
lone put into an idle pipeline thus commits in one round, and
closed-loop clients share one entry per round.  That expectation is a
guess about the traffic, so an idle pipeline waits for it at most
:data:`IDLE_WAIT_ROUNDS` of the leader's measured propose-to-apply
rounds: clients that think longer than that, or arrive independently
(open-loop traffic), cost each op at most that wait, and batches do not
grow past what arrives in it.  A partial batch is also never proposed
sooner than :data:`FLUSH_INTERVAL` after the shard's previous batch,
so when rounds are fast the interval, not the round, clocks the flush: a
lone put into a shard that proposed nothing for that long still commits
in one round, while back-to-back partial batches are spaced by it.  A
backstop timer (:data:`BATCH_WINDOW`) proposes whatever is held,
whatever the pipeline's state.  A request is
acknowledged only once the leader *applies* the batch — i.e. after the
entry is committed on a majority — so every acknowledged write survives
any minority of crashes, including the leader's.  Requests reaching a
non-leader are answered with a redirect to the shard's last known leader.

On winning an election a shard leader proposes an empty barrier batch —
the classic leader no-op — so the new leader's commit index advances (and
reads become current) without waiting for client traffic.

Read path
---------
``get`` serves from the owning shard's local state machine: reads are
*local and may be stale* (bounded by replication lag).  The response
carries the shard's applied index so clients needing read-your-writes can
retry until it reaches their last acknowledged write's index.

A ``get`` with ``"lin": true`` is instead **linearizable**: the leader
folds a :class:`KvRead` marker into the write batch pipeline and answers
with the key's value *at the moment the marker commits and applies* — a
read-as-log-entry, trivially linearizable because reads order exactly
like writes.  A deposed leader cannot serve one (its marker never
commits), which is precisely the property the chaos linearizability
checker (:mod:`repro.chaos`) verifies.  ``unsafe_lin_reads=True`` breaks
it on purpose — any node that *believes* it is leader answers ``lin``
reads straight from local state — giving the checker a known consistency
bug (stale reads from a deposed leader during partitions) to catch.

Delivery semantics are at-least-once, and that is an open bug: a client
that times out or is redirected resends a ``put`` with the same
``op_id``, the retry is re-batched under a fresh ``batch_id``, and
:class:`KVCommandMachine` applies every :class:`TaggedPut` without
checking the id.  When a deposed leader's entry survives into the next
leader's log, the op is applied twice, and the second apply can land
after another client's write to the same key and undo it — a
linearizability violation, not a harmless repeat.  The ``op_id`` only
keeps two same-valued writes from different requests distinct commands.
"""

from __future__ import annotations

import asyncio
import math
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.algorithms.raft.messages import ClientPropose
from repro.algorithms.raft.node import LEADER
from repro.algorithms.raft.state_machine import KeyValueStateMachine, Put
from repro.algorithms.readpath import ReadBarrier, ReadConfig
from repro.core.runtime import Runtime, current_runtime
from repro.live.config import (
    DEFAULT_MAX_INFLIGHT,
    ClusterConfig,
    validate_max_inflight,
    validate_shards,
)
from repro.live.engine import DEFAULT_ENGINE, ConsensusEngine, parse_engine_spec
from repro.live.runtime import LiveRuntime, derive_process_seed
from repro.live.sharding import shard_of
from repro.live.transport import PeerTransport
from repro.live.wire import decode_body, enable_nodelay, frame_bytes, read_frame_bytes
from repro.sim import trace as tr
from repro.sim.serialize import WireError, register_wire_type
from repro.storage.engine import SYNC_MODES, RaftStorage

#: Seed offset between co-hosted shards, so each group draws distinct
#: election/jitter randomness while shard 0 keeps the pre-sharding
#: derivation exactly (a prime far above any realistic pid/seed reuse).
SHARD_SEED_STRIDE = 7919

#: Server-side linearizable-read tiers, slowest/safest first.  See
#: docs/reads.md for the ladder and each tier's safety argument.
READ_TIERS = ("safe", "readindex", "lease", "follower")

#: Default clock-drift bound subtracted from every lease (seconds).
DEFAULT_DRIFT_BOUND = 0.03

#: Default bound accepted for follower (bounded-stale) reads (seconds).
DEFAULT_STALENESS_BOUND = 0.5

#: Backstop of the self-clocked flush policy (seconds): a held batch is
#: proposed at most this long after its first op arrived.
BATCH_WINDOW = 0.005

#: How long, in rounds (the leader's last propose-to-apply time), an idle
#: pipeline waits for the clients the last commit released: their reply
#: and next request cross the same kind of links as a replication round,
#: plus up to one more round of think time.
IDLE_WAIT_ROUNDS = 2

#: Least time (seconds) between a shard's previous batch and a partial
#: one.  Every entry costs the same fixed work whatever it carries (an
#: append and an ack per follower, a commit notice, a WAL record and, on
#: a durable node, an fsync), so this caps partial entries at 250 a
#: second per shard.  It also stops a few closed-loop clients from
#: driving every core of a small host flat out, where each put's latency
#: tracks the host's momentary CPU speed: with rounds under 1 ms on 2
#: cores, run-to-run throughput then varies by 10-20 %.  Full batches
#: are not held by it.
FLUSH_INTERVAL = 0.004


@dataclass(frozen=True)
class TaggedPut(Put):
    """A ``Put`` carrying the client's unique operation id.

    The id makes two same-valued writes from different requests distinct
    commands, so the leader's duplicate-proposal check never conflates
    them, while :class:`~repro.algorithms.raft.state_machine.KeyValueStateMachine`
    applies it like any other ``Put``.
    """

    op_id: str = ""


@dataclass(frozen=True)
class KvRead:
    """A linearizable-read marker riding the write batch pipeline.

    Commits like a write but applies as a no-op; the shard resolves the
    waiting client with the key's value at apply time, so the read's
    linearization point is the marker's position in the log.
    """

    key: Any = None
    op_id: str = ""


@dataclass(frozen=True)
class KvBatch:
    """One log entry holding a whole batch of client writes.

    ``batch_id`` keeps batches unique commands even when ``ops`` is empty
    (the leader-change barrier no-op).  ``ops`` may also contain
    :class:`KvRead` markers (linearizable reads share the pipeline).
    """

    ops: Tuple[Any, ...]
    batch_id: Any = None


register_wire_type(TaggedPut)
register_wire_type(KvRead)
register_wire_type(KvBatch)


class KVCommandMachine(KeyValueStateMachine):
    """A KV machine that also unpacks :class:`KvBatch` commands."""

    def apply(self, index: int, command: Any) -> Any:
        if isinstance(command, KvBatch):
            applied = 0
            for op in command.ops:
                if isinstance(op, KvRead):
                    continue  # reads don't mutate state
                super().apply(index, op)
                applied += 1
            return applied
        return super().apply(index, command)


class NotLeaderError(Exception):
    """This node lost (or never had) leadership; client should redirect."""


class KVShard:
    """One consensus group hosted by a :class:`KVServer`.

    Owns the group's protocol node (built by its ``engine`` — Raft by
    default), its :class:`LiveRuntime` (driving the node over the
    server's shared transport, frames tagged with ``shard_id`` and
    filtered to the engine's own message family), and the
    write-batching state: pending client futures, the open batch, and
    the group-commit flow control.
    """

    def __init__(
        self,
        shard_id: int,
        cluster: ClusterConfig,
        pid: int,
        transport: PeerTransport,
        *,
        engine: ConsensusEngine,
        shard_count: int,
        seed: int,
        election_timeout: Tuple[float, float],
        heartbeat_interval: float,
        max_batch: int,
        max_inflight: int,
        snapshot_threshold: Optional[int],
        epoch: Optional[float],
        observers: Tuple = (),
        storage: Optional[RaftStorage] = None,
        read_config: Optional[ReadConfig] = None,
        runtime: Optional[Runtime] = None,
    ):
        self.shard_id = shard_id
        self.pid = pid
        self.engine = engine
        self.max_batch = max_batch
        self.max_inflight = max_inflight
        self.storage = storage
        self.node = engine.build_node(
            shard_id=shard_id,
            shard_count=shard_count,
            pid=pid,
            n=cluster.n,
            election_timeout=election_timeout,
            heartbeat_interval=heartbeat_interval,
            state_machine_factory=KVCommandMachine,
            snapshot_threshold=snapshot_threshold,
            storage=storage,
            read=read_config,
        )
        self.runtime = LiveRuntime(
            self.node,
            cluster,
            pid,
            seed=seed,
            observers=observers,
            epoch=epoch,
            transport=transport,
            shard=shard_id,
            storage=storage,
            wire_filter=engine.accepts,
            runtime=runtime,
        )
        #: The runtime seam handle (timers/futures), shared with the
        #: shard's :class:`LiveRuntime`.
        self.rt = self.runtime.runtime
        self.runtime.trace.subscribe(self._on_trace)
        self._pending: Dict[str, asyncio.Future] = {}
        self._batch: List[TaggedPut] = []
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._flush_at = 0.0  # when _flush_handle fires
        self._batch_counter = 0
        # Flush policy: how many ops to hold before proposing into an
        # idle pipeline — the clients the last commit released, who are
        # expected back — and the round the wait for them is counted in:
        # the last propose-to-apply time of this leader's own proposals.
        self._flush_target = 0
        self._round = BATCH_WINDOW
        self._proposal: Optional[Tuple[Any, float]] = None
        self._flushed_at = float("-inf")  # when the last batch was proposed
        self._barrier_terms: set = set()
        # ReadIndex batching: at most one barrier in flight per shard.
        # Reads arriving while one is in flight queue for the *next* —
        # joining the current one would be unsound, since its read index
        # may predate a write committed after the barrier was recorded
        # but before the read arrived.
        self._ri_counter = 0
        self._ri_inflight: Optional[Tuple[Any, ...]] = None
        self._ri_waiting: List[asyncio.Future] = []
        self._ri_queue: List[asyncio.Future] = []
        self._applied_waiters: List[Tuple[int, asyncio.Future]] = []
        # Pipeline telemetry: proposed batches and the ops they carried
        # (occupancy = ops/batch), surfaced by the server's status RPC.
        self.flushed_batches = 0
        self.flushed_ops = 0

    @property
    def is_leader(self) -> bool:
        return self.node.state is LEADER

    @property
    def leader_hint(self) -> Optional[int]:
        return self.node.leader_hint

    def has_pending(self) -> bool:
        return bool(
            self._pending
            or self._ri_waiting
            or self._ri_queue
            or self._applied_waiters
        )

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def enqueue(self, op: Any) -> asyncio.Future:
        """Register ``op`` (:class:`TaggedPut` or :class:`KvRead`) for the
        next batch; the future resolves at apply time — with the commit
        index for a put, with a ``(index, found, value)`` tuple for a
        read."""
        future: asyncio.Future = self.rt.create_future()
        self._pending[op.op_id] = future
        self._batch.append(op)
        self._maybe_flush()
        if self._batch:
            self._flush_within(BATCH_WINDOW)
        return future

    def forget(self, op_id: str) -> None:
        """Drop a pending waiter (the frontend timed the request out)."""
        self._pending.pop(op_id, None)

    # ------------------------------------------------------------------
    # Fast read path (ReadIndex barriers, lease bookkeeping)
    # ------------------------------------------------------------------

    def read_index(self) -> asyncio.Future:
        """Join the next ReadIndex barrier: the future resolves with its
        read index (serve once ``last_applied`` reaches it), or
        raises :class:`NotLeaderError` if the node cannot confirm
        leadership — including the fresh-leader case where no entry of
        the current epoch has committed yet."""
        future: asyncio.Future = self.rt.create_future()
        self._ri_queue.append(future)
        if self._ri_inflight is None:
            self._start_read_round()
        return future

    def renew_lease(self) -> None:
        """Inject an empty barrier unless one is already in flight: its
        append is a heartbeat every follower must ack, and those acks
        extend the lease (and, once confirmed, prove followers fresh)
        whether or not any read is waiting on it."""
        if self._ri_inflight is None and self.is_leader:
            self._start_read_round(force=True)

    def _start_read_round(self, *, force: bool = False) -> None:
        if self._ri_inflight is not None or not (self._ri_queue or force):
            return
        waiters, self._ri_queue = self._ri_queue, []
        if self.node.state is not LEADER:
            for future in waiters:
                if not future.done():
                    future.set_exception(NotLeaderError())
            return
        self._ri_counter += 1
        barrier_id = ("ri", self.shard_id, self.pid, self._ri_counter)
        self._ri_inflight = barrier_id
        self._ri_waiting = waiters
        self.runtime.inject(ReadBarrier(barrier_id))

    def wait_applied(self, index: int) -> asyncio.Future:
        """A future resolving once ``last_applied >= index``."""
        future: asyncio.Future = self.rt.create_future()
        if self.node.last_applied >= index:
            future.set_result(self.node.last_applied)
        else:
            self._applied_waiters.append((index, future))
        return future

    def lease_remaining(self) -> float:
        """Drift-discounted seconds of leader lease left (0 when none)."""
        return max(0.0, self.node.reads.lease_remaining(self.runtime.now))

    def lease_serveable(self) -> bool:
        """May this node answer a read locally with zero rounds?"""
        return (
            self.is_leader
            and self.node.reads.lease_valid(self.runtime.now)
            and self.node.reads.epoch_ready(
                self.node.log, self.node.commit_index, self.node.current_term
            )
        )

    def staleness(self) -> float:
        """Seconds since this replica's last freshness proof."""
        return self.node.reads.staleness(self.runtime.now)

    def _on_trace(self, event) -> None:
        if event.kind != tr.ANNOTATE:
            return
        key, value = event.detail
        if key == "applied":
            _index, _term, command = value
            proposal = self._proposal
            if proposal is not None and getattr(command, "batch_id", None) == proposal[0]:
                self._round = self.rt.now() - proposal[1]
            if isinstance(command, KvBatch) and command.ops:
                # Capture each op's result *now* — the machine just
                # applied this very batch, so its state is the read's
                # linearization point — but release the futures only
                # once the WAL covering the batch is durable.  Ack ⇒
                # durable, unconditionally: the replication barrier
                # already covers any cluster with peers, but a
                # single-node group commits without ever sending, so
                # the barrier must also run here.  Under the inline
                # sync mode this resolves synchronously exactly as
                # before; under the pipelined mode resolution queues on
                # the durability watermark while the fsync overlaps the
                # next batch.
                data = self.node.machine.data
                results = tuple(
                    (
                        op.op_id,
                        (_index, op.key in data, data.get(op.key))
                        if isinstance(op, KvRead)
                        else _index,
                    )
                    for op in command.ops
                )
                # Only clients waiting *here* come back here: a batch
                # another leader proposed releases none, so a follower
                # takes over with a target of zero.
                pending = self._pending
                released = sum(op.op_id in pending for op in command.ops) if pending else 0
                self._flush_target = released + len(self._batch)
                storage = self.storage
                if storage is None:
                    self._resolve_ops(results)
                else:
                    if storage.dirty:
                        storage.begin_sync()
                    storage.notify_durable(
                        storage.generation,
                        lambda: self._resolve_ops(results),
                    )
            elif self.storage is not None and self.storage.dirty:
                # Barrier no-ops and the like: nothing to ack, but keep
                # every applied entry flowing toward the disk.
                self.storage.begin_sync()
            if self._applied_waiters:
                applied = self.node.last_applied
                due = [w for w in self._applied_waiters if w[0] <= applied]
                if due:
                    self._applied_waiters = [
                        w for w in self._applied_waiters if w[0] > applied
                    ]
                    for _, future in due:
                        if not future.done():
                            future.set_result(applied)
            # Group commit: a commit may have freed pipeline room or
            # emptied the pipeline, so re-check the flush policy.
            if self._batch:
                self.rt.call_soon(self._maybe_flush)
        elif key == "read_ready":
            barrier_id, read_index, ok = value
            if barrier_id == self._ri_inflight:
                waiters = self._ri_waiting
                self._ri_inflight = None
                self._ri_waiting = []
                for future in waiters:
                    if not future.done():
                        if ok:
                            future.set_result(read_index)
                        else:
                            future.set_exception(NotLeaderError())
                if self._ri_queue:
                    # Reads queued while this barrier was in flight:
                    # start theirs now (scheduled — listener context must not
                    # recurse into the runtime driver).
                    self.rt.call_soon(self._start_read_round)
        elif key == "leader" and value[1] == self.pid:
            term = value[0]
            if term not in self._barrier_terms:
                self._barrier_terms.add(term)
                # Listener context: schedule the injection, don't recurse
                # into the runtime from inside its own driver.
                self.rt.call_soon(self._propose_barrier, term)

    def _resolve_ops(self, results: Tuple[Tuple[str, Any], ...]) -> None:
        """Release client futures whose results are now durable."""
        for op_id, result in results:
            future = self._pending.pop(op_id, None)
            if future is not None and not future.done():
                future.set_result(result)

    def _propose_barrier(self, term: int) -> None:
        if self.node.state is not LEADER or self.node.current_term != term:
            return
        batch = KvBatch((), batch_id=("barrier", self.pid, term))
        self._propose(batch)

    def _propose(self, batch: KvBatch) -> None:
        self._proposal = (batch.batch_id, self.rt.now())
        self.runtime.inject(ClientPropose(batch.batch_id, batch))

    def _maybe_flush(self) -> None:
        """Propose the held batch if it is full and the pipeline has room,
        or if nothing is uncommitted, its expected clients are back and
        ``FLUSH_INTERVAL`` has passed since the last batch; with
        nothing uncommitted, wait for the clients at most
        ``IDLE_WAIT_ROUNDS`` rounds (see "Write path" above)."""
        held = len(self._batch)
        if not held:
            return
        uncommitted = self.node.log.last_index - self.node.commit_index
        if held >= self.max_batch and uncommitted < self.max_inflight:
            self._flush_batch()
        elif uncommitted == 0:
            wait = self._flushed_at + FLUSH_INTERVAL - self.rt.now()
            if held < self._flush_target:
                wait = max(wait, IDLE_WAIT_ROUNDS * self._round)
            if wait > 0:
                self._flush_within(wait)
            else:
                self._flush_batch()

    def _flush_within(self, delay: float) -> None:
        """Make sure the held batch is proposed within ``delay`` seconds."""
        at = self.rt.now() + delay
        if self._flush_handle is not None:
            if self._flush_at <= at:
                return
            self._flush_handle.cancel()
        self._flush_at = at
        self._flush_handle = self.rt.call_later(delay, self._flush_batch)

    def _flush_batch(self) -> None:
        """Propose what is held (at most ``max_batch`` ops) if the pipeline
        has room; also the timers' callback."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._batch:
            return
        if self.node.state is not LEADER:
            for op in self._batch:
                future = self._pending.pop(op.op_id, None)
                if future is not None and not future.done():
                    future.set_exception(NotLeaderError())
            self._batch.clear()
            return
        if (
            self.node.log.last_index - self.node.commit_index
            >= self.max_inflight
        ):
            # Pipeline full: hold the batch until commits catch up so the
            # uncommitted log (and commit latency) stays bounded.  Waiters
            # are still bounded by commit_timeout.
            self._flush_within(BATCH_WINDOW)
            return
        ops = tuple(self._batch[: self.max_batch])
        del self._batch[: len(ops)]
        self._batch_counter += 1
        self.flushed_batches += 1
        self.flushed_ops += len(ops)
        self._flushed_at = self.rt.now()
        self._propose(KvBatch(ops, batch_id=(self.pid, self._batch_counter)))
        if self._batch:
            self._flush_within(BATCH_WINDOW)

    def fail_pending(self) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(NotLeaderError())
        self._pending.clear()
        self._batch.clear()
        read_waiters = self._ri_waiting + self._ri_queue
        self._ri_inflight = None
        self._ri_waiting = []
        self._ri_queue = []
        for future in read_waiters:
            if not future.done():
                future.set_exception(NotLeaderError())
        applied_waiters, self._applied_waiters = self._applied_waiters, []
        for _, future in applied_waiters:
            if not future.done():
                future.set_exception(NotLeaderError())


class KVServer:
    """One cluster member: ``shards`` consensus groups + shared transport
    + client frontend.

    Args:
        cluster: full membership.
        pid: this node's pid.
        shards: independent consensus groups hosted by every node.  Keys
            are hash-partitioned across them (default ``1``).
        engine: consensus-engine spec — one of
            :data:`repro.live.engine.ENGINES` (``raft``, ``paxos``,
            ``ct``), or a comma-separated list naming one engine per
            shard.  Every node of a cluster must use the same spec; a
            mismatch is rejected loudly at the wire (frames from a
            foreign engine are counted and dropped, see ``status``'s
            ``foreign_frames``).
        seed: run seed (election randomness derives from it; each shard
            offsets it by :data:`SHARD_SEED_STRIDE` so co-hosted groups
            draw distinct randomness).
        election_timeout: randomized election timer range, in seconds.
            With several shards this is the *preferred* node's range
            (node ``i mod n`` for shard ``i``); the other nodes get a
            strictly later range so leaders spread across the cluster.
        heartbeat_interval: leader heartbeat period, in seconds.
        max_batch: most ops one proposal carries; a full batch is
            proposed at once if the pipeline has room.
        max_inflight: per shard, hold new proposals while this many log
            entries are uncommitted.  Full batches pipeline up to this
            depth; partial ones wait for an idle pipeline and the flush
            interval, or for the backstop (see "Write path" above), so
            the entry rate self-clocks to the commit rate (at most one
            partial entry per interval) and batch size adapts to load.  Delta
            replication (per-follower cursors in the core) makes each
            in-flight entry cost linear wire bytes, so the default is a
            deep pipeline; the cap bounds commit latency and uncommitted
            log memory, not replication traffic.
        commit_timeout: how long a client ``put`` may wait for commit
            before the server answers with an error (client retries).
        read_tier: default path for linearizable reads — one of
            :data:`READ_TIERS`.  ``safe`` (default) commits a log marker
            per read; ``readindex`` confirms leadership with one
            barrier — an append round the followers must ack —
            amortized over all queued reads; ``lease`` answers with zero
            rounds while the drift-discounted leader lease is live
            (falling back to readindex otherwise); ``follower`` behaves
            like ``safe`` server-side but renews leases with barriers,
            whose confirmations let followers serve bounded-stale
            reads.  A per-request ``"tier"`` field overrides it.  See
            docs/reads.md.
        lease_duration: the lease/stickiness window W, seconds on each
            node's local clock.  Defaults to ``election_timeout[0]``
            when the tier uses leases (``lease``/``follower``) — the
            same horizon the election timers already respect — and 0
            (disabled) otherwise.
        drift_bound: seconds subtracted from every lease before serving;
            must be at least ``W * (1 - 1/f)`` to tolerate clocks up to
            ``f`` times slow.  ``0`` with a skewed clock is the
            mis-bounded lease the chaos canary demonstrates.
        staleness_bound: maximum bounded-stale age this server accepts
            for follower reads (requests may ask for stricter bounds).
        snapshot_threshold: forwarded to each Raft node (log compaction).
        epoch: shared trace-time origin (see :class:`LiveRuntime`).
        observers: extra trace listeners for every shard's runtime.
        unsafe_lin_reads: **deliberately broken** linearizable reads —
            a node that believes it leads a shard answers ``lin`` gets
            from local state without committing a read marker, so a
            deposed leader serves stale values.  Exists only so the chaos
            checker has a real consistency bug to catch; never enable it
            outside tests.
        data_dir: this node's durable-state directory.  Each shard
            persists its Raft group (term, vote, log, snapshots) under
            ``data_dir/shard-<id>`` via :class:`repro.storage.engine.RaftStorage`
            and recovers it on cold start.  ``None`` (the default) keeps
            the pre-storage in-memory behaviour.
        lost_ack_bug: **deliberately broken** durability — the WAL skips
            every ``fsync``, so writes are acknowledged before they are
            durable and a power failure silently forgets them.  Exists
            only so the chaos checker has a real durability bug to
            catch (``--inject-bug lost-ack``); never enable it outside
            tests.
        no_rejoin: strict quarantine — when any shard's durable state is
            corrupt beyond torn-tail repair, raise
            :class:`~repro.storage.engine.StorageQuarantineError` from
            the constructor instead of moving the files aside and
            rejoining as an empty follower.  See docs/storage.md for the
            single-disk vs majority-disk-loss trade-off.
        sync_mode: durability barrier execution — ``"inline"`` (default)
            fsyncs on the event loop before anything externally visible
            escapes; ``"pipelined"`` runs fsync on a per-shard worker
            thread and holds outbound messages/acks on the durability
            watermark instead, overlapping fsync with replication and
            serialization (same persist-before-respond guarantee, see
            docs/performance.md "Commit pipeline").
        fsync_delay: extra seconds slept per real fsync, emulating a
            device write barrier that costs something — localhost CI
            disks absorb fsync in microseconds, so the E19 benchmark
            injects a realistic latency here to compare sync modes
            honestly.  0 (default) outside benchmarks.
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        pid: int,
        *,
        shards: int = 1,
        engine: str = DEFAULT_ENGINE,
        seed: int = 0,
        election_timeout: Tuple[float, float] = (0.3, 0.6),
        heartbeat_interval: float = 0.06,
        max_batch: int = 64,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        commit_timeout: float = 5.0,
        read_tier: str = "safe",
        lease_duration: Optional[float] = None,
        drift_bound: float = DEFAULT_DRIFT_BOUND,
        staleness_bound: float = DEFAULT_STALENESS_BOUND,
        snapshot_threshold: Optional[int] = None,
        epoch: Optional[float] = None,
        observers: Tuple = (),
        transport_options: Optional[Dict[str, Any]] = None,
        unsafe_lin_reads: bool = False,
        data_dir: Optional[str] = None,
        lost_ack_bug: bool = False,
        no_rejoin: bool = False,
        sync_mode: str = "inline",
        fsync_delay: float = 0.0,
        runtime: Optional[Runtime] = None,
    ):
        self.cluster = cluster
        self.pid = pid
        #: The runtime seam (:mod:`repro.core.runtime`) this node runs
        #: on: real sockets and wall clocks in production, the in-memory
        #: deterministic network and virtual time under DST.
        self.rt = runtime if runtime is not None else current_runtime()
        self.shard_count = validate_shards(shards)
        self.engines = parse_engine_spec(engine, self.shard_count)
        self.engine_spec = engine
        self.max_batch = max_batch
        self.max_inflight = validate_max_inflight(max_inflight)
        self.commit_timeout = commit_timeout
        if read_tier not in READ_TIERS:
            raise ValueError(
                f"unknown read tier {read_tier!r} (choose from {READ_TIERS})"
            )
        self.read_tier = read_tier
        self.heartbeat_interval = heartbeat_interval
        if lease_duration is None:
            lease_duration = (
                election_timeout[0] if read_tier in ("lease", "follower") else 0.0
            )
        if drift_bound < 0:
            raise ValueError("drift_bound must be >= 0")
        self.lease_duration = lease_duration
        self.drift_bound = drift_bound
        self.staleness_bound = staleness_bound
        self.read_config = ReadConfig(
            lease_duration=lease_duration, drift_bound=drift_bound
        )
        self.unsafe_lin_reads = unsafe_lin_reads
        self.data_dir = data_dir
        self.lost_ack_bug = lost_ack_bug
        self.no_rejoin = no_rejoin
        if sync_mode not in SYNC_MODES:
            raise ValueError(
                f"unknown sync mode {sync_mode!r} (choose from {SYNC_MODES})"
            )
        self.sync_mode = sync_mode
        self.fsync_delay = fsync_delay
        options = dict(transport_options or {})
        options.setdefault(
            "jitter_seed", derive_process_seed(seed, pid, cluster.n) ^ 1
        )
        options.setdefault("runtime", self.rt)
        self.transport = PeerTransport(
            cluster, pid, on_event=self._on_transport_event, **options
        )
        self.shards: List[KVShard] = []
        for shard_id in range(self.shard_count):
            storage = None
            if data_dir is not None:
                storage = RaftStorage(
                    os.path.join(data_dir, f"shard-{shard_id}"),
                    sync_policy="none" if lost_ack_bug else "fsync",
                    sync_mode=sync_mode,
                    fsync_delay=fsync_delay,
                    no_rejoin=no_rejoin,
                )
            self.shards.append(
                KVShard(
                    shard_id,
                    cluster,
                    pid,
                    self.transport,
                    engine=self.engines[shard_id],
                    shard_count=self.shard_count,
                    seed=seed + SHARD_SEED_STRIDE * shard_id,
                    election_timeout=election_timeout,
                    heartbeat_interval=heartbeat_interval,
                    max_batch=max_batch,
                    max_inflight=self.max_inflight,
                    snapshot_threshold=snapshot_threshold,
                    epoch=epoch,
                    observers=observers,
                    storage=storage,
                    read_config=self.read_config,
                    runtime=self.rt,
                )
            )
        self._client_server: Optional[Any] = None
        #: Running client-connection handlers and their writers.
        self._clients: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._watchdog: Optional[asyncio.Task] = None
        self._lease_renewer: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Shard 0 shortcuts (the whole node when ``shards == 1``)
    # ------------------------------------------------------------------

    @property
    def node(self):
        """Shard 0's protocol node (the whole node when ``shards == 1``)."""
        return self.shards[0].node

    @property
    def runtime(self) -> LiveRuntime:
        """Shard 0's runtime (its ``transport`` is the shared one)."""
        return self.shards[0].runtime

    @property
    def is_leader(self) -> bool:
        return self.shards[0].is_leader

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, *, restart: bool = False) -> None:
        spec = self.cluster[self.pid]
        self._client_server = await self.rt.start_server(
            self._handle_client, spec.host, spec.client_port
        )
        await self.transport.start()
        for shard in self.shards:
            await shard.runtime.start(restart=restart)
        self._watchdog = asyncio.ensure_future(self._watch_leadership())
        if self.read_config.lease_duration > 0:
            self._lease_renewer = asyncio.ensure_future(self._renew_leases())

    async def stop(self, *, crash: bool = False, torn: bool = False) -> None:
        """Stop the node.

        ``crash=True`` is a power failure for storage: un-synced WAL
        state is lost (with ``torn=True`` a torn final frame is left on
        disk); a graceful stop flushes and closes it instead.
        """
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except (asyncio.CancelledError, Exception):
                pass
            self._watchdog = None
        if self._lease_renewer is not None:
            self._lease_renewer.cancel()
            try:
                await self._lease_renewer
            except (asyncio.CancelledError, Exception):
                pass
            self._lease_renewer = None
        if self._client_server is not None:
            self._client_server.close()
        # Cancel the client handlers, parked mid-request or not; they are
        # awaited once the shards have stopped.
        clients, self._clients = self._clients, {}
        for task, writer in clients.items():
            writer.close()
            task.cancel()
        for shard in self.shards:
            shard.fail_pending()
            await shard.runtime.stop(crash=crash)
            if shard.storage is not None and not shard.storage.closed:
                if crash:
                    shard.storage.crash(torn=torn)
                else:
                    shard.storage.close()
        await self.transport.stop()
        for task in clients:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        # After the handlers end: newer Pythons block here until they do.
        if self._client_server is not None:
            await self._client_server.wait_closed()
            self._client_server = None

    def _on_transport_event(self, kind: str, peer: int) -> None:
        # One shared link per peer: record connect/disconnect once, into
        # shard 0's trace (the compatibility trace of the whole node).
        runtime = self.shards[0].runtime
        runtime.trace.record(
            runtime.now,
            tr.CONNECT if kind == "connect" else tr.DISCONNECT,
            self.pid,
            peer,
        )

    def shard_for_key(self, key: Any) -> int:
        """The shard owning ``key`` (the same hash clients compute)."""
        return shard_of(key, self.shard_count)

    def pipeline_status(self) -> Dict[str, Any]:
        """Commit-pipeline health across all shards.

        The amortization story in numbers: how deep the fsync queue
        runs, how far the durability watermark trails the journal,
        how many ops each proposed batch carried, and how many frames
        each socket write coalesced.
        """
        queue_depth = lag = waiters = syncs = appends = compactions = 0
        max_compact = 0.0
        batches = ops = 0
        for shard in self.shards:
            storage = shard.storage
            if storage is not None:
                queue_depth += storage.fsync_queue_depth
                lag += storage.watermark_lag
                waiters += storage.sync_waiters
                syncs += storage.stats.syncs
                appends += storage.stats.appends
                compactions += storage.compactions
                max_compact = max(max_compact, storage.max_compact_seconds)
            batches += shard.flushed_batches
            ops += shard.flushed_ops
        tstats = self.transport.stats
        return {
            "sync_mode": self.sync_mode,
            "fsync_queue_depth": queue_depth,
            "watermark_lag": lag,
            "sync_waiters": waiters,
            "wal_appends": appends,
            "wal_syncs": syncs,
            "fsyncs_per_commit": round(syncs / ops, 4) if ops else 0.0,
            "batches": batches,
            "batch_occupancy": round(ops / batches, 2) if batches else 0.0,
            "compactions": compactions,
            "max_compact_seconds": round(max_compact, 6),
            "frames_sent": tstats.sent,
            "socket_writes": tstats.writes,
            "frames_per_write": (
                round(tstats.sent / tstats.writes, 2) if tstats.writes else 0.0
            ),
        }

    async def _watch_leadership(self) -> None:
        """Fail pending writes promptly when a shard loses leadership."""
        while True:
            await self.rt.sleep(0.1)
            for shard in self.shards:
                if shard.has_pending() and not shard.is_leader:
                    shard.fail_pending()

    async def _renew_leases(self) -> None:
        """Lease renewal for idle shards and the follower tier.

        A leader, on any engine, extends its lease from the append acks
        its replication traffic already collects (see
        ``ReadLedger.note_ack_time``), with zero extra frames.  This loop
        only injects an empty barrier when that is not keeping the lease
        healthy — a shard whose heartbeat acks are being coalesced away —
        or on the ``follower`` tier, where each confirmed barrier is also
        the freshness proof that keeps bounded-stale follower reads
        serveable.  A barrier's broadcast is one heartbeat that every
        follower must ack.  Barriers run at the heartbeat cadence at
        most, and only while this node leads a shard with a lease
        configured.
        """
        threshold = self.lease_duration * 0.5
        while True:
            await self.rt.sleep(self.heartbeat_interval)
            for shard in self.shards:
                if (
                    self.read_tier == "follower"
                    or shard.lease_remaining() <= threshold
                ):
                    shard.renew_lease()

    # ------------------------------------------------------------------
    # Client frontend
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._clients[task] = writer
        enable_nodelay(writer)
        try:
            while True:
                request = decode_body(await read_frame_bytes(reader))
                if isinstance(request, dict):
                    response = await self._serve(request)
                else:
                    response = {"type": "error", "reason": "bad request"}
                writer.write(frame_bytes(response))
                await writer.drain()
        except asyncio.CancelledError:
            # stop() cancelled us: end quietly, since asyncio's stream
            # protocol logs a handler task that finishes cancelled.
            pass
        except (ConnectionError, OSError, asyncio.IncompleteReadError, WireError):
            pass  # a body that does not decode closes its connection
        finally:
            writer.close()
            self._clients.pop(task, None)

    async def _serve(self, request: Dict[str, Any]) -> Dict[str, Any]:
        kind = request.get("type")
        if kind == "put":
            return await self._serve_put(request)
        if kind == "get":
            key = request.get("key")
            shard = self.shards[self.shard_for_key(key)]
            if request.get("lin"):
                return await self._serve_lin_get(request, shard)
            if request.get("staleness") is not None:
                return self._serve_stale_get(request, shard)
            machine = shard.node.machine
            return {
                "type": "value",
                "key": key,
                "found": key in machine.data,
                "value": machine.data.get(key),
                "applied": shard.node.last_applied,
                "leader": shard.leader_hint,
                "shard": shard.shard_id,
            }
        if kind == "status":
            head = self.shards[0]
            return {
                "type": "status",
                "pid": self.pid,
                "n": self.cluster.n,
                "shards": self.shard_count,
                "engine": head.engine.name,
                "role": head.node.state,
                "term": head.node.current_term,
                "commit_index": head.node.commit_index,
                "applied": head.node.last_applied,
                "leader": head.leader_hint,
                "read_tier": self.read_tier,
                "lease_remaining": head.lease_remaining(),
                "pipeline": self.pipeline_status(),
                "groups": [
                    {
                        "shard": shard.shard_id,
                        "engine": shard.engine.name,
                        "role": shard.node.state,
                        "term": shard.node.current_term,
                        "commit_index": shard.node.commit_index,
                        "applied": shard.node.last_applied,
                        "leader": shard.leader_hint,
                        "foreign_frames": shard.runtime.foreign_frames,
                        "lease_remaining": shard.lease_remaining(),
                        "fsync_queue_depth": (
                            shard.storage.fsync_queue_depth
                            if shard.storage is not None
                            else 0
                        ),
                        "watermark_lag": (
                            shard.storage.watermark_lag
                            if shard.storage is not None
                            else 0
                        ),
                    }
                    for shard in self.shards
                ],
            }
        return {"type": "error", "reason": f"unknown request type {kind!r}"}

    async def _serve_put(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op_id = request.get("id")
        if not isinstance(op_id, str) or not op_id:
            return {"type": "error", "reason": "put needs a string id"}
        key = request.get("key")
        shard = self.shards[self.shard_for_key(key)]
        if not shard.is_leader:
            return self._redirect(shard)
        future = shard.enqueue(TaggedPut(key, request.get("value"), op_id))
        try:
            index = await asyncio.wait_for(future, timeout=self.commit_timeout)
            return {
                "type": "ok", "id": op_id, "index": index,
                "shard": shard.shard_id,
            }
        except NotLeaderError:
            return self._redirect(shard)
        except asyncio.TimeoutError:
            return {"type": "error", "reason": "commit timeout", "id": op_id}
        finally:
            shard.forget(op_id)

    async def _serve_lin_get(
        self, request: Dict[str, Any], shard: KVShard
    ) -> Dict[str, Any]:
        """A linearizable read, dispatched by tier.

        The request's ``"tier"`` field overrides the server default; the
        ``safe`` tier (and any tier's fallback of last resort) is the
        read-as-log-entry marker.  Redirects unless this node leads the
        owning shard.
        """
        key = request.get("key")
        op_id = request.get("id")
        if not isinstance(op_id, str) or not op_id:
            return {"type": "error", "reason": "lin get needs a string id"}
        if not shard.is_leader:
            return self._redirect(shard)
        if self.unsafe_lin_reads:
            # The injectable bug: answer from local state on mere belief
            # of leadership — no commit round, no deposition check.
            machine = shard.node.machine
            return {
                "type": "value", "key": key,
                "found": key in machine.data,
                "value": machine.data.get(key),
                "applied": shard.node.last_applied,
                "leader": shard.leader_hint,
                "shard": shard.shard_id, "lin": True,
            }
        tier = request.get("tier") or self.read_tier
        if tier == "lease":
            return await self._serve_lease_get(request, shard)
        if tier == "readindex":
            return await self._serve_readindex_get(request, shard)
        return await self._serve_safe_lin_get(request, shard)

    async def _serve_safe_lin_get(
        self, request: Dict[str, Any], shard: KVShard
    ) -> Dict[str, Any]:
        """The safe tier: a :class:`KvRead` marker through the log.

        Times out (the client retries) if the marker cannot commit —
        which is exactly what happens on a deposed leader, keeping stale
        values unservable.
        """
        key = request.get("key")
        op_id = request["id"]
        future = shard.enqueue(KvRead(key, op_id))
        try:
            index, found, value = await asyncio.wait_for(
                future, timeout=self.commit_timeout
            )
            return {
                "type": "value", "key": key, "found": found, "value": value,
                "applied": index, "leader": shard.leader_hint,
                "shard": shard.shard_id, "lin": True,
            }
        except NotLeaderError:
            return self._redirect(shard)
        except asyncio.TimeoutError:
            return {"type": "error", "reason": "read timeout", "id": op_id}
        finally:
            shard.forget(op_id)

    async def _serve_readindex_get(
        self, request: Dict[str, Any], shard: KVShard
    ) -> Dict[str, Any]:
        """The ReadIndex tier: one barrier amortized over a batch.

        The shard records its commit index, confirms leadership with a
        single barrier shared by every read queued while the previous
        one was in flight, waits for the applied index to reach the recorded
        one, and answers from local state — no log writes.  A refused
        round on a node still believing it leads (the fresh-leader
        window before its barrier commits) falls back to the safe
        marker read, which both answers correctly and advances the
        epoch.
        """
        key = request.get("key")
        op_id = request["id"]
        try:
            read_index = await asyncio.wait_for(
                shard.read_index(), timeout=self.commit_timeout
            )
            await asyncio.wait_for(
                shard.wait_applied(read_index), timeout=self.commit_timeout
            )
        except NotLeaderError:
            if shard.is_leader:
                return await self._serve_safe_lin_get(request, shard)
            return self._redirect(shard)
        except asyncio.TimeoutError:
            return {"type": "error", "reason": "read timeout", "id": op_id}
        machine = shard.node.machine
        return {
            "type": "value", "key": key,
            "found": key in machine.data,
            "value": machine.data.get(key),
            "applied": shard.node.last_applied,
            "leader": shard.leader_hint,
            "shard": shard.shard_id, "lin": True, "read": "readindex",
        }

    async def _serve_lease_get(
        self, request: Dict[str, Any], shard: KVShard
    ) -> Dict[str, Any]:
        """The lease tier: zero rounds while the leader lease is live.

        While ``lease expiry - drift bound`` (local clock) is in the
        future, no rival leader can have been elected — followers refuse
        votes/promises inside the stickiness window — so the leader's
        commit index is the global one and reading applied local state
        is linearizable.  Without a live lease the read degrades to a
        ReadIndex round (which also re-extends the lease).
        """
        key = request.get("key")
        op_id = request["id"]
        if not shard.lease_serveable():
            return await self._serve_readindex_get(request, shard)
        try:
            await asyncio.wait_for(
                shard.wait_applied(shard.node.commit_index),
                timeout=self.commit_timeout,
            )
        except NotLeaderError:
            return self._redirect(shard)
        except asyncio.TimeoutError:
            return {"type": "error", "reason": "read timeout", "id": op_id}
        if not shard.lease_serveable():
            # The lease lapsed while we waited for the applied index.
            return await self._serve_readindex_get(request, shard)
        machine = shard.node.machine
        return {
            "type": "value", "key": key,
            "found": key in machine.data,
            "value": machine.data.get(key),
            "applied": shard.node.last_applied,
            "leader": shard.leader_hint,
            "shard": shard.shard_id, "lin": True, "read": "lease",
            "lease_remaining": shard.lease_remaining(),
        }

    def _serve_stale_get(
        self, request: Dict[str, Any], shard: KVShard
    ) -> Dict[str, Any]:
        """A bounded-stale read served from any replica's applied state.

        The staleness figure is the age of the replica's last freshness
        proof (a confirmed barrier whose append it had taken and whose
        commit index it has applied).  A replica partitioned alongside a
        deposed leader stops gaining proofs the moment the partition
        lands — deposed leaders cannot confirm barriers — so its served
        staleness grows honestly.  The current leader answers with
        staleness 0 while its lease is live.  A bound that is negative or
        not finite (``nan`` compares false against everything) is refused.
        """
        key = request.get("key")
        try:
            bound = float(request.get("staleness"))
        except (TypeError, ValueError):
            bound = math.nan
        if not 0.0 <= bound < math.inf:
            return {
                "type": "error",
                "reason": "staleness must be a finite number >= 0",
            }
        bound = min(bound, self.staleness_bound)
        if shard.lease_serveable():
            staleness = 0.0
        else:
            staleness = shard.staleness()
            if staleness > bound:
                return {
                    "type": "error", "reason": "stale",
                    "staleness": staleness,
                    "leader": shard.leader_hint,
                    "shard": shard.shard_id,
                }
        machine = shard.node.machine
        return {
            "type": "value", "key": key,
            "found": key in machine.data,
            "value": machine.data.get(key),
            "applied": shard.node.last_applied,
            "leader": shard.leader_hint,
            "shard": shard.shard_id,
            "read": "follower", "staleness": staleness,
        }

    def _redirect(self, shard: KVShard) -> Dict[str, Any]:
        leader = shard.leader_hint
        if leader is None or leader == self.pid:
            return {
                "type": "redirect", "leader": None, "host": None,
                "port": None, "shard": shard.shard_id,
            }
        spec = self.cluster[leader]
        return {
            "type": "redirect",
            "leader": leader,
            "host": spec.host,
            "port": spec.client_port,
            "shard": shard.shard_id,
        }

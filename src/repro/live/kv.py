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
replication round-trip commits many client writes; :class:`FlushPolicy`
decides when.  A request is
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

Delivery is exactly-once.  A put's ``op_id`` is ``<client>-<n>``, with
``n`` rising per client; a client that times out or is redirected
resends the same id, and the retry may commit again in a later batch.
:class:`KVCommandMachine` applies a client's put only when its ``n`` is
above the highest one it applied for that client, and the skipped
retry is answered with the index the first copy took effect at.
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
from repro.core.runtime import Runtime, current_runtime, within
from repro.live.config import DEFAULT_MAX_INFLIGHT, ClusterConfig
from repro.live.engine import DEFAULT_ENGINE, ConsensusEngine, parse_engine_spec
from repro.live.runtime import LiveRuntime, derive_process_seed
from repro.live.sharding import shard_of
from repro.live.transport import PeerTransport
from repro.live.wire import decode_body, enable_nodelay, frame_bytes, read_frame_bytes
from repro.options import check_count, check_shards
from repro.sim import trace as tr
from repro.sim.serialize import WireError, register_wire_type
from repro.storage.engine import RaftStorage

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

#: How long a client's put or linearizable read may wait (seconds)
#: before the server answers with an error, which the client retries.
COMMIT_TIMEOUT = 5.0

#: Backstop of the self-clocked flush policy (seconds): a held batch is
#: proposed at most this long after its first op arrived.
BATCH_WINDOW = 0.005

#: How long, in rounds (the leader's last propose-to-apply time), an idle
#: pipeline waits for the clients the last commit released: their reply
#: and next request cross the same kind of links as a replication round,
#: plus up to one more round of think time.
IDLE_WAIT_ROUNDS = 2

#: Least time (seconds) between when a shard's previous batch was due
#: and a partial one.  Every entry costs the same fixed work whatever it
#: carries (an append and an ack per follower, a commit notice, a WAL
#: record and, on a durable node, an fsync), so this caps partial
#: entries at 250 a second per shard, and closed-loop clients get that
#: many: the interval runs from when a flush timer was due, not from
#: when the late timer ran (see :meth:`FlushPolicy.proposed`).  It also
#: stops a few closed-loop clients from driving every core of a small
#: host flat out, where each put's latency tracks the host's momentary
#: CPU speed: with rounds under 1 ms on 2 cores, run-to-run throughput
#: then varies by 10-20 %.  Full batches are not held by it.
FLUSH_INTERVAL = 0.004

#: Most clients a shard's :class:`KVCommandMachine` remembers.  Past it
#: the client whose last apply is oldest is forgotten, so a late retry
#: of that client's last put would apply again.
SESSION_CAP = 4096


def parse_op_id(op_id: Any) -> Optional[Tuple[str, int]]:
    """``(client, n)`` for an op id ``"<client>-<n>"`` (``n`` at most 18
    decimal digits), else ``None``."""
    if not isinstance(op_id, str):
        return None
    client, _, n = op_id.rpartition("-")
    if client and 0 < len(n) <= 18 and n.isascii() and n.isdigit():
        return client, int(n)
    return None


@dataclass(frozen=True, slots=True)
class TaggedPut(Put):
    """A ``Put`` carrying the client's operation id, ``<client>-<n>``."""

    op_id: str = ""


@dataclass(frozen=True, slots=True)
class KvRead:
    """A linearizable-read marker riding the write batch pipeline.

    Commits like a write but applies as a no-op; the shard resolves the
    waiting client with the key's value at apply time, so the read's
    linearization point is the marker's position in the log.
    """

    key: Any = None
    op_id: str = ""


@dataclass(frozen=True, slots=True)
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
    """A KV machine that unpacks :class:`KvBatch` commands and applies
    each client's put once.

    ``sessions`` maps a client (the part of an op id before its last
    ``-``) to ``(n, index)``: the highest counter applied for it and the
    log index that put took effect at.  A put whose counter is not above
    its client's is skipped.  The table is kept in last-applied order and
    holds at most :data:`SESSION_CAP` clients, the oldest evicted first.
    It is part of the snapshot and log replay rebuilds it, so every
    replica holds the same table.
    """

    def __init__(self) -> None:
        super().__init__()
        self.sessions: Dict[str, Tuple[int, int]] = {}

    def apply(self, index: int, command: Any) -> Any:
        if isinstance(command, KvBatch):
            applied = 0
            for op in command.ops:
                if isinstance(op, KvRead) or self._is_repeat(index, op):
                    continue  # reads don't mutate state; a repeat already did
                super().apply(index, op)
                applied += 1
            return applied
        return super().apply(index, command)

    def _is_repeat(self, index: int, op: Any) -> bool:
        """Whether ``op`` already took effect; records it if not."""
        session = parse_op_id(op.op_id)
        if session is None:
            return False
        client, n = session
        sessions = self.sessions
        last = sessions.get(client)
        if last is not None:
            if n <= last[0]:
                return True
            del sessions[client]  # re-inserted last: it applied most recently
        elif len(sessions) >= SESSION_CAP:
            del sessions[next(iter(sessions))]
        sessions[client] = (n, index)
        return False

    def effect_index(self, op_id: str, index: int) -> int:
        """Where the put ``op_id``, applied or skipped by the entry at
        ``index``, took effect: its client's recorded index."""
        session = parse_op_id(op_id)
        last = None if session is None else self.sessions.get(session[0])
        return index if last is None else last[1]

    def reset(self) -> None:
        super().reset()
        self.sessions.clear()

    def snapshot(self) -> Any:
        sessions = tuple((c, n, i) for c, (n, i) in self.sessions.items())
        return (dict(self.data), self.applied_count, sessions)

    def restore(self, snapshot: Any) -> None:
        data, applied_count, *rest = snapshot
        super().restore((data, applied_count))
        # An image written before the table existed holds none.
        self.sessions = {c: (n, i) for c, n, i in (rest[0] if rest else ())}


class NotLeaderError(Exception):
    """This node lost (or never had) leadership; client should redirect."""


def _refuse(futures) -> None:
    """Fail every open future in ``futures`` (``None`` entries skipped)
    with :class:`NotLeaderError`, so its client redirects."""
    for future in futures:
        if future is not None and not future.done():
            future.set_exception(NotLeaderError())


class FlushPolicy:
    """When a shard leader proposes the client ops it holds: the write
    path's batching rule, with no I/O, timers or clock of its own.

    Commits, not a fixed window, clock the flush.  A held batch is
    proposed when it holds ``max_batch`` ops and fewer than
    ``max_inflight`` entries are uncommitted (full batches pipeline), or
    when nothing is uncommitted and it holds as many ops as the last
    applied batch carried plus those that queued behind it: the clients
    that commit released, expected back.  A lone put into an idle
    pipeline thus commits in one round, and closed-loop clients share
    one entry per round.  That expectation is a guess about the traffic,
    so an idle pipeline waits for it at most :data:`IDLE_WAIT_ROUNDS` of
    the leader's measured propose-to-apply rounds: clients that think
    longer than that, or arrive independently (open-loop traffic), cost
    each op at most that wait, and batches do not grow past what arrives
    in it.  A partial batch is also never proposed sooner than
    :data:`FLUSH_INTERVAL` after the shard's previous batch, so when
    rounds are fast the interval, not the round, clocks the flush: a
    lone put into a shard that proposed nothing for that long still
    commits in one round, while back-to-back partial batches are spaced
    by it, 250 a second.  The interval runs from when the previous
    batch was due, so a flush timer's lateness does not add to it.  The
    shard's backstop timer (:data:`BATCH_WINDOW`) proposes whatever is
    held, whatever the pipeline's state.

    The shard reports every applied entry (:meth:`applied`) and its own
    proposals (:meth:`proposed`), and asks :meth:`wait` what to do.
    """

    def __init__(self, max_batch: int, max_inflight: int):
        self.max_batch = max_batch
        self.max_inflight = max_inflight
        #: Ops to hold before proposing into an idle pipeline.
        self.target = 0
        #: The unit of the idle wait: this leader's last propose-to-apply time.
        self.round = BATCH_WINDOW
        self.flushed_at = float("-inf")  # when the last batch was due
        self._proposal: Optional[Tuple[Any, float]] = None

    def proposed(self, batch: KvBatch, now: float, due: Optional[float] = None) -> None:
        """``batch`` (client ops, or an empty barrier) entered the log at
        ``now``.  A timer that proposed it passes when it was ``due``:
        the next interval starts there, so a timer's lateness does not
        add to the spacing, unless it ran a whole interval late or more,
        when the next interval starts ``now``.  ``due`` is capped at
        ``now``: a virtual clock may run a timer a hair before it is due.
        """
        self._proposal = (batch.batch_id, now)
        if batch.ops:
            due = now if due is None else min(due, now)
            self.flushed_at = due if now - due < FLUSH_INTERVAL else now

    def applied(self, batch_id: Any, now: float, expected: Optional[int] = None) -> None:
        """The entry proposed as ``batch_id`` applied at ``now``; when it
        carried client ops, ``expected`` of them are due back."""
        proposal = self._proposal
        if proposal is not None and batch_id == proposal[0]:
            self.round = now - proposal[1]
        if expected is not None:
            self.target = expected

    def wait(self, now: float, held: int, uncommitted: int) -> Optional[float]:
        """What to do with ``held`` ops while ``uncommitted`` entries are
        in the pipeline: ``0.0`` proposes now, a delay checks again after
        it, and ``None`` waits for a commit."""
        if not held:
            return None
        if held >= self.max_batch and uncommitted < self.max_inflight:
            return 0.0
        if uncommitted:
            return None
        wait = self.flushed_at + FLUSH_INTERVAL - now
        if held < self.target:
            wait = max(wait, IDLE_WAIT_ROUNDS * self.round)
        return wait if wait > 0 else 0.0


class ReadQueue:
    """A shard's ReadIndex reads, with at most one barrier in flight.

    Reads arriving while one is in flight queue for the *next*: joining
    the current one would be unsound, since its read index may predate a
    write committed after the barrier was recorded but before the read
    arrived.  Waiters are opaque here; the shard injects the barriers
    and resolves the waiters this returns.
    """

    def __init__(self, shard_id: int, pid: int):
        self._tag = ("ri", shard_id, pid)
        self.rounds = 0  # barriers opened
        self.inflight: Optional[Tuple[Any, ...]] = None
        self.waiting: List[Any] = []  # the in-flight barrier's reads
        self.queued: List[Any] = []  # reads for the next barrier

    def join(self, waiter: Any) -> bool:
        """Queue ``waiter`` for the next barrier; ``True`` when none is in
        flight, so one should open now."""
        self.queued.append(waiter)
        return self.inflight is None

    def open(self, leader: bool, force: bool = False) -> Tuple[Optional[Tuple], List]:
        """Open the next barrier for the queued reads (with ``force``, even
        for none): ``(barrier_id, refused)``.  No barrier opens while one
        is in flight, and none on a node that does not lead, whose queued
        reads come back ``refused``."""
        if self.inflight is not None or not (self.queued or force):
            return None, []
        waiters, self.queued = self.queued, []
        if not leader:
            return None, waiters
        self.rounds += 1
        self.inflight = self._tag + (self.rounds,)
        self.waiting = waiters
        return self.inflight, []

    def confirmed(self, barrier_id: Any) -> Optional[List]:
        """The reads barrier ``barrier_id`` answers (``None`` unless it is
        the one in flight)."""
        if barrier_id != self.inflight:
            return None
        waiters, self.waiting, self.inflight = self.waiting, [], None
        return waiters

    def drop(self) -> List:
        """Forget every read (leadership is gone); returns their waiters."""
        waiters = self.waiting + self.queued
        self.inflight, self.waiting, self.queued = None, [], []
        return waiters


class KVShard:
    """One consensus group hosted by a :class:`KVServer`.

    Owns the group's protocol node (built by its ``engine`` — Raft by
    default) and its :class:`LiveRuntime` (driving the node over the
    server's shared transport, frames tagged with ``shard_id`` and
    filtered to the engine's own message family).  The glue between them
    and the clients: it holds the pending client futures and the open
    batch, feeds its :class:`FlushPolicy` and :class:`ReadQueue`, and
    carries out what they decide.
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
        self.policy = FlushPolicy(max_batch, max_inflight)
        self.reads = ReadQueue(shard_id, pid)
        self._pending: Dict[str, asyncio.Future] = {}
        self._batch: List[TaggedPut] = []
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._flush_at = 0.0  # when _flush_handle fires
        self._batch_counter = 0
        #: The last term a barrier was proposed for: terms only rise.
        self._barrier_term = 0
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

    def status(self) -> Dict[str, Any]:
        """This group's entry in the ``status`` reply."""
        storage = self.storage
        return {
            "shard": self.shard_id, "engine": self.engine.name,
            "role": self.node.state, "term": self.node.current_term,
            "commit_index": self.node.commit_index,
            "applied": self.node.last_applied, "leader": self.leader_hint,
            "foreign_frames": self.runtime.foreign_frames,
            "lease_remaining": self.lease_remaining(),
            "fsync_queue_depth": 0 if storage is None else storage.fsync_queue_depth,
            "watermark_lag": 0 if storage is None else storage.watermark_lag,
        }

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

    def forget(self, op_id: str, future: asyncio.Future) -> None:
        """Drop ``future``, ``op_id``'s waiter (the frontend is done with
        it) — unless a retry of the same op has replaced it since."""
        if self._pending.get(op_id) is future:
            del self._pending[op_id]

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
        if self.reads.join(future):
            self._start_read_round()
        return future

    def renew_lease(self) -> None:
        """Inject an empty barrier unless one is already in flight: its
        append is a heartbeat every follower must ack, and those acks
        extend the lease (and, once confirmed, prove followers fresh)
        whether or not any read is waiting on it."""
        if self.reads.inflight is None and self.is_leader:
            self._start_read_round(force=True)

    def _start_read_round(self, *, force: bool = False) -> None:
        barrier_id, refused = self.reads.open(self.is_leader, force)
        _refuse(refused)
        if barrier_id is not None:
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
            self._on_applied(value[0], value[2])
        elif key == "read_ready":
            barrier_id, read_index, ok = value
            waiters = self.reads.confirmed(barrier_id)
            if waiters is None:
                return
            if not ok:
                _refuse(waiters)
            else:
                for future in waiters:
                    if not future.done():
                        future.set_result(read_index)
            if self.reads.queued:
                # Reads queued while this barrier was in flight: start
                # theirs now (scheduled — listener context must not
                # recurse into the runtime driver).
                self.rt.call_soon(self._start_read_round)
        elif key == "leader" and value[1] == self.pid:
            term = value[0]
            if term > self._barrier_term:
                self._barrier_term = term
                # Listener context: schedule the injection, don't recurse
                # into the runtime from inside its own driver.
                self.rt.call_soon(self._propose_barrier, term)
        elif key == "stepped_down":
            # Nothing this node holds can commit or confirm under the
            # term it led: its clients redirect now.
            self.fail_pending()

    def _on_applied(self, index: int, command: Any) -> None:
        ops = command.ops if isinstance(command, KvBatch) else ()
        # Only clients waiting *here* come back here: a batch another
        # leader proposed releases none, so a follower takes over with a
        # target of zero.
        pending = self._pending
        released = sum(op.op_id in pending for op in ops) if pending else 0
        self.policy.applied(
            getattr(command, "batch_id", None),
            self.rt.now(),
            released + len(self._batch) if ops else None,
        )
        storage = self.storage
        if ops and pending:
            # Capture each op's result *now* — the machine just applied
            # this very batch, so its state is the read's linearization
            # point — but release the futures only once the WAL covering
            # the batch is durable.  Ack ⇒ durable, unconditionally: the
            # replication barrier already covers any cluster with peers,
            # but a single-node group commits without ever sending, so
            # the barrier must also run here.  Resolution queues on the
            # durability watermark while the fsync overlaps the next batch
            # (under virtual time it resolves synchronously).  A put the
            # machine skipped as a repeat answers with the index its
            # first copy took.  A node holding no waiters (a follower)
            # builds no results: nobody would read them.
            machine = self.node.machine
            data = machine.data
            results = tuple(
                (
                    op.op_id,
                    (index, op.key in data, data.get(op.key))
                    if isinstance(op, KvRead)
                    else machine.effect_index(op.op_id, index),
                )
                for op in ops
            )
            if storage is None:
                self._resolve_ops(results)
            else:
                if storage.dirty:
                    storage.begin_sync()
                storage.notify_durable(
                    storage.generation, lambda: self._resolve_ops(results)
                )
        elif storage is not None and storage.dirty:
            # Barrier no-ops, or ops nobody here waits for: nothing to
            # ack, but keep every applied entry flowing toward the disk.
            storage.begin_sync()
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
        # Group commit: a commit may have freed pipeline room or emptied
        # the pipeline, so ask the flush policy again.
        if self._batch:
            self.rt.call_soon(self._maybe_flush)

    def _resolve_ops(self, results: Tuple[Tuple[str, Any], ...]) -> None:
        """Release client futures whose results are now durable."""
        for op_id, result in results:
            future = self._pending.pop(op_id, None)
            if future is not None and not future.done():
                future.set_result(result)

    def _propose_barrier(self, term: int) -> None:
        if self.node.state is not LEADER or self.node.current_term != term:
            return
        self._propose(KvBatch((), batch_id=("barrier", self.pid, term)))

    def _propose(self, batch: KvBatch, due: Optional[float] = None) -> None:
        self.policy.proposed(batch, self.rt.now(), due)
        self.runtime.inject(ClientPropose(batch))

    def _uncommitted(self) -> int:
        return self.node.log.last_index - self.node.commit_index

    def _maybe_flush(self) -> None:
        """Carry out the flush policy's answer for what is held now."""
        delay = self.policy.wait(self.rt.now(), len(self._batch), self._uncommitted())
        if delay == 0.0:
            self._flush_batch()
        elif delay is not None:
            self._flush_within(delay)

    def _flush_within(self, delay: float) -> None:
        """Make sure the held batch is proposed within ``delay`` seconds."""
        at = self.rt.now() + delay
        if self._flush_handle is not None:
            if self._flush_at <= at:
                return
            self._flush_handle.cancel()
        self._flush_at = at
        self._flush_handle = self.rt.call_later(delay, self._flush_batch, at)

    def _flush_batch(self, due: Optional[float] = None) -> None:
        """Propose what is held (at most ``max_batch`` ops) if the pipeline
        has room; ``due`` is when the timer calling it was due."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._batch:
            return
        if self.node.state is not LEADER:
            _refuse(self._pending.pop(op.op_id, None) for op in self._batch)
            self._batch.clear()
            return
        if self._uncommitted() >= self.policy.max_inflight:
            # Pipeline full: hold the batch until commits catch up so the
            # uncommitted log (and commit latency) stays bounded.  Waiters
            # are still bounded by COMMIT_TIMEOUT.
            self._flush_within(BATCH_WINDOW)
            return
        ops = tuple(self._batch[: self.policy.max_batch])
        del self._batch[: len(ops)]
        self._batch_counter += 1
        self.flushed_batches += 1
        self.flushed_ops += len(ops)
        self._propose(KvBatch(ops, batch_id=(self.pid, self._batch_counter)), due)
        if self._batch:
            self._flush_within(BATCH_WINDOW)

    def fail_pending(self) -> None:
        _refuse(self._pending.values())
        self._pending.clear()
        self._batch.clear()
        _refuse(self.reads.drop())
        applied_waiters, self._applied_waiters = self._applied_waiters, []
        _refuse(future for _, future in applied_waiters)


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
            entries are uncommitted (see :class:`FlushPolicy`).  Delta
            replication (per-follower cursors in the core) makes each
            in-flight entry cost linear wire bytes, so the default is a
            deep pipeline; the cap bounds commit latency and uncommitted
            log memory, not replication traffic.
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
        read_tier: str = "safe",
        lease_duration: Optional[float] = None,
        drift_bound: float = DEFAULT_DRIFT_BOUND,
        staleness_bound: float = DEFAULT_STALENESS_BOUND,
        snapshot_threshold: Optional[int] = None,
        epoch: Optional[float] = None,
        observers: Tuple = (),
        unsafe_lin_reads: bool = False,
        data_dir: Optional[str] = None,
        lost_ack_bug: bool = False,
        no_rejoin: bool = False,
        runtime: Optional[Runtime] = None,
    ):
        self.cluster = cluster
        self.pid = pid
        #: The runtime seam (:mod:`repro.core.runtime`) this node runs
        #: on: real sockets and wall clocks in production, the in-memory
        #: deterministic network and virtual time under DST.
        self.rt = runtime if runtime is not None else current_runtime()
        self.shard_count = check_shards("shards", shards)
        self.engines = parse_engine_spec(engine, self.shard_count)
        max_batch = check_count("max_batch", max_batch)
        self.max_inflight = check_count("max_inflight", max_inflight)
        self.commit_timeout = COMMIT_TIMEOUT
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
        self.transport = PeerTransport(
            cluster, pid, on_event=self._on_transport_event, runtime=self.rt,
            jitter_seed=derive_process_seed(seed, pid, cluster.n) ^ 1,
        )
        self.shards: List[KVShard] = []
        for shard_id in range(self.shard_count):
            storage = None
            if data_dir is not None:
                storage = RaftStorage(
                    os.path.join(data_dir, f"shard-{shard_id}"),
                    sync_policy="none" if lost_ack_bug else "fsync",
                    no_rejoin=no_rejoin,
                    runtime=self.rt,
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
        if self.read_config.lease_duration > 0:
            self._lease_renewer = asyncio.ensure_future(self._renew_leases())

    async def stop(self, *, crash: bool = False, torn: bool = False) -> None:
        """Stop the node.

        ``crash=True`` is a power failure for storage: un-synced WAL
        state is lost (with ``torn=True`` a torn final frame is left on
        disk); a graceful stop flushes and closes it instead.
        """
        task, self._lease_renewer = self._lease_renewer, None
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
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
                    response = _refused("a request must be a dict")
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
        if kind in ("put", "get"):
            # The wire carries lists: a put of one would commit and then
            # fail to apply on every replica, wedging its shard for good.
            try:
                hash(request.get("key"))
            except TypeError:
                return _refused("a key must be hashable")
        if kind == "put":
            return await self._serve_put(request)
        if kind == "get":
            key = request.get("key")
            shard = self.shards[self.shard_for_key(key)]
            if request.get("lin"):
                return await self._serve_lin_get(request, shard)
            if request.get("staleness") is not None:
                return self._serve_stale_get(request, shard)
            return _value_reply(shard, key)
        if kind == "status":
            groups = [shard.status() for shard in self.shards]
            return {
                "type": "status", "pid": self.pid, "n": self.cluster.n,
                "shards": self.shard_count, "read_tier": self.read_tier,
                "pipeline": self.pipeline_status(), "groups": groups,
                # Shard 0 stands for the node (the whole node when unsharded).
                **{key: groups[0][key] for key in (
                    "engine", "role", "term", "commit_index", "applied",
                    "leader", "lease_remaining",
                )},
            }
        return _refused(f"unknown request type {kind!r}")

    async def _serve_put(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op_id = request.get("id")
        if parse_op_id(op_id) is None:
            return _refused("put needs an id <client>-<n>")
        key = request.get("key")
        shard = self.shards[self.shard_for_key(key)]
        if not shard.is_leader:
            return self._redirect(shard)
        index, refusal = await self._await(
            shard, shard.enqueue(TaggedPut(key, request.get("value"), op_id)),
            op_id, "commit timeout", forget=True,
        )
        return refusal or {
            "type": "ok", "id": op_id, "index": index, "shard": shard.shard_id,
        }

    async def _await(
        self, shard: KVShard, future: asyncio.Future, op_id: str,
        reason: str = "read timeout", *, forget: bool = False,
    ) -> Tuple[Any, Optional[Dict[str, Any]]]:
        """``(result, None)`` once ``future`` resolves within
        ``commit_timeout`` (:data:`COMMIT_TIMEOUT`), else ``(None,
        reply)``: a redirect when the shard lost leadership, an error on
        timeout.  With ``forget`` the shard drops this waiter either
        way."""
        try:
            if not future.done():
                await within(future, self.commit_timeout)
            return future.result(), None
        except NotLeaderError:
            return None, self._redirect(shard)
        except asyncio.TimeoutError:
            return None, {"type": "error", "reason": reason, "id": op_id}
        finally:
            if forget:
                shard.forget(op_id, future)

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
            return _refused("lin get needs a string id")
        if not shard.is_leader:
            return self._redirect(shard)
        if self.unsafe_lin_reads:
            # The injectable bug: answer from local state on mere belief
            # of leadership — no commit round, no deposition check.
            return _value_reply(shard, key, lin=True)
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
        result, refusal = await self._await(
            shard, shard.enqueue(KvRead(key, op_id)), op_id, forget=True
        )
        if refusal is not None:
            return refusal
        index, found, value = result
        return _value_reply(
            shard, key, found=found, value=value, applied=index, lin=True
        )

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
        op_id = request["id"]
        read_index, refusal = await self._await(shard, shard.read_index(), op_id)
        if refusal is None:
            _, refusal = await self._await(
                shard, shard.wait_applied(read_index), op_id
            )
        if refusal is not None:
            if refusal["type"] == "redirect" and shard.is_leader:
                return await self._serve_safe_lin_get(request, shard)
            return refusal
        return _value_reply(shard, request.get("key"), lin=True, read="readindex")

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
        if not shard.lease_serveable():
            return await self._serve_readindex_get(request, shard)
        commit_index = shard.node.commit_index
        if shard.node.last_applied < commit_index:
            _, refusal = await self._await(
                shard, shard.wait_applied(commit_index), request["id"]
            )
            if refusal is not None:
                return refusal
            if not shard.lease_serveable():
                # The lease lapsed while we waited for the applied index.
                return await self._serve_readindex_get(request, shard)
        return _value_reply(
            shard, request.get("key"), lin=True, read="lease",
            lease_remaining=shard.lease_remaining(),
        )

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
            return _refused("staleness must be a finite number >= 0")
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
        return _value_reply(shard, key, read="follower", staleness=staleness)

    def _redirect(self, shard: KVShard) -> Dict[str, Any]:
        leader = shard.leader_hint
        if leader is None or leader == self.pid:
            leader = host = port = None
        else:
            spec = self.cluster[leader]
            host, port = spec.host, spec.client_port
        return {
            "type": "redirect", "leader": leader, "host": host, "port": port,
            "shard": shard.shard_id,
        }


def _refused(reason: str) -> Dict[str, Any]:
    """The answer to a request no retry can fix: the request is wrong.
    Transient failures (a commit timeout, a stale replica) stay ``error``
    replies, which clients retry."""
    return {"type": "refused", "reason": reason}


def _value_reply(shard: KVShard, key: Any, **extra: Any) -> Dict[str, Any]:
    """A ``value`` answer for ``key`` from ``shard``'s applied state;
    ``extra`` adds fields or overrides them."""
    data = shard.node.machine.data
    return {
        "type": "value", "key": key, "found": key in data,
        "value": data.get(key), "applied": shard.node.last_applied,
        "leader": shard.leader_hint, "shard": shard.shard_id, **extra,
    }

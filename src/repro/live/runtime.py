"""The live cluster runtime: simulator semantics over real TCP.

:class:`LiveRuntime` drives **one** process generator — the same
:class:`~repro.sim.process.Process` coroutines the discrete-event
simulators execute — against real asyncio sockets and wall-clock timers.
Each cluster node runs one ``LiveRuntime`` (one per OS process in a real
deployment; the test harness runs several inside one event loop, which
exercises the identical socket path).

Operation mapping (versus :class:`~repro.sim.async_runtime.AsyncRuntime`):

=================  ====================================================
``Send``           wire-encode and queue on the peer link
``Broadcast``      one ``Send`` per cluster member (self included by
                   default, delivered through the local mailbox)
``Receive``        :func:`repro.sim.ops.match_mailbox` over the local
                   mailbox — the *same* matcher the simulator uses —
                   awaiting new deliveries when unsatisfied
``SetTimer``       ``loop.call_later`` delivering a ``TimerFired``
                   payload through the mailbox, with the simulator's
                   re-arm/cancel generation semantics
``Decide``         recorded with decision irrevocability enforced
``Annotate``       recorded
``Halt``           stops driving the generator
=================  ====================================================

The runtime's :class:`~repro.sim.trace.Trace` stores nothing; its
listeners see every event (the harness collects them per node).  Time in
an event is wall-clock seconds since the runtime's ``epoch`` (shared
across nodes by the harness), so the existing metrics, ``describe_run``
and the Section-2 property checkers consume live traces unchanged —
decision latencies simply come out in seconds instead of virtual time
units.
"""

from __future__ import annotations

import asyncio
import logging
import random
from typing import Any, Callable, Dict, Optional, Sequence

from repro.core.runtime import Runtime, current_runtime
from repro.live import codec  # noqa: F401  (registers the wire types)
from repro.live.config import ClusterConfig
from repro.live.transport import PeerTransport
from repro.sim import trace as tr
from repro.sim.messages import Envelope, Message, Pid
from repro.sim.ops import (
    Annotate,
    Broadcast,
    CancelTimer,
    Decide,
    Halt,
    Op,
    Receive,
    Send,
    SetTimer,
    TimerFired,
    match_mailbox,
)
from repro.sim.process import Process, ProcessAPI

_UNDECIDED = object()

logger = logging.getLogger("repro.live")


class LiveRuntimeError(RuntimeError):
    """Protocol violation under the live runtime (e.g. deciding twice)."""


class _Halted(Exception):
    """Internal: the process yielded ``Halt``."""


def derive_process_seed(seed: int, pid: Pid, n: int) -> int:
    """Per-process RNG seed — the exact derivation ``AsyncRuntime`` uses.

    Keeping the derivation identical means a process's private randomness
    (Ben-Or coins, Raft election timeouts) is the same function of
    ``(seed, pid)`` in simulation and live execution.
    """
    master = random.Random(seed)
    seeds = [master.randrange(2**63) for _ in range(n)]
    return seeds[pid]


class LiveRuntime:
    """Run one process of a cluster over real sockets.

    Args:
        process: the algorithm coroutine (unmodified simulator process).
        cluster: full cluster membership; ``cluster.n`` is the algorithm's
            ``n``.
        pid: this node's pid.
        init_value: the process's consensus input.
        t: resilience parameter (defaults to ``(n - 1) // 2``).
        seed: run seed; the process RNG derivation matches the simulator.
        observers: trace listeners (online property checkers plug in here,
            exactly as on the simulated runtimes).
        epoch: ``time.monotonic()`` origin for trace timestamps; pass one
            shared value to every node so merged traces are on one axis.
        transport: pre-built :class:`PeerTransport` (the sharded KV server
            shares one across all its groups); by default the runtime owns
            its own.
        transport_options: kwargs forwarded to the default transport.
        shard: this runtime's Raft-group id when several groups share one
            transport.  Outbound frames are tagged with it and inbound
            frames for it are routed here (default 0).
        storage: the process's durable storage
            (:class:`repro.storage.engine.RaftStorage`), if any.  The
            runtime is its **sync barrier**: before any message leaves
            for a peer, dirty storage is synced — Raft's persist-before-
            responding rule.  A leader therefore fsyncs its appended
            entries before broadcasting them, a follower before acking
            them, and a voter before granting a vote, while everything
            journalled between barriers shares one fsync (group commit).
    """

    def __init__(
        self,
        process: Process,
        cluster: ClusterConfig,
        pid: Pid,
        *,
        init_value: Any = None,
        t: Optional[int] = None,
        seed: int = 0,
        observers: Sequence[tr.TraceListener] = (),
        epoch: Optional[float] = None,
        transport: Optional[PeerTransport] = None,
        transport_options: Optional[Dict[str, Any]] = None,
        shard: int = 0,
        storage: Optional[Any] = None,
        wire_filter: Optional[Callable[[Any], bool]] = None,
        runtime: Optional[Runtime] = None,
    ):
        n = cluster.n
        if not 0 <= pid < n:
            raise ValueError(f"pid {pid} outside cluster of {n}")
        self.process = process
        self.cluster = cluster
        self.pid = pid
        self.n = n
        self.t = t if t is not None else (n - 1) // 2
        self.seed = seed
        #: Stores nothing, so a node's memory does not grow with uptime;
        #: listeners (``observers``) still see every event.
        self.trace = tr.Trace(tuple(observers), record=False)
        #: The runtime seam (:mod:`repro.core.runtime`): supplies the
        #: clock and timers — wall time in production, virtual time under
        #: deterministic simulation.
        self.runtime = runtime if runtime is not None else current_runtime()
        self._epoch = self.runtime.now() if epoch is None else epoch
        self.api = ProcessAPI(
            pid, n, self.t, init_value,
            random.Random(derive_process_seed(seed, pid, n)),
        )
        if shard < 0:
            raise ValueError(f"shard must be >= 0, got {shard}")
        self.shard = shard
        self._storage = storage
        self._wire_filter = wire_filter
        #: Peer frames rejected by ``wire_filter`` — a non-zero count
        #: means a peer is speaking a different consensus engine (or a
        #: foreign protocol) on this shard.  Exposed in KV ``status``.
        self.foreign_frames = 0
        self._foreign_seen: set = set()
        options = dict(transport_options or {})
        options.setdefault("jitter_seed", derive_process_seed(seed, pid, n) ^ 1)
        options.setdefault("runtime", self.runtime)
        self.transport = transport or PeerTransport(
            cluster, pid,
            on_event=self._on_transport_event, **options,
        )
        self.transport.add_handler(shard, self._on_peer_message)
        self._owns_transport = transport is None
        self._mailbox: list = []
        self._mail_event = asyncio.Event()
        self._timer_gen: Dict[str, int] = {}
        self._timer_handles: Dict[str, asyncio.TimerHandle] = {}
        self._seq = 0
        self._decided: Any = _UNDECIDED
        #: Resolved with the decided value on the first ``Decide`` —
        #: created in :meth:`start` (needs the running event loop).
        self.decided: Optional["asyncio.Future[Any]"] = None
        self.halted = False
        self._driver: Optional[asyncio.Task] = None
        self._gen = None
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Runtime-clock seconds since the shared epoch.

        Wall clock under :class:`~repro.core.runtime.AsyncioRuntime`,
        virtual time under :class:`~repro.core.runtime.SimRuntime`.
        """
        return self.runtime.now() - self._epoch

    async def start(self, *, restart: bool = False) -> None:
        """Open the transport and start driving the process generator.

        With ``restart=True`` the process's
        :meth:`~repro.sim.process.Process.on_restart` hook runs first and a
        ``RESTART`` event is recorded — the live analogue of the
        simulator's crash-restart path (durable state on ``self`` survives,
        generator-local state is lost).
        """
        if self.decided is None:
            self.decided = asyncio.get_event_loop().create_future()
        if self._owns_transport:
            await self.transport.start()
        if restart:
            self.process.on_restart(self.api)
            self.trace.record(self.now, tr.RESTART, self.pid)
        self._running = True
        self._driver = asyncio.ensure_future(self._drive())

    async def stop(self, *, crash: bool = False) -> None:
        """Stop driving and close the transport.

        ``crash=True`` records a ``CRASH`` trace event and skips nothing
        else — an abrupt kill and a graceful shutdown look identical on the
        wire (the sockets just die), which is exactly what peers must
        tolerate.
        """
        self._running = False
        if self._driver is not None:
            self._driver.cancel()
            try:
                await self._driver
            except (asyncio.CancelledError, Exception):
                pass
            self._driver = None
        if self._gen is not None:
            self._gen.close()
            self._gen = None
        for handle in self._timer_handles.values():
            handle.cancel()
        self._timer_handles.clear()
        if crash:
            self.trace.record(self.now, tr.CRASH, self.pid)
        if self._owns_transport:
            await self.transport.stop()

    async def wait_decided(self, timeout: Optional[float] = None) -> Any:
        """Block until this node decides; returns the decided value."""
        if self.decided is None:
            raise LiveRuntimeError("runtime not started")
        return await asyncio.wait_for(asyncio.shield(self.decided), timeout)

    def decisions(self) -> Dict[Pid, Any]:
        """This node's decision as a map (mirrors the simulator API)."""
        if self._decided is _UNDECIDED:
            return {}
        return {self.pid: self._decided}

    # ------------------------------------------------------------------
    # Inbound paths
    # ------------------------------------------------------------------

    def inject(self, payload: Any, src: Optional[Pid] = None) -> None:
        """Deliver ``payload`` to the local mailbox as if received.

        This is the hook local services (the KV server's client frontend)
        use to talk to their co-located process without a loopback socket.
        """
        self._deliver(self.pid if src is None else src, payload, self.now)

    def _on_peer_message(
        self, src: Pid, payload: Any, send_time: Optional[float]
    ) -> None:
        if self._wire_filter is not None and not self._wire_filter(payload):
            # A mixed-engine cluster: the frame decoded fine but belongs
            # to a different consensus protocol.  Fail loudly — count,
            # log once per (peer, type), and drop, so the misconfigured
            # node visibly makes no progress instead of half-interoperating.
            self.foreign_frames += 1
            key = (src, type(payload).__name__)
            if key not in self._foreign_seen:
                self._foreign_seen.add(key)
                logger.warning(
                    "pid %d shard %d: rejecting foreign wire frame %s "
                    "from peer %d — engine mismatch? (%d rejected so far)",
                    self.pid, self.shard, key[1], src, self.foreign_frames,
                )
            return
        self._deliver(src, payload, send_time)

    def _deliver(self, src: Pid, payload: Any, send_time: Optional[float]) -> None:
        if not self._running:
            return
        now = self.now
        envelope = Envelope(
            Message(src, self.pid, payload),
            send_time if send_time is not None else now,
            now,
            self._next_seq(),
        )
        self.trace.record(now, tr.DELIVER, self.pid, envelope)
        self._mailbox.append(envelope)
        self._mail_event.set()

    def _on_transport_event(self, kind: str, peer: Pid) -> None:
        self.trace.record(
            self.now,
            tr.CONNECT if kind == "connect" else tr.DISCONNECT,
            self.pid,
            peer,
        )

    # ------------------------------------------------------------------
    # Driving the generator
    # ------------------------------------------------------------------

    #: Ops a driver may perform per scheduling slot.  One full pass through
    #: the asyncio ready queue per op starves protocol processing under
    #: load (followers miss election deadlines); running without limit
    #: starves everyone else when a mailbox is backlogged.
    OPS_PER_SLOT = 64

    async def _drive(self) -> None:
        self._gen = self.process.run(self.api)
        value: Any = None
        ops_since_yield = 0
        try:
            while True:
                if not self._running:
                    # stop() raced with a completing await and the cancel
                    # was swallowed (wait_for's completion/cancel race);
                    # exit without recording a HALT.
                    return
                self.api.now = self.now
                try:
                    op = self._gen.send(value)
                except StopIteration:
                    break
                value = None
                if isinstance(op, Receive):
                    if op.count < 1:
                        raise LiveRuntimeError("Receive.count must be >= 1")
                    matched = match_mailbox(self._mailbox, op)
                    if matched is None:
                        ops_since_yield = 0
                        value = await self._await_receive(op)
                    else:
                        value = matched
                        ops_since_yield += 1
                else:
                    self._perform(op)
                    ops_since_yield += 1
                if ops_since_yield >= self.OPS_PER_SLOT:
                    ops_since_yield = 0
                    await asyncio.sleep(0)
        except _Halted:
            pass
        except asyncio.CancelledError:
            raise
        self.halted = True
        self.trace.record(self.now, tr.HALT, self.pid)

    async def _await_receive(self, op: Receive) -> list:
        while True:
            matched = match_mailbox(self._mailbox, op)
            if matched is not None:
                return matched
            self._mail_event.clear()
            await self._mail_event.wait()

    def _perform(self, op: Op) -> None:
        if isinstance(op, Send):
            self._post(op.dst, op.payload)
        elif isinstance(op, Broadcast):
            for dst in range(self.n):
                if dst == self.pid and not op.include_self:
                    continue
                self._post(dst, op.payload)
        elif isinstance(op, SetTimer):
            if op.delay < 0:
                raise LiveRuntimeError("timer delay must be >= 0")
            gen = self._timer_gen.get(op.name, 0) + 1
            self._timer_gen[op.name] = gen
            pending = self._timer_handles.pop(op.name, None)
            if pending is not None:
                pending.cancel()
            self._timer_handles[op.name] = self.runtime.call_later(
                op.delay, self._fire_timer, op.name, gen
            )
        elif isinstance(op, CancelTimer):
            self._timer_gen[op.name] = self._timer_gen.get(op.name, 0) + 1
            pending = self._timer_handles.pop(op.name, None)
            if pending is not None:
                pending.cancel()
        elif isinstance(op, Decide):
            if self._decided is not _UNDECIDED and self._decided != op.value:
                raise LiveRuntimeError(
                    f"process {self.pid} decided {op.value!r} "
                    f"after {self._decided!r}"
                )
            if self._decided is _UNDECIDED:
                self._decided = op.value
                self.trace.record(self.now, tr.DECIDE, self.pid, op.value)
                if self.decided is not None and not self.decided.done():
                    self.decided.set_result(op.value)
        elif isinstance(op, Annotate):
            self.trace.record(self.now, tr.ANNOTATE, self.pid, (op.key, op.value))
        elif isinstance(op, Halt):
            raise _Halted()
        else:
            raise LiveRuntimeError(
                f"operation {op!r} is not valid under the live runtime "
                f"(synchronous Exchange ops need the round-based simulator)"
            )

    def _fire_timer(self, name: str, gen: int) -> None:
        if not self._running or self._timer_gen.get(name, 0) != gen:
            return
        self._timer_handles.pop(name, None)
        self.trace.record(self.now, tr.TIMER, self.pid, name)
        envelope = Envelope(
            Message(self.pid, self.pid, TimerFired(name)),
            self.now,
            self.now,
            self._next_seq(),
        )
        self._mailbox.append(envelope)
        self._mail_event.set()

    def _post(self, dst: Pid, payload: Any) -> None:
        now = self.now
        envelope = Envelope(Message(self.pid, dst, payload), now, now, self._next_seq())
        self.trace.record(now, tr.SEND, self.pid, envelope)
        if dst == self.pid:
            self.trace.record(now, tr.DELIVER, self.pid, envelope)
            self._mailbox.append(envelope)
            self._mail_event.set()
        else:
            # Durability barrier: nothing reaches a peer before the
            # durable state backing it is on disk.  Under the inline
            # sync mode the barrier fsyncs here and the send happens
            # immediately; under the pipelined mode the fsync runs on
            # the storage's worker thread and the send is queued on the
            # durability watermark, released in order once the fsync
            # covering this message's storage generation completes.
            storage = self._storage
            if storage is None:
                self.transport.send(dst, payload, now, shard=self.shard)
                return
            if storage.dirty:
                storage.begin_sync()
            storage.notify_durable(
                storage.generation,
                lambda: self.transport.send(dst, payload, now, shard=self.shard),
            )

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

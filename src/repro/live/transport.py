"""Peer-to-peer TCP transport for one live cluster node.

Connection model
----------------
Each node runs one listening socket (its peer port) and one *outbound*
connection per peer, used only for sending; inbound connections are used
only for receiving.  A pair of nodes therefore shares two sockets, one per
direction — wasteful by a socket, but it makes connection ownership trivial
and reconnection races impossible.

Outbound connections identify themselves with a ``hello`` frame carrying
the sender's pid, then carry ``msg`` frames (a wire-encoded payload plus
the sender's send timestamp) and ``ping`` heartbeats whenever the link has
been idle for a heartbeat interval.  Lost connections are re-dialed with
exponential backoff plus jitter; messages queued while a peer is down are
buffered up to ``max_queue`` and the oldest are dropped beyond that —
matching the asynchronous model's lossy-link assumption, which every
algorithm in the library already tolerates.

The transport never inspects payloads; loss, duplication (none today) and
reordering semantics are exactly those of the underlying TCP streams plus
the drop-oldest overflow rule.

Fault injection
---------------
Chaos tests (:mod:`repro.chaos`) inject link faults *at this layer*, so a
partition looks to the algorithms exactly like loss on an otherwise
healthy TCP stream.  :meth:`PeerTransport.set_link_fault` installs a
per-link :class:`LinkFault` — probabilistic drop, total black-hole, or
extra one-way delay — in either direction (``out`` applies where this
node sends, ``in`` where it receives), and :meth:`PeerTransport.heal_link`
clears it.  Setting a fault is idempotent (the new fault replaces the
old), per-link delay is order-preserving (constant-delay ``call_later``
dispatch, FIFO at equal deadlines), and dropped frames are counted in
``stats.faulted``.  Heartbeats are subject to faults like any other
frame, so a black-holed link also goes idle-dead — exactly a partition.

Sharding
--------
One transport (one socket pair per peer) carries every Raft group a node
hosts: each ``msg`` frame is tagged with its shard id (see
:mod:`repro.live.wire`) and inbound frames are demultiplexed to the
handler registered for that shard via :meth:`PeerTransport.add_handler`.
Frames for a shard with no handler are counted (``stats.unrouted``) and
dropped, which is just message loss to the algorithms.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.runtime import Runtime, current_runtime
from repro.live.config import ClusterConfig
from repro.live.wire import (
    FrameError,
    encode_peer_frame,
    encode_peer_frame_into,
    enable_nodelay,
    parse_peer_frame,
    read_frame_bytes,
    decode_body,
)
from repro.sim.serialize import WireError

#: on_message(src_pid, payload, sender_elapsed_time_or_None)
MessageHandler = Callable[[int, Any, Optional[float]], None]
#: on_event("connect" | "disconnect", peer_pid)
EventHandler = Callable[[str, int], None]

#: Failures that end one connection (it is dropped, or re-dialed) and
#: nothing else: a frame that cannot be decoded is one of them.
_RECOVERABLE = (
    ConnectionError, OSError, asyncio.IncompleteReadError, FrameError, WireError
)

#: Valid ``direction`` values for :meth:`PeerTransport.set_link_fault`.
FAULT_DIRECTIONS = ("both", "in", "out")


class LinkFault:
    """One direction of one peer link's injected misbehaviour.

    Args:
        drop: probability in ``[0, 1]`` that any one frame is discarded.
        blackhole: discard *every* frame (a partition; implies ``drop=1``).
        delay: extra one-way latency, in seconds, added to received frames
            (applied on the inbound side only — outbound frames are
            coalesced into shared socket writes, so delaying them would
            stall innocent traffic behind the fault).
    """

    __slots__ = ("drop", "blackhole", "delay")

    def __init__(
        self, *, drop: float = 0.0, blackhole: bool = False, delay: float = 0.0
    ):
        if not 0.0 <= drop <= 1.0:
            raise ValueError(f"drop must be in [0, 1], got {drop}")
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.drop = drop
        self.blackhole = blackhole
        self.delay = delay

    def discards(self, rng: random.Random) -> bool:
        """Whether this fault discards the next frame."""
        if self.blackhole:
            return True
        return self.drop > 0.0 and rng.random() < self.drop

    def __repr__(self) -> str:
        return (
            f"LinkFault(drop={self.drop}, blackhole={self.blackhole}, "
            f"delay={self.delay})"
        )


class TransportStats:
    """Counters exposed for benchmarks and debugging.

    ``bytes_sent`` / ``bytes_received`` count frame bytes including the
    4-byte length prefixes — what actually crosses the socket — so
    benchmarks can report replication bytes per committed entry.
    """

    __slots__ = (
        "sent",
        "received",
        "dropped",
        "reconnects",
        "pings",
        "bytes_sent",
        "bytes_received",
        "writes",
        "max_batch_frames",
        "unrouted",
        "faulted",
    )

    def __init__(self) -> None:
        self.sent = 0
        self.received = 0
        self.dropped = 0
        self.reconnects = 0
        self.pings = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.writes = 0
        self.max_batch_frames = 0
        self.unrouted = 0
        self.faulted = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class PeerTransport:
    """Manage all peer links of node ``pid`` in cluster ``cluster``.

    Args:
        cluster: full membership (this node's listen address included).
        pid: this node's pid.
        on_message: handler for shard 0, the same as
            ``add_handler(0, on_message)`` (``None`` when handlers are
            registered later with :meth:`add_handler` — the KV server
            does this).
        on_event: optional connect/disconnect notifications (the live
            runtime records them into the trace).
        heartbeat_interval: idle time after which a ``ping`` frame is sent
            on an outbound link.
        idle_timeout: receiving side drops a connection silent for this
            long (the peer's writer will re-dial).  Defaults to eight
            heartbeat intervals; ``0`` disables the check.
        connect_timeout: per-dial timeout.
        reconnect_base / reconnect_max: exponential-backoff bounds.
        max_queue: per-peer buffer of undelivered payloads.
        max_coalesce_bytes: outbound frames queued behind one another are
            packed into a single socket write up to this many bytes (one
            syscall and one drain for a whole replication burst).
        link_delay: artificial one-way latency, in seconds, added to every
            received peer frame before it is dispatched (netem-style WAN
            emulation for benchmarks — localhost RTTs hide pipeline
            effects that dominate real deployments).  Per-link frame
            order is preserved; ``0`` (the default) adds no code to the
            hot path.
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        pid: int,
        on_message: Optional[MessageHandler] = None,
        *,
        on_event: Optional[EventHandler] = None,
        heartbeat_interval: float = 0.5,
        idle_timeout: Optional[float] = None,
        connect_timeout: float = 1.0,
        reconnect_base: float = 0.05,
        reconnect_max: float = 2.0,
        max_queue: int = 10_000,
        jitter_seed: Optional[int] = None,
        max_coalesce_bytes: int = 256 * 1024,
        link_delay: float = 0.0,
        runtime: Optional[Runtime] = None,
    ):
        self.cluster = cluster
        self.pid = pid
        #: The runtime seam: real asyncio sockets in production, the
        #: in-memory deterministic network under DST (see
        #: :mod:`repro.core.runtime`).
        self.runtime = runtime if runtime is not None else current_runtime()
        #: Inbound message handler per shard (see :meth:`add_handler`).
        self._handlers: Dict[int, MessageHandler] = {}
        if on_message is not None:
            self._handlers[0] = on_message
        self.on_event = on_event
        self.max_coalesce_bytes = max_coalesce_bytes
        self.heartbeat_interval = heartbeat_interval
        self.idle_timeout = (
            8 * heartbeat_interval if idle_timeout is None else idle_timeout
        )
        self.connect_timeout = connect_timeout
        self.reconnect_base = reconnect_base
        self.reconnect_max = reconnect_max
        self.max_queue = max_queue
        if link_delay < 0:
            raise ValueError(f"link_delay must be >= 0, got {link_delay}")
        self.link_delay = link_delay
        self.stats = TransportStats()
        self._rng = random.Random(jitter_seed)
        # Dedicated RNG for fault sampling, so injecting faults never
        # perturbs the reconnect-jitter stream (and vice versa).
        self._fault_rng = random.Random(
            None if jitter_seed is None else jitter_seed ^ 0x6E656D
        )
        self._send_faults: Dict[int, LinkFault] = {}
        self._recv_faults: Dict[int, LinkFault] = {}
        self._queues: Dict[int, Deque[Tuple[Any, Optional[float], int]]] = {}
        self._queue_events: Dict[int, asyncio.Event] = {}
        self._tasks: List[asyncio.Task] = []
        self._server: Optional[Any] = None
        self._inbound_tasks: List[asyncio.Task] = []
        self._inbound_writers: List[asyncio.StreamWriter] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        spec = self.cluster[self.pid]
        self._server = await self.runtime.start_server(
            self._handle_inbound, spec.host, spec.port
        )
        for peer in range(self.cluster.n):
            if peer == self.pid:
                continue
            self._queues[peer] = deque()
            self._queue_events[peer] = asyncio.Event()
            self._tasks.append(asyncio.ensure_future(self._outbound_loop(peer)))

    async def stop(self) -> None:
        """Graceful shutdown: stop dialing, close every socket."""
        self._closed = True
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        if self._server is not None:
            self._server.close()
        # End inbound handlers before wait_closed(): newer Pythons block
        # there until every connection handler has finished.
        for writer in list(self._inbound_writers):
            writer.close()
        for task in list(self._inbound_tasks):
            task.cancel()
        for task in list(self._inbound_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._inbound_tasks.clear()
        self._inbound_writers.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Shard demultiplexing
    # ------------------------------------------------------------------

    def add_handler(self, shard: int, handler: MessageHandler) -> None:
        """Register ``handler`` (replacing any) for inbound frames tagged
        with ``shard``."""
        if shard < 0:
            raise ValueError(f"shard must be >= 0, got {shard}")
        self._handlers[shard] = handler

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def set_link_fault(
        self,
        peer: int,
        *,
        drop: float = 0.0,
        blackhole: bool = False,
        delay: float = 0.0,
        direction: str = "both",
    ) -> None:
        """Install (replacing any existing) fault on the link to ``peer``.

        ``direction="out"`` affects frames this node *sends* to ``peer``,
        ``"in"`` frames it *receives* from ``peer``, ``"both"`` (default)
        both — so an asymmetric partition is one ``"out"`` black-hole.
        ``delay`` is enforced only on the inbound side (outbound frames
        coalesce into shared writes; see :class:`LinkFault`), so an
        ``"out"``-only delay is inert.  Idempotent: installing the same
        fault twice is one fault.
        """
        if direction not in FAULT_DIRECTIONS:
            raise ValueError(
                f"direction must be one of {FAULT_DIRECTIONS}, got {direction!r}"
            )
        fault = LinkFault(drop=drop, blackhole=blackhole, delay=delay)
        if direction in ("both", "out"):
            self._send_faults[peer] = fault
        if direction in ("both", "in"):
            self._recv_faults[peer] = fault

    def heal_link(self, peer: Optional[int] = None) -> None:
        """Clear faults on the link to ``peer`` (or every link).

        Idempotent: healing a healthy link is a no-op.  Frames already
        scheduled with an extra delay still arrive at their delayed time.
        """
        if peer is None:
            self._send_faults.clear()
            self._recv_faults.clear()
        else:
            self._send_faults.pop(peer, None)
            self._recv_faults.pop(peer, None)

    def link_faults(self) -> Dict[str, Dict[int, LinkFault]]:
        """The currently installed faults (for assertions and debugging)."""
        return {"out": dict(self._send_faults), "in": dict(self._recv_faults)}

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(
        self,
        dst: int,
        payload: Any,
        send_time: Optional[float] = None,
        *,
        shard: int = 0,
    ) -> None:
        """Queue ``payload`` for delivery to ``dst`` (fire-and-forget)."""
        if self._closed:
            return
        fault = self._send_faults.get(dst)
        if fault is not None and fault.discards(self._fault_rng):
            self.stats.faulted += 1
            return
        queue = self._queues.get(dst)
        if queue is None:
            raise ValueError(f"unknown peer {dst}")
        if len(queue) >= self.max_queue:
            queue.popleft()
            self.stats.dropped += 1
        queue.append((payload, send_time, shard))
        self._queue_events[dst].set()

    async def _outbound_loop(self, peer: int) -> None:
        spec = self.cluster[peer]
        queue = self._queues[peer]
        event = self._queue_events[peer]
        attempt = 0
        while not self._closed:
            writer = None
            try:
                reader, writer = await asyncio.wait_for(
                    self.runtime.open_connection(spec.host, spec.port),
                    timeout=self.connect_timeout,
                )
                enable_nodelay(writer)
                hello = encode_peer_frame("hello", pid=self.pid)
                writer.write(hello)
                self.stats.bytes_sent += len(hello)
                await writer.drain()
                attempt = 0
                self._notify("connect", peer)
                await self._pump(peer, queue, event, writer)
            except asyncio.CancelledError:
                raise
            except _RECOVERABLE:
                pass
            finally:
                if writer is not None:
                    self._notify("disconnect", peer)
                    writer.close()
            if self._closed:
                return
            self.stats.reconnects += 1
            # Exponential backoff with jitter in [0.5x, 1.5x].
            delay = min(self.reconnect_max, self.reconnect_base * 2**attempt)
            await self.runtime.sleep(delay * (0.5 + self._rng.random()))
            attempt += 1

    async def _pump(
        self,
        peer: int,
        queue: Deque[Tuple[Any, Optional[float], int]],
        event: asyncio.Event,
        writer: asyncio.StreamWriter,
    ) -> None:
        """The per-connection write scheduler; pings when idle.

        Writes are *vectored*: every frame queued at this moment (up to
        the ``max_coalesce_bytes`` flush budget) is serialized straight
        into one shared buffer — length prefixes patched in place, no
        per-frame ``bytes`` join — then written with a single ``write()``
        and drained once, so a replication burst costs one syscall
        instead of one per message.  Frames beyond the budget stay
        queued for the next tick, keeping any one peer from monopolizing
        the loop.
        """
        # Checked every iteration rather than relying on cancellation:
        # ``wait_for`` can swallow a cancel that races with the awaited
        # future completing, leaving this task alive after ``stop()``.
        stats = self.stats
        budget = self.max_coalesce_bytes
        while not self._closed:
            if not queue:
                event.clear()
                try:
                    await asyncio.wait_for(
                        event.wait(), timeout=self.heartbeat_interval
                    )
                except asyncio.TimeoutError:
                    fault = self._send_faults.get(peer)
                    if fault is not None and fault.discards(self._fault_rng):
                        # A black-holed link loses its heartbeats too, so
                        # the peer's idle timeout really fires — the link
                        # looks dead, exactly like a partition.
                        self.stats.faulted += 1
                        continue
                    ping = encode_peer_frame("ping")
                    writer.write(ping)
                    stats.pings += 1
                    stats.bytes_sent += len(ping)
                    stats.writes += 1
                    await writer.drain()
                    continue
            buffer = bytearray()
            frames = 0
            while queue and len(buffer) < budget:
                payload, send_time, shard = queue.popleft()
                encode_peer_frame_into(
                    buffer, "msg", payload=payload, ts=send_time, shard=shard
                )
                frames += 1
            stats.sent += frames
            if frames > stats.max_batch_frames:
                stats.max_batch_frames = frames
            stats.bytes_sent += len(buffer)
            stats.writes += 1
            # Hand the buffer over without a copy; a fresh one is built
            # next tick, so the transport may keep this one as long as it
            # likes.
            writer.write(buffer)
            await writer.drain()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    async def _handle_inbound(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._inbound_tasks.append(task)
        self._inbound_writers.append(writer)
        enable_nodelay(writer)
        src: Optional[int] = None
        try:
            body = await asyncio.wait_for(
                read_frame_bytes(reader), timeout=self.connect_timeout * 4
            )
            self.stats.bytes_received += len(body) + 4
            kind, src, _, _ = parse_peer_frame(decode_body(body))
            if kind != "hello" or not isinstance(src, int):
                return
            while not self._closed:
                if self.idle_timeout:
                    body = await asyncio.wait_for(
                        read_frame_bytes(reader), timeout=self.idle_timeout
                    )
                else:
                    body = await read_frame_bytes(reader)
                self.stats.bytes_received += len(body) + 4
                kind, payload, ts, shard = parse_peer_frame(decode_body(body))
                if kind == "msg":
                    self.stats.received += 1
                    fault = self._recv_faults.get(src)
                    if fault is not None and fault.discards(self._fault_rng):
                        self.stats.faulted += 1
                        continue
                    handler = self._handlers.get(shard)
                    delay = self.link_delay + (
                        fault.delay if fault is not None else 0.0
                    )
                    if handler is None:
                        self.stats.unrouted += 1
                    elif delay:
                        # call_later is FIFO at equal delays, so per-link
                        # frame order survives the emulated (and injected)
                        # latency as long as the delay stays constant.
                        self.runtime.call_later(delay, handler, src, payload, ts)
                    else:
                        handler(src, payload, ts)
        except asyncio.CancelledError:
            # End quietly: asyncio's stream protocol logs handler tasks
            # that finish in the cancelled state.
            pass
        except (asyncio.TimeoutError, *_RECOVERABLE):
            pass
        finally:
            writer.close()
            if writer in self._inbound_writers:
                self._inbound_writers.remove(writer)
            if task is not None and task in self._inbound_tasks:
                self._inbound_tasks.remove(task)

    def _notify(self, kind: str, peer: int) -> None:
        if self.on_event is not None:
            try:
                self.on_event(kind, peer)
            except Exception:  # pragma: no cover - observer bugs stay local
                pass

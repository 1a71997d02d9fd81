"""The runtime seam: one interface, real asyncio or deterministic simulation.

The live stack (:mod:`repro.live`) is written against plain asyncio —
``asyncio.sleep``, ``asyncio.open_connection``, ``asyncio.start_server``,
``loop.call_later`` — which makes its schedules real-time and therefore
unexplorable by the DST machinery from :mod:`repro.dst`.  This module
closes that gap with a *runtime seam* in the spirit of the paper's
object-oriented decomposition: the production code asks an abstract
:class:`Runtime` for time, timers, and byte streams, and two
interchangeable implementations answer.

* :class:`AsyncioRuntime` — the pass-through.  ``now()`` is
  ``time.monotonic()``, connections are real TCP sockets.  Production
  behaviour is unchanged.

* :class:`SimRuntime` — deterministic virtual time.  It owns a
  :class:`SimLoop`, a real ``asyncio.SelectorEventLoop`` whose selector
  never touches the OS: ``select(timeout)`` simply *advances a virtual
  clock* by ``timeout`` and reports no I/O.  Every asyncio primitive the
  production code uses — sleeps, ``call_later`` timers, futures, locks,
  ``wait_for`` — runs unmodified on this loop, but in virtual time, in a
  deterministic order.  Connections come from :class:`SimNetwork`, an
  in-memory message fabric with fixed per-write latency.

Because ``SimLoop`` *is* an asyncio event loop, the seam only has to
abstract the five things a virtual loop cannot fake by itself:

1. the wall clock (``Runtime.now``),
2. stream creation (``open_connection`` / ``start_server``),
3. TCP socket options (``get_extra_info("socket")`` returns ``None``),
4. port allocation (no OS sockets are ever bound),
5. the disk's sync point (``Runtime.fsync``): a real ``os.fsync`` the
   WAL barrier runs on a worker thread, or — under simulation — none at
   all, the barrier being a bookkeeping step.

Everything else — including the KV shard's batching timers and the
transport's reconnect backoff — flows through unchanged.

A module-level default (:func:`current_runtime` / :func:`use_runtime`)
lets deeply nested code find the ambient runtime without threading a
parameter through every constructor; classes still accept an explicit
``runtime=`` for tests.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import selectors
import sys
import time
from collections import deque
from typing import Any, Awaitable, Callable, Deque, Dict, List, Optional, Tuple, TypeVar

__all__ = [
    "AsyncioRuntime",
    "Runtime",
    "SimLoop",
    "SimNetwork",
    "SimRuntime",
    "SimStarvationError",
    "current_runtime",
    "use_runtime",
    "wall_fsync",
    "within",
]

T = TypeVar("T")


# --------------------------------------------------------------------------
# The interface
# --------------------------------------------------------------------------


def wall_fsync(fd: int) -> None:
    """Make the bytes written to ``fd`` durable: the real ``os.fsync``.

    The one place ``src/repro`` calls it.  ``os.fsync`` is looked up on
    each call, so a test that patches it after a storage was built still
    sees every sync.
    """
    os.fsync(fd)


class Runtime:
    """What the live stack needs from the world: time, timers, and streams.

    All methods that touch the event loop must be called from within a
    running coroutine (or, for ``call_later``/``call_soon``, from loop
    callbacks) — the same contract asyncio itself imposes.
    """

    name = "abstract"

    #: The disk's sync point: where a durability barrier's fsync runs,
    #: and whether one runs at all.  On a real clock it is
    #: :func:`wall_fsync`, and the WAL barrier calls it on a worker
    #: thread so the stall overlaps the loop's work.  ``None`` under
    #: virtual time, which has no disk latency to overlap: a barrier is
    #: a sync point by bookkeeping alone, inline — the WAL's synced
    #: offset and the durability watermark advance, no syscall is made.
    #: Nothing in a simulation reads what the kernel flushed: power
    #: failure is :meth:`repro.storage.wal.Wal.crash` truncating to that
    #: offset.
    fsync: Optional[Callable[[int], None]] = staticmethod(wall_fsync)

    # -- time ---------------------------------------------------------
    def now(self) -> float:
        """A monotonic clock, in seconds.  Virtual under simulation."""
        raise NotImplementedError

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)

    # -- scheduling ---------------------------------------------------
    def spawn(self, coro: Awaitable[Any]) -> "asyncio.Task[Any]":
        return asyncio.ensure_future(coro)

    def call_later(self, delay: float, callback: Callable[..., Any],
                   *args: Any) -> asyncio.TimerHandle:
        return asyncio.get_event_loop().call_later(delay, callback, *args)

    def call_soon(self, callback: Callable[..., Any],
                  *args: Any) -> asyncio.Handle:
        return asyncio.get_event_loop().call_soon(callback, *args)

    def create_future(self) -> "asyncio.Future[Any]":
        return asyncio.get_event_loop().create_future()

    # -- streams ------------------------------------------------------
    async def open_connection(
        self, host: str, port: int
    ) -> Tuple[asyncio.StreamReader, Any]:
        raise NotImplementedError

    async def start_server(
        self,
        client_connected_cb: Callable[..., Any],
        host: str,
        port: int,
    ) -> Any:
        raise NotImplementedError

    # -- entry point --------------------------------------------------
    def run(self, coro: Awaitable[Any], *, timeout: Optional[float] = None) -> Any:
        """Run ``coro`` to completion on this runtime and return its result."""
        raise NotImplementedError


#: ``Task.uncancel`` exists from 3.11 on; 3.10 keeps no cancel count.
_UNCANCEL = sys.version_info >= (3, 11)


async def within(awaitable: Awaitable[T], timeout: Optional[float]) -> T:
    """Await ``awaitable`` in the current task for at most ``timeout`` seconds.

    The per-request deadline of the live stack.  Unlike
    ``asyncio.wait_for`` before 3.12 it makes no task and no waiter
    future, so it costs no extra loop turn: it arms one timer on the
    running loop (not :meth:`Runtime.call_later`, whose calls are
    counted as the stack's own timers), and on expiry cancels the
    current task and raises ``asyncio.TimeoutError``.  An awaited future
    is cancelled with it.  A cancel from outside still raises
    ``CancelledError``, and a timer that fires after the awaited call
    finished, but before this task resumed, counts as a timeout — both
    as under ``asyncio.timeout``.  ``timeout=None`` is a plain await.
    """
    if timeout is None:
        return await awaitable
    task = asyncio.current_task()
    assert task is not None, "within() needs a running task"
    prior = task.cancelling() if _UNCANCEL else 0
    expired = False

    def expire() -> None:
        nonlocal expired
        expired = True
        task.cancel()

    handle = task.get_loop().call_later(timeout, expire)
    try:
        result = await awaitable
    except asyncio.CancelledError:
        # Our own cancel becomes the timeout; one also requested from
        # outside (visible on 3.11+ as a higher cancel count) wins.
        if expired and not (_UNCANCEL and task.uncancel() > prior):
            raise asyncio.TimeoutError from None
        raise
    finally:
        handle.cancel()
    if expired and _UNCANCEL:
        task.uncancel()  # the awaited call swallowed our cancel
    return result


class AsyncioRuntime(Runtime):
    """The production pass-through: real time, real sockets."""

    name = "asyncio"

    def now(self) -> float:
        return time.monotonic()

    async def open_connection(
        self, host: str, port: int
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await asyncio.open_connection(host, port)

    async def start_server(
        self,
        client_connected_cb: Callable[..., Any],
        host: str,
        port: int,
    ) -> asyncio.AbstractServer:
        return await asyncio.start_server(client_connected_cb, host, port)

    def run(self, coro: Awaitable[Any], *, timeout: Optional[float] = None) -> Any:
        if timeout is not None:
            coro = asyncio.wait_for(coro, timeout)
        with use_runtime(self):
            return asyncio.run(coro)


# --------------------------------------------------------------------------
# The virtual-time event loop
# --------------------------------------------------------------------------


class SimStarvationError(RuntimeError):
    """The simulated loop has nothing runnable and no pending timer.

    Under real asyncio this situation blocks in ``select()`` waiting for
    I/O; under simulation there is no I/O to wait for, so it means the
    program deadlocked — every task is awaiting something that no timer
    will ever complete.
    """


class _SimClock:
    __slots__ = ("time",)

    def __init__(self) -> None:
        self.time = 0.0

    def advance(self, delta: float) -> None:
        if delta > 0:
            self.time += delta


class _VirtualSelector(selectors.BaseSelector):
    """A selector that never blocks: ``select(t)`` advances virtual time.

    The event loop registers its self-pipe here; nothing is ever ready,
    which is exactly right — all wakeups in the simulation come from
    timers and ``call_soon``, never from I/O.
    """

    def __init__(self, clock: _SimClock) -> None:
        self._clock = clock
        self._map: Dict[int, selectors.SelectorKey] = {}

    def register(self, fileobj: Any, events: int,
                 data: Any = None) -> selectors.SelectorKey:
        key = selectors.SelectorKey(
            fileobj, self._fileobj_fd(fileobj), events, data
        )
        self._map[key.fd] = key
        return key

    def unregister(self, fileobj: Any) -> selectors.SelectorKey:
        return self._map.pop(self._fileobj_fd(fileobj))

    def modify(self, fileobj: Any, events: int,
               data: Any = None) -> selectors.SelectorKey:
        key = self.unregister(fileobj)
        return self.register(fileobj, events, data)

    def select(
        self, timeout: Optional[float] = None
    ) -> List[Tuple[selectors.SelectorKey, int]]:
        if timeout is None:
            raise SimStarvationError(
                "simulated event loop starved: no runnable task and no "
                "pending timer (every coroutine is blocked on an event "
                "that will never fire)"
            )
        self._clock.advance(timeout)
        return []

    def close(self) -> None:
        self._map.clear()

    def get_key(self, fileobj: Any) -> selectors.SelectorKey:
        return self._map[self._fileobj_fd(fileobj)]

    def get_map(self) -> Dict[int, selectors.SelectorKey]:
        return self._map

    @staticmethod
    def _fileobj_fd(fileobj: Any) -> int:
        if isinstance(fileobj, int):
            return fileobj
        return int(fileobj.fileno())


class SimLoop(asyncio.SelectorEventLoop):
    """A real asyncio event loop running on a virtual clock.

    ``time()`` reads the virtual clock, and the selector advances it by
    exactly the loop's computed poll timeout — i.e. straight to the next
    scheduled timer.  A million simulated seconds of heartbeats run in
    milliseconds of wall time, and the callback order is a pure function
    of the program, not of the OS scheduler.
    """

    def __init__(self) -> None:
        self._sim_clock = _SimClock()
        super().__init__(selector=_VirtualSelector(self._sim_clock))

    def time(self) -> float:
        return self._sim_clock.time

    # Clamp asyncio's debug slow-callback warnings off the hot path:
    # virtual runs routinely "take" seconds of virtual time per callback.
    slow_callback_duration = float("inf")


# --------------------------------------------------------------------------
# The in-memory network
# --------------------------------------------------------------------------


class _SimConnection:
    """One bidirectional byte pipe between two endpoints.

    Side 0 is the connecting client, side 1 the accepting server.  Writes
    are copied and delivered to the peer's ``StreamReader`` after a fixed
    latency via ``loop.call_later``; each delivery pops the oldest chunk
    from a per-destination queue, so the stream never reorders (TCP
    semantics) no matter how equal timer deadlines tie-break.  Closing a side feeds
    EOF to its own reader immediately and, one latency later, to the
    peer's reader — after which the peer's writes fail at ``drain()``
    with ``ConnectionResetError``, mirroring a real broken socket.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, latency: float,
                 names: Tuple[Tuple[str, int], Tuple[str, int]]) -> None:
        self.loop = loop
        self.latency = latency
        self.names = names
        self.readers = (asyncio.StreamReader(), asyncio.StreamReader())
        self.closed = [False, False]
        self.broken = [False, False]
        # Per-destination in-flight queues: each scheduled _feed pops the
        # oldest chunk, so byte order is structural, not an artifact of
        # how the timer heap breaks equal-deadline ties.
        self._inflight: Tuple[Deque[bytes], Deque[bytes]] = (deque(), deque())

    def write(self, side: int, data: bytes) -> None:
        if self.closed[side] or self.broken[side]:
            return
        dest = 1 - side
        self._inflight[dest].append(bytes(data))
        self.loop.call_later(self.latency, self._feed, dest)

    def _feed(self, side: int) -> None:
        if not self._inflight[side]:
            return
        data = self._inflight[side].popleft()
        # Bytes still in flight when this side went down are lost, the
        # same way a real kernel discards data racing a close/RST.
        if not self.closed[side] and not self.broken[side]:
            self.readers[side].feed_data(data)

    def close(self, side: int) -> None:
        if self.closed[side]:
            return
        self.closed[side] = True
        self.readers[side].feed_eof()
        self.loop.call_later(self.latency, self._peer_gone, 1 - side)

    def _peer_gone(self, side: int) -> None:
        self.broken[side] = True
        if not self.closed[side]:
            self.readers[side].feed_eof()


class MemoryStreamWriter:
    """Duck-typed ``asyncio.StreamWriter`` over a :class:`_SimConnection`."""

    def __init__(self, conn: _SimConnection, side: int) -> None:
        self._conn = conn
        self._side = side

    def write(self, data: bytes) -> None:
        self._conn.write(self._side, data)

    def writelines(self, chunks: Any) -> None:
        for chunk in chunks:
            self.write(chunk)

    async def drain(self) -> None:
        if self._conn.broken[self._side]:
            raise ConnectionResetError("simulated peer closed the connection")
        # Yield once so back-to-back writers interleave like real drains.
        await asyncio.sleep(0)

    def close(self) -> None:
        self._conn.close(self._side)

    def is_closing(self) -> bool:
        return self._conn.closed[self._side]

    async def wait_closed(self) -> None:
        return None

    def get_extra_info(self, name: str, default: Any = None) -> Any:
        if name == "peername":
            return self._conn.names[1 - self._side]
        if name == "sockname":
            return self._conn.names[self._side]
        # "socket" deliberately returns None: enable_nodelay() no-ops.
        return default

    @property
    def transport(self) -> "MemoryStreamWriter":
        return self


class SimServer:
    """Duck-typed ``asyncio.AbstractServer`` for a simulated listener."""

    def __init__(self, network: "SimNetwork", addr: Tuple[str, int],
                 callback: Callable[..., Any]) -> None:
        self._network = network
        self.addr = addr
        self.callback = callback
        self.closed = False
        self.sockets: Tuple[Any, ...] = ()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._network._listeners.pop(self.addr, None)

    async def wait_closed(self) -> None:
        return None

    def is_serving(self) -> bool:
        return not self.closed


class SimNetwork:
    """The in-memory fabric: listeners keyed by (host, port).

    ``open_connection`` sleeps a connect latency, then either refuses
    (no listener — the node is down) or builds a :class:`_SimConnection`
    and spawns the server's connection handler, exactly as
    ``asyncio.start_server`` would.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, *,
                 latency: float = 0.0005,
                 connect_latency: float = 0.001) -> None:
        self._loop = loop
        self.latency = latency
        self.connect_latency = connect_latency
        self._listeners: Dict[Tuple[str, int], SimServer] = {}
        self._ephemeral = itertools.count(49152)

    async def start_server(self, callback: Callable[..., Any],
                           host: str, port: int) -> SimServer:
        addr = (host, int(port))
        if addr in self._listeners:
            raise OSError(98, "simulated address already in use: %r" % (addr,))
        server = SimServer(self, addr, callback)
        self._listeners[addr] = server
        return server

    async def open_connection(
        self, host: str, port: int
    ) -> Tuple[asyncio.StreamReader, MemoryStreamWriter]:
        await asyncio.sleep(self.connect_latency)
        addr = (host, int(port))
        server = self._listeners.get(addr)
        if server is None or server.closed:
            raise ConnectionRefusedError(
                111, "simulated connect refused: %r" % (addr,)
            )
        local = ("sim-client", next(self._ephemeral))
        conn = _SimConnection(self._loop, self.latency, (local, addr))
        client_writer = MemoryStreamWriter(conn, 0)
        server_writer = MemoryStreamWriter(conn, 1)
        result = server.callback(conn.readers[1], server_writer)
        if asyncio.iscoroutine(result):
            self._loop.create_task(result)
        return conn.readers[0], client_writer


# --------------------------------------------------------------------------
# The simulated runtime
# --------------------------------------------------------------------------


class SimRuntime(Runtime):
    """Deterministic virtual-time runtime: SimLoop + SimNetwork.

    One instance per simulated world.  ``run()`` installs the instance as
    the ambient runtime, runs the coroutine on the virtual loop, and
    tears the loop down; ``timeout`` is measured in *virtual* seconds.
    """

    name = "sim"
    fsync = None

    def __init__(self, *, latency: float = 0.0005,
                 connect_latency: float = 0.001) -> None:
        self.loop = SimLoop()
        self.network = SimNetwork(
            self.loop, latency=latency, connect_latency=connect_latency
        )

    def now(self) -> float:
        return self.loop.time()

    async def open_connection(
        self, host: str, port: int
    ) -> Tuple[asyncio.StreamReader, MemoryStreamWriter]:
        return await self.network.open_connection(host, port)

    async def start_server(
        self,
        client_connected_cb: Callable[..., Any],
        host: str,
        port: int,
    ) -> SimServer:
        return await self.network.start_server(client_connected_cb, host, port)

    def run(self, coro: Awaitable[Any], *, timeout: Optional[float] = None) -> Any:
        if timeout is not None:
            coro = asyncio.wait_for(coro, timeout)
        asyncio.set_event_loop(self.loop)
        try:
            with use_runtime(self):
                return self.loop.run_until_complete(coro)
        finally:
            asyncio.set_event_loop(None)

    def close(self) -> None:
        if self.loop.is_closed():
            return
        try:
            self.loop.run_until_complete(self.loop.shutdown_asyncgens())
        except Exception:
            pass
        self.loop.close()


# --------------------------------------------------------------------------
# The ambient default
# --------------------------------------------------------------------------

_DEFAULT = AsyncioRuntime()
_current: List[Runtime] = [_DEFAULT]


def current_runtime() -> Runtime:
    """The ambient runtime new objects bind to when none is passed."""
    return _current[-1]


class _RuntimeScope:
    def __init__(self, runtime: Runtime) -> None:
        self.runtime = runtime

    def __enter__(self) -> Runtime:
        _current.append(self.runtime)
        return self.runtime

    def __exit__(self, *exc: Any) -> None:
        _current.pop()


def use_runtime(runtime: Runtime) -> _RuntimeScope:
    """Context manager installing ``runtime`` as the ambient default."""
    return _RuntimeScope(runtime)

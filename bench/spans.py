"""Spans recorded from outside the program, and the arithmetic on them.

The benchmark may not edit ``src/``, so per-layer timings come from
wrappers that :func:`install_node` / :func:`install_client` put around the
layers' public callables for the duration of a traced run.  A span is
``(id, name, start, end, parent, ops)``: ``parent`` is the span that was
current when this one began (the span that caused it — a timer callback
scheduled inside a span keeps that span as its parent), and ``ops`` the
client operation ids the call's arguments carried, if any.  Times are
``time.perf_counter()`` seconds, which on Linux is one system-wide
monotonic clock, so spans of different processes share an axis.

Spans stay in memory until :meth:`Recorder.drain`.  A layer's *self time*
is a span's duration minus the part of it its child spans cover
(:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from bench.stats import clip, union_length

Span = Tuple[int, str, float, float, int, Optional[Tuple[str, ...]]]
OpsOf = Callable[..., Optional[Tuple[str, ...]]]


class Recorder:
    """In-memory span and count store for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._next = 0
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_span", default=0
        )

    # -- recording -------------------------------------------------------

    def begin(self) -> Tuple[int, int]:
        """Open a span: returns ``(id, parent)`` and makes it current."""
        self._next += 1
        parent = self._current.get()
        self._current.set(self._next)
        return self._next, parent

    def end(
        self, sid: int, parent: int, name: str, start: float,
        ops: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.spans.append((sid, name, start, self.clock(), parent, ops))
        self._current.set(parent)

    def add(
        self, name: str, start: float, end: float,
        ops: Optional[Tuple[str, ...]] = None, parent: int = 0,
    ) -> None:
        """Record a span whose ends were observed separately (a stage
        between two calls rather than one call)."""
        self._next += 1
        self.spans.append((self._next, name, start, end, parent, ops))

    def current(self) -> int:
        return self._current.get()

    def drain(self) -> Dict[str, Any]:
        """Hand over everything recorded so far and start empty."""
        out = {"spans": self.spans, "counts": dict(self.counts)}
        self.spans = []
        self.counts = Counter()
        return out

    # -- wrappers --------------------------------------------------------

    def timed(self, name: str, fn: Callable, ops_of: Optional[OpsOf] = None):
        """``fn`` wrapped so that every call records one span."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid, parent = self.begin()
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(
                    sid, parent, name, start,
                    ops_of(*args, **kwargs) if ops_of else None,
                )

        return wrapper

    def timed_async(self, name: str, fn: Callable, ops_of: Optional[OpsOf] = None):
        """Like :meth:`timed` for a coroutine function."""

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid, parent = self.begin()
            start = self.clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.end(
                    sid, parent, name, start,
                    ops_of(*args, **kwargs) if ops_of else None,
                )

        return wrapper

    def counted(self, name: str, fn: Callable):
        """``fn`` wrapped so that every call bumps ``counts[name]``."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------


class Patches:
    """Attribute replacements that :meth:`undo` puts back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _batch_ops(command: Any) -> Optional[Tuple[str, ...]]:
    ops = getattr(command, "ops", None)
    if not ops:
        return None
    return tuple(op.op_id for op in ops)


def install_node(rec: Recorder) -> Patches:
    """Wrap the server-side layers' public callables; returns the undo."""
    from repro.algorithms import replica
    from repro.algorithms.raft import node as raft_node
    from repro.algorithms.raft.log import RaftLog
    from repro.algorithms.raft.messages import ClientPropose
    from repro.algorithms.readpath import ReadBarrier
    from repro.core.runtime import Runtime
    from repro.live import kv, transport
    from repro.live.runtime import LiveRuntime
    from repro.sim import trace as tr
    from repro.sim.ops import Receive
    from repro.storage import engine as storage

    patches = Patches()
    clock = rec.clock
    proposed: Dict[Any, float] = {}  # batch id -> when it entered the log

    # live.kv: enqueue, the wait for the batch, the wait for the ack.
    enqueue = kv.KVShard.enqueue

    def traced_enqueue(shard: Any, op: Any) -> Any:
        sid, parent = rec.begin()
        start = clock()
        try:
            future = enqueue(shard, op)
        finally:
            rec.end(sid, parent, "kv.enqueue", start, (op.op_id,))
        future.add_done_callback(
            lambda _f: rec.add(
                "kv.enqueue_to_ack", start, clock(), (op.op_id,), parent
            )
        )
        return future

    patches.set(kv.KVShard, "enqueue", traced_enqueue)
    patches.set(
        kv.KVCommandMachine, "apply",
        rec.timed(
            "kv.apply", kv.KVCommandMachine.apply,
            lambda _m, _i, command: _batch_ops(command),
        ),
    )
    renew = kv.KVShard.renew_lease

    def counted_renew(shard: Any) -> None:
        if shard.is_leader:
            rec.counts["read.renewals"] += 1
        renew(shard)

    patches.set(kv.KVShard, "renew_lease", counted_renew)

    # live.runtime: inject, the applied annotation, the handler burst.
    inject = LiveRuntime.inject

    def traced_inject(runtime: Any, payload: Any, src: Any = None) -> None:
        ops = None
        if isinstance(payload, ClientPropose):
            ops = _batch_ops(payload.command)
        elif isinstance(payload, ReadBarrier):
            rec.counts["read.probe_rounds"] += 1
        sid, parent = rec.begin()
        start = clock()
        if ops:
            proposed[payload.command.batch_id] = start
            rec.counts["repl.proposals"] += 1
        try:
            inject(runtime, payload, src)
        finally:
            rec.end(sid, parent, "runtime.inject", start, ops)

    patches.set(LiveRuntime, "inject", traced_inject)

    def on_trace(event: Any) -> None:
        if event.kind != tr.ANNOTATE or event.detail[0] != "applied":
            return
        command = event.detail[1][2]
        start = proposed.pop(getattr(command, "batch_id", None), None)
        if start is not None:
            rec.add(
                "repl.propose_to_commit", start, clock(), _batch_ops(command)
            )

    start_runtime = LiveRuntime.start

    async def subscribing_start(runtime: Any, **kwargs: Any) -> None:
        runtime.trace.subscribe(on_trace)
        await start_runtime(runtime, **kwargs)

    patches.set(LiveRuntime, "start", subscribing_start)

    def bursts(run: Callable) -> Callable:
        """One ``runtime.handler`` span per burst of the node's generator:
        from the delivery that satisfied a ``Receive`` to the next
        ``Receive`` — the node's step plus the posting of what it sent."""

        @functools.wraps(run)
        def traced_run(node: Any, api: Any):
            gen = run(node, api)
            value = None
            open_span = None
            try:
                while True:
                    op = gen.send(value)
                    if isinstance(op, Receive) and open_span is not None:
                        rec.end(*open_span)
                        open_span = None
                    value = yield op
                    if isinstance(op, Receive):
                        sid, parent = rec.begin()
                        open_span = (sid, parent, "runtime.handler", clock())
            except StopIteration:
                return
            finally:
                gen.close()

        return traced_run

    for cls in (raft_node.RaftNode, replica.BallotReplicaNode):
        patches.set(cls, "run", bursts(cls.__dict__["run"]))

    for name in ("call_later", "call_soon"):
        patches.set(
            Runtime, name, rec.counted("runtime.timers", Runtime.__dict__[name])
        )

    # algorithms: the duplicate-proposal scan.
    patches.set(
        RaftLog, "contains_command",
        rec.timed("repl.contains", RaftLog.contains_command),
    )

    # live.transport and the codec it calls.
    patches.set(
        transport.PeerTransport, "send",
        rec.timed("transport.send", transport.PeerTransport.send),
    )
    patches.set(
        transport, "encode_peer_frame_into",
        rec.timed("codec.encode", transport.encode_peer_frame_into),
    )
    patches.set(
        transport, "decode_body", rec.timed("codec.decode", transport.decode_body)
    )
    patches.set(kv, "decode_body", rec.timed("codec.decode", kv.decode_body))
    patches.set(kv, "frame_bytes", rec.timed("codec.encode", kv.frame_bytes))

    # storage: journal append, the sync barrier, compaction, recovery.
    patches.set(
        storage.RaftStorage, "record_append",
        rec.timed("wal.append", storage.RaftStorage.record_append),
    )
    patches.set(
        storage.RaftStorage, "sync",
        rec.timed("wal.fsync", storage.RaftStorage.sync),
    )
    begin_sync = storage.RaftStorage.begin_sync

    def traced_begin_sync(store: Any) -> None:
        start = clock()
        generation = store.generation
        begin_sync(store)
        if store.durable_generation < generation:
            # Pipelined mode: the barrier completes on the fsync thread.
            store.notify_durable(
                generation, lambda: rec.add("wal.fsync", start, clock())
            )

    patches.set(storage.RaftStorage, "begin_sync", traced_begin_sync)
    patches.set(
        storage.RaftStorage, "record_compact",
        rec.timed("storage.compact", storage.RaftStorage.record_compact),
    )
    patches.set(
        storage, "recover_wal", rec.timed("storage.recover", storage.recover_wal)
    )
    return patches


def install_client(rec: Recorder) -> Patches:
    """Wrap the client library's public callables; returns the undo."""
    from repro.live import client, wire

    patches = Patches()

    def op_id(*_args: Any, **kwargs: Any) -> Optional[Tuple[str, ...]]:
        ident = kwargs.get("op_id")
        return (ident,) if ident else None

    patches.set(
        client.AsyncKVClient, "put",
        rec.timed_async("client.put", client.AsyncKVClient.put, op_id),
    )
    patches.set(
        client.AsyncKVClient, "get",
        rec.timed_async("client.get", client.AsyncKVClient.get, op_id),
    )
    read_frame = client.read_frame

    async def traced_read_frame(reader: Any) -> Any:
        sid, parent = rec.begin()
        start = rec.clock()
        try:
            response = await read_frame(reader)
        finally:
            rec.end(sid, parent, "client.socket_wait", start)
        if parent and isinstance(response, dict) and response.get("type") == "redirect":
            rec.counts["client.redirects"] += 1
        return response

    patches.set(client, "read_frame", traced_read_frame)
    encode = rec.timed("codec.encode", client.frame_bytes)

    def counted_encode(*args: Any, **kwargs: Any) -> bytes:
        if rec.current():  # inside a put or get, not a status probe
            rec.counts["client.requests"] += 1
        return encode(*args, **kwargs)

    patches.set(client, "frame_bytes", counted_encode)
    # ``read_frame`` decodes through the wire module's own global.
    patches.set(wire, "decode_body", rec.timed("codec.decode", wire.decode_body))
    return patches


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------


def self_times(spans: Iterable[Sequence]) -> Dict[int, float]:
    """Self time of every span: its duration minus what the part of its
    children that lies inside it covers (overlapping children count
    once)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _ops in spans:
        if parent:
            children[parent].append((start, end))
    out: Dict[int, float] = {}
    for sid, _name, start, end, _parent, _ops in spans:
        covered = union_length(clip(children.get(sid, ()), start, end))
        out[sid] = (end - start) - covered
    return out


def by_op(spans: Iterable[Sequence]) -> Dict[str, List[Sequence]]:
    """Spans grouped by each client operation id they carry."""
    groups: Dict[str, List[Sequence]] = defaultdict(list)
    for span in spans:
        for op in span[5] or ():
            groups[op].append(span)
    return groups

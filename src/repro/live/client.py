"""Asyncio client for the live KV service.

:class:`AsyncKVClient` is *shard-aware*: it computes the target shard of
every ``put`` locally (:func:`repro.live.sharding.shard_of` — the same
hash the servers use), keeps a per-shard leader hint learned from
redirects, and pools one connection per node so requests for different
shards reuse sockets.  Writes are at-least-once: a timed-out or
redirected ``put`` is retried with the same ``op_id``, which the servers
do not deduplicate, so a retry can be applied twice — possibly after
another client's write to the key, undoing it.  That is an open bug (see
"Delivery semantics" in :mod:`repro.live.kv`), not a harmless repeat.

The shard count is discovered from the cluster on first use (the
``status`` response carries it), so clients need no configuration.
Reads (``get``) are served from *any* node's local state machine — every
node replicates every shard — so they follow no shard routing.
"""

from __future__ import annotations

import asyncio
import itertools
import uuid
from typing import Any, Dict, Optional, Tuple

from repro.core.runtime import Runtime, current_runtime
from repro.live.config import ClusterConfig
from repro.live.sharding import ShardRouter
from repro.live.wire import enable_nodelay, frame_bytes, read_frame

Addr = Tuple[str, int]


class ClusterUnavailableError(ConnectionError):
    """No node answered within the attempt budget."""


class AsyncKVClient:
    """A redirect-following client for :class:`repro.live.kv.KVServer`.

    Args:
        cluster: the cluster membership (client ports are used).
        request_timeout: per-request socket timeout.
        max_attempts: total tries (across redirects and reconnects) before
            an operation raises :class:`ClusterUnavailableError`.
        retry_delay: pause between failed attempts (elections need a beat).
        shards: the cluster's shard count; ``None`` (the default)
            discovers it with a ``status`` request on first use.
        op_id_prefix: deterministic ``op_id`` generation — ids become
            ``"<prefix>-<counter>"`` instead of carrying a ``uuid4``
            fragment.  The DST harness sets a distinct prefix per
            simulated client so replays are byte-identical; leave
            ``None`` in production, where two client *processes* must
            never collide.
        runtime: the runtime seam (:mod:`repro.core.runtime`); defaults
            to the ambient runtime.
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        *,
        request_timeout: float = 5.0,
        max_attempts: int = 30,
        retry_delay: float = 0.1,
        shards: Optional[int] = None,
        op_id_prefix: Optional[str] = None,
        runtime: Optional[Runtime] = None,
    ):
        self.cluster = cluster
        self.rt = runtime if runtime is not None else current_runtime()
        self.op_id_prefix = op_id_prefix
        self.request_timeout = request_timeout
        self.max_attempts = max_attempts
        self.retry_delay = retry_delay
        self._router: Optional[ShardRouter] = (
            ShardRouter(cluster, shards) if shards is not None else None
        )
        #: One pooled connection per node address, shared by all shards.
        self._conns: Dict[Addr, Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = {}
        self._target: Optional[Addr] = None
        self._rotation = itertools.cycle(range(cluster.n))
        self._ops = 0
        # One request in flight per client: concurrent users of a shared
        # client serialize here instead of interleaving frames.
        self._lock: Optional[asyncio.Lock] = None

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    async def put(self, key: Any, value: Any, op_id: Optional[str] = None) -> int:
        """Replicate ``key -> value``; returns the commit log index.

        The index is local to the shard owning ``key`` — indices from
        different shards are not comparable.
        """
        if op_id is None:
            op_id = self._next_op_id()
        router = await self._ensure_router()
        # One group: rotate over nodes and follow redirects on the shared
        # target, so plain gets follow the leader too.
        shard = router.shard_of(key) if router.shards > 1 else None
        response = await self._request(
            {"type": "put", "id": op_id, "key": key, "value": value},
            want="ok",
            shard=shard,
        )
        return response["index"]

    async def get(
        self, key: Any, *, linearizable: bool = False,
        tier: Optional[str] = None, staleness: Optional[float] = None,
        op_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Read ``key`` from whichever node we are connected to.

        Returns the raw response dict: ``found``, ``value``, ``applied``
        (the owning shard's applied index on the serving node — reads are
        local and may lag).

        With ``linearizable=True`` the read is routed to the owning
        shard's leader (redirect-following, like a put) and served
        linearizably.  ``tier`` (implies linearizable) overrides the
        server's default read tier per request: ``"safe"`` commits a
        :class:`~repro.live.kv.KvRead` log marker, ``"readindex"`` joins
        a batched leadership confirmation (one acked append round),
        ``"lease"`` answers locally
        while the leader lease is live.  Reads are idempotent, so
        retrying a timed-out linearizable get is always safe.

        With ``staleness=<seconds>`` the read is *bounded-stale* instead:
        it fans out over the owning shard's replicas (followers first,
        leader last) and returns the first answer whose proven staleness
        is within the bound.  The response carries the serving replica's
        actual ``staleness``.
        """
        if staleness is not None:
            return await self._stale_get(key, staleness)
        if tier is not None:
            linearizable = True
        if not linearizable:
            return await self._request({"type": "get", "key": key}, want="value")
        if op_id is None:
            op_id = self._next_op_id()
        router = await self._ensure_router()
        shard = router.shard_of(key) if router.shards > 1 else None
        request: Dict[str, Any] = {
            "type": "get", "key": key, "lin": True, "id": op_id,
        }
        if tier is not None:
            request["tier"] = tier
        return await self._request(request, want="value", shard=shard)

    def _next_op_id(self) -> str:
        """A fresh operation id: random in production, sequential under a
        deterministic prefix (see ``op_id_prefix``)."""
        self._ops += 1
        if self.op_id_prefix is not None:
            return f"{self.op_id_prefix}-{self._ops}"
        return f"{uuid.uuid4().hex[:12]}-{self._ops}"

    async def _stale_get(self, key: Any, staleness: float) -> Dict[str, Any]:
        """Fan a bounded-stale read out across the owning shard's replicas.

        Followers are tried first (rotating the start point so read load
        spreads over them), the hinted leader last — the point of the
        tier is to take reads *off* the leader.  Replica answers of
        ``"stale"`` (freshness proof older than the bound) and connection
        failures both move on to the next replica.
        """
        router = await self._ensure_router()
        shard = router.shard_of(key) if router.shards > 1 else 0
        request = {"type": "get", "key": key, "staleness": staleness}
        leader = router.hint(shard)
        followers = [
            self.cluster[pid].client_addr for pid in range(self.cluster.n)
            if self.cluster[pid].client_addr != leader
        ]
        offset = next(self._rotation)
        followers = followers[offset % len(followers):] + \
            followers[:offset % len(followers)]
        order = followers + ([leader] if leader is not None else [])
        if self._lock is None:
            self._lock = asyncio.Lock()
        last_error: Optional[BaseException] = None
        async with self._lock:
            for addr in order:
                try:
                    reader, writer = await self._connect(addr)
                    writer.write(frame_bytes(request))
                    await writer.drain()
                    response = await asyncio.wait_for(
                        read_frame(reader), timeout=self.request_timeout
                    )
                except (ConnectionError, OSError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError) as exc:
                    last_error = exc
                    self._drop_connection(addr)
                    continue
                if (
                    isinstance(response, dict)
                    and response.get("type") == "value"
                ):
                    return response
                last_error = RuntimeError(f"server said {response!r}")
        raise ClusterUnavailableError(
            f"no replica within staleness bound {staleness}: {last_error!r}"
        )

    async def status(self) -> Dict[str, Any]:
        """Status of the currently connected node."""
        return await self._request({"type": "status"}, want="status")

    async def status_of(self, pid: int) -> Dict[str, Any]:
        """Status of one specific node (dedicated short-lived connection)."""
        spec = self.cluster[pid]
        reader, writer = await asyncio.wait_for(
            self.rt.open_connection(*spec.client_addr),
            timeout=self.request_timeout,
        )
        enable_nodelay(writer)
        try:
            writer.write(frame_bytes({"type": "status"}))
            await writer.drain()
            return await asyncio.wait_for(
                read_frame(reader), timeout=self.request_timeout
            )
        finally:
            writer.close()

    async def shard_count(self) -> int:
        """The cluster's shard count (discovered once, then cached)."""
        return (await self._ensure_router()).shards

    async def close(self) -> None:
        for _reader, writer in self._conns.values():
            writer.close()
        self._conns.clear()

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    async def _ensure_router(self) -> ShardRouter:
        if self._router is None:
            status = await self._request({"type": "status"}, want="status")
            # ShardRouter validates the count: it is input from outside
            # the program (a missing or bad one raises ValueError).
            self._router = ShardRouter(self.cluster, status.get("shards"))
        return self._router

    async def _request(
        self, request: Dict[str, Any], *, want: str, shard: Optional[int] = None
    ) -> Dict[str, Any]:
        if self._lock is None:
            self._lock = asyncio.Lock()
        async with self._lock:
            return await self._request_locked(request, want=want, shard=shard)

    def _addr_for(self, shard: Optional[int]) -> Addr:
        """Where to send the next attempt of a request."""
        if shard is not None and self._router is not None:
            return self._router.target(shard)
        if self._target is None:
            self._target = self.cluster[next(self._rotation)].client_addr
        return self._target

    def _note_failure(self, shard: Optional[int], addr: Addr) -> None:
        self._drop_connection(addr)
        if self._router is not None:
            # The connection reset invalidates every shard hint naming
            # this address (a restarted node lost all its leaderships),
            # not just the shard whose request hit the reset.
            self._router.invalidate_addr(addr)
            if shard is not None:
                self._router.note_failure(shard, addr)
        if self._target == addr:
            self._target = None

    def _note_leader(self, shard: Optional[int], addr: Addr) -> None:
        if shard is not None and self._router is not None:
            self._router.note_leader(shard, addr)
            if self._router.shards == 1:
                # One group: the shard leader IS the cluster leader, so
                # un-routed requests (status/get) follow it too.
                self._target = addr
        else:
            self._target = addr

    async def _request_locked(
        self, request: Dict[str, Any], *, want: str, shard: Optional[int]
    ) -> Dict[str, Any]:
        last_error: Optional[Exception] = None
        for _attempt in range(self.max_attempts):
            addr = self._addr_for(shard)
            try:
                reader, writer = await self._connect(addr)
                writer.write(frame_bytes(request))
                await writer.drain()
                response = await asyncio.wait_for(
                    read_frame(reader), timeout=self.request_timeout
                )
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:
                last_error = exc
                self._note_failure(shard, addr)
                await asyncio.sleep(self.retry_delay)
                continue
            kind = response.get("type") if isinstance(response, dict) else None
            if kind == want:
                return response
            if kind == "redirect":
                # The server names the shard it computed for the key;
                # trust it over our own (it is authoritative) so hints
                # stay correct even if our shard count is stale.
                target_shard = response.get("shard", shard)
                if not isinstance(target_shard, int):
                    target_shard = shard
                if response.get("leader") is not None:
                    self._note_leader(
                        target_shard, (response["host"], response["port"])
                    )
                else:
                    # Mid-election: no known leader for this shard yet.
                    if target_shard is not None and self._router is not None:
                        self._router.note_failure(target_shard)
                    if shard is None:
                        self._target = None
                    await asyncio.sleep(self.retry_delay)
                continue
            # "error" (commit timeout mid-election, bad request, ...):
            # retry the same idempotent request.
            last_error = RuntimeError(f"server said {response!r}")
            await asyncio.sleep(self.retry_delay)
        raise ClusterUnavailableError(
            f"no answer after {self.max_attempts} attempts: {last_error!r}"
        )

    async def _connect(
        self, addr: Addr
    ) -> Tuple[asyncio.StreamReader, Any]:
        conn = self._conns.get(addr)
        if conn is not None:
            return conn
        reader, writer = await asyncio.wait_for(
            self.rt.open_connection(*addr),
            timeout=self.request_timeout,
        )
        enable_nodelay(writer)
        self._conns[addr] = (reader, writer)
        return self._conns[addr]

    def _drop_connection(self, addr: Addr) -> None:
        conn = self._conns.pop(addr, None)
        if conn is not None:
            conn[1].close()

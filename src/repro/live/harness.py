"""In-process harnesses that boot whole localhost clusters.

Tests, benchmarks and the CI smoke job run every node inside one asyncio
event loop: the sockets, framing, reconnect and timer paths are exactly
those of a multi-process deployment (the bytes really traverse localhost
TCP), only the scheduling is shared.  ``python -m repro serve`` runs the
same :class:`~repro.live.kv.KVServer` one-per-OS-process instead.

All nodes share a single monotonic ``epoch``, so per-node traces can be
merged (:func:`merge_traces`) onto one time axis and fed to the existing
property checkers and metrics unchanged.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.readpath import ReadLedger
from repro.core.runtime import Runtime, current_runtime
from repro.live.config import ClusterConfig
from repro.live.kv import KVServer
from repro.live.runtime import LiveRuntime
from repro.options import check_count
from repro.sim.process import Process
from repro.sim.trace import Trace


def merge_traces(traces: Sequence[Trace]) -> Trace:
    """Merge per-node traces into one, ordered by shared-epoch time.

    The sort is stable, so each node's own events keep their relative
    order even when wall-clock timestamps tie.
    """
    merged = Trace()
    for event in sorted(
        (e for trace in traces for e in trace.events), key=lambda e: e.time
    ):
        merged.record(event.time, event.kind, event.pid, event.detail)
    return merged


def _collect(trace: Trace) -> Trace:
    """A harness-side copy of every event ``trace`` records.  A runtime's
    own trace stores nothing (a production node must not grow with
    uptime), so the harness keeps the copy ``merged_trace`` reads."""
    copy = Trace()
    trace.subscribe(copy.events.append)
    return copy


class LiveCluster:
    """Run arbitrary simulator processes as a live localhost cluster.

    Args:
        processes: one :class:`~repro.sim.process.Process` per node.
        init_values: per-process consensus inputs.
        t: resilience parameter (default ``(n - 1) // 2``).
        seed: run seed (same RNG derivation as the simulator).
        cluster: explicit topology; defaults to fresh localhost ports.
    """

    def __init__(
        self,
        processes: Sequence[Process],
        *,
        init_values: Optional[Sequence[Any]] = None,
        t: Optional[int] = None,
        seed: int = 0,
        cluster: Optional[ClusterConfig] = None,
        runtime: Optional[Runtime] = None,
    ):
        n = len(processes)
        if n == 0:
            raise ValueError("need at least one process")
        if init_values is None:
            init_values = [None] * n
        if len(init_values) != n:
            raise ValueError("init_values length must match processes")
        self.rt = runtime if runtime is not None else current_runtime()
        self.cluster = cluster or self._default_cluster(n)
        self.epoch = self.rt.now()
        self.runtimes: List[Optional[LiveRuntime]] = []
        self._processes = list(processes)
        self._args = dict(t=t, seed=seed)
        self._init_values = list(init_values)
        self._traces: List[Trace] = []
        for pid, process in enumerate(self._processes):
            self.runtimes.append(self._build(pid))

    def _default_cluster(self, n: int) -> ClusterConfig:
        if self.rt.name == "sim":
            return ClusterConfig.simulated(n)
        return ClusterConfig.localhost(n)

    def _build(self, pid: int) -> LiveRuntime:
        runtime = LiveRuntime(
            self._processes[pid],
            self.cluster,
            pid,
            init_value=self._init_values[pid],
            t=self._args["t"],
            seed=self._args["seed"],
            epoch=self.epoch,
            runtime=self.rt,
        )
        self._traces.append(_collect(runtime.trace))
        return runtime

    async def start(self) -> None:
        for runtime in self.runtimes:
            if runtime is not None:
                await runtime.start()

    async def stop(self) -> None:
        for runtime in self.runtimes:
            if runtime is not None:
                await runtime.stop()

    async def kill(self, pid: int) -> None:
        """Abruptly stop node ``pid`` (records a CRASH in its trace)."""
        runtime = self.runtimes[pid]
        if runtime is not None:
            await runtime.stop(crash=True)
            self.runtimes[pid] = None

    async def restart(self, pid: int) -> LiveRuntime:
        """Restart a killed node: same Process object, fresh runtime.

        Mirrors the simulator's crash-restart semantics — state on the
        process's ``self`` survives, generator-local state is lost.
        """
        runtime = self._build(pid)
        self.runtimes[pid] = runtime
        await runtime.start(restart=True)
        return runtime

    async def await_decisions(
        self, timeout: float, pids: Optional[Sequence[int]] = None
    ) -> Dict[int, Any]:
        """Wait until the given (default: all live) nodes decide."""
        if pids is None:
            pids = [p for p, r in enumerate(self.runtimes) if r is not None]
        deadline = self.rt.now() + timeout
        out: Dict[int, Any] = {}
        for pid in pids:
            runtime = self.runtimes[pid]
            assert runtime is not None
            remaining = max(0.01, deadline - self.rt.now())
            out[pid] = await runtime.wait_decided(timeout=remaining)
        return out

    def merged_trace(self) -> Trace:
        """All nodes' events (including killed nodes') on one time axis."""
        return merge_traces(self._traces)


class LiveKVCluster:
    """Boot ``n`` :class:`~repro.live.kv.KVServer` nodes on localhost.

    Keyword args are forwarded to every ``KVServer`` (election timeouts,
    batching knobs, ``shards=S`` for a sharded cluster, ...).

    It keeps no trace (its memory follows the retained logs, not
    uptime).  To record one, pass ``observers=(recorded.events.append,)``
    for a ``recorded = Trace()``: it reaches every shard's runtime,
    restarted nodes' included, and one loop records in time order.

    With ``data_dir`` set, each node persists its Raft groups under
    ``data_dir/node-<pid>`` and :meth:`restart` performs *real* crash
    recovery: the replacement server reads its durable state back from
    disk exactly as a re-executed ``repro serve --data-dir`` process
    would.
    """

    def __init__(
        self,
        n: int,
        *,
        seed: int = 0,
        cluster: Optional[ClusterConfig] = None,
        election_timeout: Tuple[float, float] = (0.3, 0.6),
        heartbeat_interval: float = 0.06,
        data_dir: Optional[str] = None,
        runtime: Optional[Runtime] = None,
        **server_options: Any,
    ):
        check_count("n", n)
        self.rt = runtime if runtime is not None else current_runtime()
        if cluster is None:
            cluster = (
                ClusterConfig.simulated(n) if self.rt.name == "sim"
                else ClusterConfig.localhost(n)
            )
        self.cluster = cluster
        self.epoch = self.rt.now()
        self.data_dir = data_dir
        self._server_options = dict(
            seed=seed,
            election_timeout=election_timeout,
            heartbeat_interval=heartbeat_interval,
            **server_options,
        )
        self.servers: List[Optional[KVServer]] = []
        for pid in range(n):
            self.servers.append(self._build(pid))
        self.shard_count = self.servers[0].shard_count

    def node_data_dir(self, pid: int) -> Optional[str]:
        """Node ``pid``'s durable-state directory (``None`` if diskless)."""
        if self.data_dir is None:
            return None
        return os.path.join(self.data_dir, f"node-{pid}")

    def _build(self, pid: int) -> KVServer:
        return KVServer(
            self.cluster,
            pid,
            epoch=self.epoch,
            data_dir=self.node_data_dir(pid),
            runtime=self.rt,
            **self._server_options,
        )

    async def start(self) -> None:
        for server in self.servers:
            if server is not None:
                await server.start()

    async def stop(self) -> None:
        for server in self.servers:
            if server is not None:
                await server.stop()

    async def kill(self, pid: int, *, torn: bool = False) -> None:
        """Abrupt node death: peer and client sockets just disappear.

        For a node with a ``data_dir`` this is a **power failure**: WAL
        state not yet fsynced is lost, and ``torn=True`` additionally
        leaves a torn final frame on disk for recovery to truncate.
        """
        server = self.servers[pid]
        if server is not None:
            await server.stop(crash=True, torn=torn)
            self.servers[pid] = None

    async def restart(self, pid: int) -> KVServer:
        """Bring a killed node back with a fresh :class:`KVServer`.

        With a ``data_dir`` the replacement goes through **real crash
        recovery** — term, vote, log and snapshot are read back from the
        node's directory, never from the old in-memory server object.
        Without one it starts from an empty log (the live analogue of a
        node rejoining after losing its disk) and catches up through
        the leader's snapshot/replication path.  No-op (returns the
        running server) if the node is alive.
        """
        server = self.servers[pid]
        if server is not None:
            return server
        server = self._build(pid)
        self.servers[pid] = server
        await server.start(restart=True)
        return server

    def alive(self) -> List[int]:
        """The pids of currently running nodes."""
        return [pid for pid, s in enumerate(self.servers) if s is not None]

    def leader_pid(
        self, shard: int = 0, *, exclude: Sequence[int] = ()
    ) -> Optional[int]:
        """The shard's current leader among live nodes (in-process): of
        the nodes that believe they lead, the one in the highest term (a
        deposed leader cut off by a partition still believes)."""
        believers = [
            (server.shards[shard].node.current_term, server.pid)
            for server in self.servers
            if server is not None
            and server.pid not in exclude
            and server.shards[shard].is_leader
        ]
        return max(believers)[1] if believers else None

    async def wait_for_leader(
        self,
        timeout: float = 10.0,
        *,
        exclude: Sequence[int] = (),
        shard: int = 0,
    ) -> int:
        """Poll until the leader :meth:`leader_pid` names (ignoring the
        nodes in ``exclude``) is serviceable for ``shard``; its pid.

        Serviceable means it has committed an entry of its own term
        (:meth:`ReadLedger.epoch_ready`), so its commit index no longer
        lags a predecessor's and its first requests do not wait for its
        barrier entry.  Of two believers (a deposed leader cut off
        beside its successor) the one in the lower term is never
        returned.
        """
        deadline = self.rt.now() + timeout
        while self.rt.now() < deadline:
            pid = self.leader_pid(shard, exclude=exclude)
            if pid is not None:
                node = self.servers[pid].shards[shard].node
                if ReadLedger.epoch_ready(
                    node.log, node.commit_index, node.current_term
                ):
                    return pid
            await self.rt.sleep(0.02)
        raise TimeoutError(f"no leader for shard {shard} within {timeout}s")

    async def wait_for_all_leaders(
        self, timeout: float = 10.0
    ) -> Dict[int, int]:
        """Wait until every shard has a leader; returns shard -> pid."""
        deadline = self.rt.now() + timeout
        leaders: Dict[int, int] = {}
        for shard in range(self.shard_count):
            remaining = max(0.02, deadline - self.rt.now())
            leaders[shard] = await self.wait_for_leader(remaining, shard=shard)
        return leaders

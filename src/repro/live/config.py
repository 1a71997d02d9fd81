"""Cluster topology configuration for live runs.

A cluster is a fixed list of nodes, pid ``i`` being the ``i``-th entry.
Each node listens on two ports: the *peer* port (node-to-node protocol
traffic) and the *client* port (the KV request protocol of
:mod:`repro.live.kv`).  The same :class:`ClusterConfig` is handed to every
node and to every client, so one ``--peers`` string describes the whole
deployment.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: Default client port = peer port + this offset (CLI convention).
CLIENT_PORT_OFFSET = 1000

#: Default replication pipeline depth.  Delta replication (per-follower
#: cursors, see :mod:`repro.algorithms.raft.node`) makes each in-flight
#: entry cost linear bytes, so a deep pipeline is safe; the cap bounds
#: commit latency and uncommitted-log memory, not wire traffic.
DEFAULT_MAX_INFLIGHT = 16


@dataclass(frozen=True)
class NodeSpec:
    """One cluster member's network identity."""

    pid: int
    host: str
    port: int
    client_port: int

    @property
    def peer_addr(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def client_addr(self) -> Tuple[str, int]:
        return (self.host, self.client_port)


@dataclass(frozen=True)
class ClusterConfig:
    """The full membership: ``nodes[pid]`` is pid's :class:`NodeSpec`."""

    nodes: Tuple[NodeSpec, ...]

    def __post_init__(self) -> None:
        for pid, spec in enumerate(self.nodes):
            if spec.pid != pid:
                raise ValueError(f"node {pid} has mismatched pid {spec.pid}")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def __getitem__(self, pid: int) -> NodeSpec:
        return self.nodes[pid]

    @classmethod
    def from_spec(cls, spec: str) -> "ClusterConfig":
        """Parse ``host:port[,host:port,...]`` (or ``host:port:clientport``).

        When the client port is omitted it defaults to
        ``port + CLIENT_PORT_OFFSET``.
        """
        nodes: List[NodeSpec] = []
        for pid, part in enumerate(p.strip() for p in spec.split(",")):
            if not part:
                raise ValueError(f"empty node entry in cluster spec {spec!r}")
            pieces = part.split(":")
            if len(pieces) == 2:
                host, port = pieces
                client_port = int(port) + CLIENT_PORT_OFFSET
            elif len(pieces) == 3:
                host, port, client = pieces
                client_port = int(client)
            else:
                raise ValueError(
                    f"bad node {part!r}: use host:port or host:port:clientport"
                )
            nodes.append(NodeSpec(pid, host, int(port), client_port))
        return cls(tuple(nodes))

    @classmethod
    def localhost(cls, n: int) -> "ClusterConfig":
        """An ``n``-node cluster on 127.0.0.1 with freshly reserved ports.

        Ports are picked by binding ephemeral sockets and releasing them —
        the usual test-harness idiom; a racing process could steal one, so
        this is for tests and local experiments, not deployments.
        """
        ports = _free_ports(2 * n)
        nodes = [
            NodeSpec(pid, "127.0.0.1", ports[2 * pid], ports[2 * pid + 1])
            for pid in range(n)
        ]
        return cls(tuple(nodes))

    @classmethod
    def simulated(cls, n: int, *, base_port: int = 20000) -> "ClusterConfig":
        """An ``n``-node cluster with synthetic, deterministic ports.

        No OS sockets are touched — addresses only have to be *unique*
        because the simulated network (:class:`repro.core.runtime.SimNetwork`)
        keys listeners by ``(host, port)`` in memory.  Identical inputs
        produce identical configs, which byte-identical replay requires.
        """
        nodes = [
            NodeSpec(
                pid,
                "127.0.0.1",
                base_port + 2 * pid,
                base_port + 2 * pid + 1,
            )
            for pid in range(n)
        ]
        return cls(tuple(nodes))


def _free_ports(count: int) -> List[int]:
    # Hold every reservation open until all ports are picked: releasing
    # a listen socket returns its port to the ephemeral pool immediately
    # (no TIME_WAIT without a connection), so sequential bind-and-close
    # can hand the same port out twice within one cluster.
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()

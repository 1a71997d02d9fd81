"""Process hygiene for the wall-clock workloads.

:class:`ProcessCluster` starts three ``bench/node.py`` processes on free
loopback ports, waits (with a deadline) for a leader, reads the nodes'
counters on request, and tears everything down on every exit path:
SIGTERM first, SIGKILL for whatever is still alive after a grace period.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from repro.live.client import AsyncKVClient
from repro.live.config import CLIENT_PORT_OFFSET, ClusterConfig

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Seconds a cluster may take to elect a leader before the run fails.
ELECTION_DEADLINE = 20.0
#: Seconds a node gets to answer SIGUSR1 / SIGTERM.
SIGNAL_DEADLINE = 10.0

_CONNECT_ERRORS = (
    ConnectionError, OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
)


class ClusterError(RuntimeError):
    """The cluster did not do what the harness needed in time."""


def free_peer_ports(count: int) -> List[int]:
    """``count`` peer ports whose client port (peer + 1000) is free too.

    Every reservation stays bound until all are picked, so one call never
    hands a port out twice.
    """
    held: List[socket.socket] = []
    ports: List[int] = []
    try:
        for _ in range(count * 50):
            if len(ports) == count:
                break
            peer = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            peer.bind(("127.0.0.1", 0))
            held.append(peer)
            port = peer.getsockname()[1]
            if port + CLIENT_PORT_OFFSET > 65535:
                continue
            client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                client.bind(("127.0.0.1", port + CLIENT_PORT_OFFSET))
            except OSError:
                client.close()
                continue
            held.append(client)
            ports.append(port)
        if len(ports) < count:
            raise ClusterError("could not reserve free loopback ports")
        return ports
    finally:
        for sock in held:
            sock.close()


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


async def poll_status(config: ClusterConfig) -> List[Optional[Dict[str, Any]]]:
    """One ``status`` RPC per node (``None`` for an unreachable one)."""
    probe = AsyncKVClient(config, request_timeout=1.0)
    out: List[Optional[Dict[str, Any]]] = []
    try:
        for pid in range(config.n):
            try:
                out.append(await probe.status_of(pid))
            except _CONNECT_ERRORS:
                out.append(None)
    finally:
        await probe.close()
    return out


class ProcessCluster:
    """Three node processes plus the plumbing to observe and stop them.

    Args:
        run_dir: scratch directory (inside the checkout) for node dumps,
            logs and data dirs; the caller removes it.
        node_options: extra ``bench/node.py`` arguments shared by every
            node (``--engine``, ``--read-tier``, ``--snapshot-threshold``).
        durable: give every node a data dir under ``run_dir``.
        trace: start the nodes with ``--trace``.
    """

    def __init__(
        self,
        run_dir: str,
        *,
        node_options: Optional[List[str]] = None,
        durable: bool = False,
        trace: bool = False,
        n: int = 3,
    ):
        self.run_dir = run_dir
        self.n = n
        self.node_options = list(node_options or [])
        self.durable = durable
        self.trace = trace
        self.procs: List[Optional[subprocess.Popen]] = [None] * n
        self._dumps_read = [0] * n
        self._logs: List[Any] = []
        ports = free_peer_ports(n)
        self.spec = ",".join(f"127.0.0.1:{port}" for port in ports)
        self.config = ClusterConfig.from_spec(self.spec)
        os.makedirs(run_dir, exist_ok=True)

    # -- lifecycle -------------------------------------------------------

    def _node_dir(self, pid: int) -> str:
        return os.path.join(self.run_dir, f"node-{pid}")

    def spawn(self, pid: int) -> None:
        """Start (or, after :meth:`kill`, re-execute) node ``pid``."""
        node_dir = self._node_dir(pid)
        os.makedirs(node_dir, exist_ok=True)
        command = [
            sys.executable, os.path.join(BENCH_DIR, "node.py"),
            "--pid", str(pid), "--peers", self.spec, "--dump-dir", node_dir,
            *self.node_options,
        ]
        if self.durable:
            command += ["--data-dir", os.path.join(node_dir, "data")]
        if self.trace:
            command.append("--trace")
        log = open(os.path.join(node_dir, "stderr.log"), "ab")
        self._logs.append(log)
        self._dumps_read[pid] = 0
        self.procs[pid] = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=log,
            stdin=subprocess.DEVNULL,
        )

    def start(self) -> None:
        for pid in range(self.n):
            self.spawn(pid)

    def kill(self, pid: int) -> None:
        """SIGKILL node ``pid`` and reap it."""
        proc = self.procs[pid]
        if proc is not None:
            proc.kill()
            proc.wait()
            self.procs[pid] = None

    def stop(self) -> None:
        """SIGTERM every node, SIGKILL the stragglers, close the logs."""
        live = [proc for proc in self.procs if proc is not None]
        for proc in live:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + SIGNAL_DEADLINE
        for proc in live:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = [None] * self.n
        for log in self._logs:
            log.close()
        self._logs.clear()

    def check_alive(self) -> None:
        for pid, proc in enumerate(self.procs):
            if proc is not None and proc.poll() is not None:
                raise ClusterError(
                    f"node {pid} exited with code {proc.returncode}: "
                    + self.stderr_tail(pid)
                )

    def stderr_tail(self, pid: int, limit: int = 2000) -> str:
        try:
            with open(os.path.join(self._node_dir(pid), "stderr.log"), "rb") as fh:
                return fh.read()[-limit:].decode(errors="replace")
        except OSError:
            return ""

    # -- observation -----------------------------------------------------

    def client(self, **options: Any) -> AsyncKVClient:
        return AsyncKVClient(self.config, **options)

    async def wait_for_leader(self, deadline: float = ELECTION_DEADLINE) -> int:
        """Poll ``status`` until some node leads and has applied an entry,
        i.e. can serve."""
        give_up = time.monotonic() + deadline
        while time.monotonic() < give_up:
            self.check_alive()
            for status in await self.statuses():
                if status and status["role"] == "leader" and status["applied"] > 0:
                    return status["pid"]
            await asyncio.sleep(0.02)
        raise ClusterError(f"no leader within {deadline:.0f}s")

    async def statuses(self) -> List[Optional[Dict[str, Any]]]:
        return await poll_status(self.config)

    async def dump(self) -> List[Dict[str, Any]]:
        """SIGUSR1 every node and read back what each wrote."""
        paths = []
        for pid, proc in enumerate(self.procs):
            if proc is None:
                raise ClusterError(f"node {pid} is not running")
            self._dumps_read[pid] += 1
            paths.append(
                os.path.join(
                    self._node_dir(pid), f"dump-{self._dumps_read[pid]}.json"
                )
            )
            proc.send_signal(signal.SIGUSR1)
        give_up = time.monotonic() + SIGNAL_DEADLINE
        out = []
        for path in paths:
            while not os.path.exists(path):
                self.check_alive()
                if time.monotonic() > give_up:
                    raise ClusterError(f"no dump at {path}")
                await asyncio.sleep(0.005)
            with open(path) as fh:
                out.append(json.load(fh))
            os.unlink(path)
        return out

    def cpu_s(self) -> float:
        """CPU seconds all node processes have used so far."""
        return sum(
            process_cpu_s(proc.pid) for proc in self.procs if proc is not None
        )

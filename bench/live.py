"""The four wall-clock workloads: three node processes, two connections.

The load generator is this process: one thread, one asyncio loop, two
``AsyncKVClient`` connections, each waiting for its reply before sending
again — a **closed loop, 2 clients**.  Loopback TCP with **no injected
message delay**, so latency is processor time plus the server's own
timers.  Runs are sized by operation count (``--seconds`` times a fixed
per-workload rate), not by a timer, so the log is equally long at the end
on both sides of a comparison.
"""

from __future__ import annotations

import asyncio
import os
import time
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from bench import micro
from bench.cluster import ProcessCluster
from bench.loadgen import PUT, OpLog, closed_loop, make_ops, read_back
from bench.measure import (
    NO_FAULT, Outcome, Window, end_to_end, per_layer, problems_of, sample_status,
)
from bench.node import peak_rss_kb
from bench.spans import Recorder, install_client
from bench.stats import percentile

CLIENTS = 2
WARMUP_OPS = 300
#: Boots per untraced run; ``setup_s`` is their median.
SETUPS = 3


@dataclass(frozen=True)
class LiveWorkload:
    name: str
    #: Measured operations per second of ``--seconds``.
    rate: int
    engine: str = "raft"
    read_tier: str = "safe"
    snapshot_threshold: Optional[int] = None
    durable: bool = False
    read_ratio: float = 0.0
    #: Tier the read-back pass asks for (``None`` = the server's own).
    readback_tier: Optional[str] = "readindex"

    def node_options(self) -> List[str]:
        options = ["--engine", self.engine, "--read-tier", self.read_tier]
        if self.snapshot_threshold:
            options += ["--snapshot-threshold", str(self.snapshot_threshold)]
        return options


WORKLOADS = {
    w.name: w
    for w in (
        LiveWorkload("put-mem", rate=200),
        LiveWorkload("put-durable", rate=200, durable=True, snapshot_threshold=1024),
        LiveWorkload(
            "get-lease", rate=2400, read_tier="lease", read_ratio=0.9,
            readback_tier=None,
        ),
        LiveWorkload("put-paxos", rate=200, engine="paxos"),
    )
}


@dataclass
class Pass:
    """One boot-measure-check cycle."""

    setup_s: float
    window: Window
    readback: OpLog
    leader_rss_mb: float
    recover_ms: float = 0.0
    problems: List[str] = field(default_factory=list)


def _streams(seed: int, count: int, phase: str, read_ratio: float) -> List[list]:
    share = count // CLIENTS
    return [
        make_ops(seed, c, share, phase=phase, read_ratio=read_ratio)
        for c in range(CLIENTS)
    ]


async def _boot(
    spec: LiveWorkload, seed: int, run_dir: str, traced: bool
) -> Tuple[ProcessCluster, list, OpLog, float]:
    """First process spawn to warm-up finished; the caller stops it."""
    started = time.perf_counter()
    cluster = ProcessCluster(
        run_dir, node_options=spec.node_options(),
        durable=spec.durable, trace=traced,
    )
    try:
        cluster.start()
        await cluster.wait_for_leader()
        clients = [cluster.client() for _ in range(CLIENTS)]
        warm = OpLog()
        await closed_loop(
            clients, _streams(seed, WARMUP_OPS, "w", spec.read_ratio),
            time.perf_counter, warm, tag="w",
        )
        if warm.failed or warm.wrong:
            raise RuntimeError(f"warm-up failed: {warm.failed} failed, {warm.wrong[:3]}")
    except BaseException:
        cluster.stop()
        raise
    return cluster, clients, warm, time.perf_counter() - started


async def setup_only(spec: LiveWorkload, seed: int, run_dir: str) -> float:
    cluster, clients, _warm, setup_s = await _boot(spec, seed, run_dir, False)
    for client in clients:
        await client.close()
    cluster.stop()
    return setup_s


async def run_pass(
    spec: LiveWorkload,
    seed: int,
    ops: int,
    run_dir: str,
    *,
    traced: bool = False,
    observe: bool = False,
) -> Pass:
    """Boot, warm up, measure ``ops`` operations, check by reading back.

    ``observe`` also reads the nodes' counters around the window and
    samples ``status`` once a second; ``traced`` additionally runs nodes
    and clients under the span wrappers.
    """
    recorder = Recorder() if traced else None
    patches = install_client(recorder) if recorder else None
    cluster, clients, warm, setup_s = await _boot(spec, seed, run_dir, traced)
    sampler: Optional[asyncio.Task] = None
    try:
        streams = _streams(seed, ops, "m", spec.read_ratio)
        window = Window(warm.successor(), 0.0, 0.0, engine=spec.engine)
        window.user_bytes = sum(
            len(op.key) + len(op.value) for s in streams for op in s if op.kind == PUT
        )
        if observe:
            window.before = await cluster.dump()
            sampler = asyncio.ensure_future(
                sample_status(cluster.statuses, window.samples)
            )
        if recorder:
            recorder.drain()
        cpu = cluster.cpu_s() + time.process_time()
        started = time.perf_counter()
        await closed_loop(clients, streams, time.perf_counter, window.log, tag="m")
        window.wall_s = time.perf_counter() - started
        window.cpu_s = cluster.cpu_s() + time.process_time() - cpu
        if sampler:
            sampler.cancel()
            with suppress(asyncio.CancelledError):
                await sampler
            sampler = None
        if recorder:
            drained = recorder.drain()
            window.spans["client"] = drained["spans"]
            window.counts.update(drained["counts"])
        if observe:
            window.after = await cluster.dump()
            for stats in window.after:
                window.spans[f"node-{stats['pid']}"] = stats.get("spans", [])
                window.counts.update(stats.get("counts", {}))

        leader = await cluster.wait_for_leader()
        rss_mb = peak_rss_kb(str(cluster.procs[leader].pid)) / 1024.0
        recover_ms = 0.0
        if spec.durable:
            # Acknowledged means durable: kill -9 every node, re-execute
            # them on the same data dirs, and read back from what they
            # recover.
            for pid in range(cluster.n):
                cluster.kill(pid)
            for pid in range(cluster.n):
                cluster.spawn(pid)
            await cluster.wait_for_leader()
            if observe:
                recover_ms = max(s["build_ms"] for s in await cluster.dump())
        readback = await read_back(
            clients, window.log, time.perf_counter, tag="r", tier=spec.readback_tier,
        )
    finally:
        if sampler:
            sampler.cancel()
        if patches:
            patches.undo()
        for client in clients:
            with suppress(Exception):
                await client.close()
        cluster.stop()
    return Pass(
        setup_s, window, readback, rss_mb, recover_ms,
        problems_of(("window", window.log), ("read-back", readback)),
    )


def load_description(spec: LiveWorkload, ops: int) -> Dict[str, Any]:
    return {
        "loop": "closed", "clients": CLIENTS, "injected_delay_ms": 0,
        "clock": "wall", "nodes": 3, "processes": 3,
        "warmup_ops": WARMUP_OPS, "ops": ops, "read_ratio": spec.read_ratio,
    }


async def run(name: str, seed: int, seconds: int, trace: bool, run_dir: str) -> Outcome:
    """One benchmark run of workload ``name``."""
    spec = WORKLOADS[name]
    if CLIENTS > (os.cpu_count() or 1):
        raise RuntimeError(
            f"{CLIENTS} client connections need {CLIENTS} processors, "
            f"this host has {os.cpu_count()}"
        )
    ops = spec.rate * seconds
    load = load_description(spec, ops)

    def sub(tag: str) -> str:
        return os.path.join(run_dir, tag)

    if not trace:
        setups = [
            await setup_only(spec, seed, sub(f"setup-{i}")) for i in range(SETUPS - 1)
        ]
        done = await run_pass(spec, seed, ops, sub("measure"))
        setups.append(done.setup_s)
        metrics = end_to_end(
            done.window, setups=setups, leader_rss_mb=done.leader_rss_mb
        )
        passes = [done]
    else:
        reference = await run_pass(spec, seed, ops, sub("reference"), observe=True)
        traced = await run_pass(spec, seed, ops, sub("traced"), traced=True, observe=True)
        extra = dict(NO_FAULT)
        extra["storage.recover_ms"] = (reference.recover_ms, 1)
        extra.update(await micro.isolated(sub("iso-wal")))
        metrics = per_layer(
            reference.window, traced.window,
            gets_ms=reference.window.log.get_ms() or reference.readback.get_ms(),
            overhead_of=lambda w: percentile(w.log.put_ms(), 50), extra=extra,
        )
        passes = [reference, traced]
    return Outcome(
        metrics,
        attempted=sum(p.window.log.attempted + p.readback.attempted for p in passes),
        failed=sum(p.window.log.failed + p.readback.failed for p in passes),
        problems=[line for p in passes for line in p.problems],
        load=load,
    )

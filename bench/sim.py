"""The two workloads that run the live stack on ``SimRuntime``'s virtual clock.

Here the whole cluster and its clients share this process and one
deterministic scheduler: timers cost nothing, links take 0.5 ms one way
(``SimRuntime``'s default), and every count and every virtual time is a
pure function of the seed.  What stays a measurement is processor time:
``cpu_ms_per_op``, ``ops_s`` and ``setup_s`` read the real clocks.

``batch-sim`` is the only run where batches fill (16 closed-loop clients),
so its CPU per operation is the single-core capacity figure that two real
connections cannot give.  ``failover-sim`` is the fault run: puts are sent
on a schedule, the leader loses power, comes back and catches up, and at
the end the whole cluster loses power before the read-back.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import statistics
import subprocess
import sys
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.checker import check_history
from repro.chaos.history import GET, PUT, History, OpRecord
from repro.core.runtime import SimRuntime
from repro.live.client import AsyncKVClient
from repro.live.harness import LiveKVCluster

from bench import micro
from bench.cluster import poll_status
from bench.loadgen import (
    OpLog, client_seed, closed_loop, make_ops, make_schedule, read_back, scheduled,
)
from bench.measure import (
    NO_FAULT, Metric, Outcome, Window, end_to_end, per_layer, problems_of,
    sample_status,
)
from bench.node import node_stats, peak_rss_kb, watch_elections
from bench.spans import Recorder, install_client, install_node

WORKLOADS = ("batch-sim", "failover-sim")

#: Metrics that, on these workloads, are pure functions of the seed: virtual
#: times and counts.  Two runs with one seed must report them identically.
EXACT_METRICS = frozenset({
    "put_p50_ms", "put_p90_ms", "put_p50_drift", "client.put_p99_ms",
    "client.get_p50_ms", "client.get_p90_ms", "client.get_p99_ms",
    "client.retries_per_op",
    "client.redirects_per_op", "kv.batch_occupancy", "runtime.timers_per_op",
    "repl.msgs_per_op", "repl.bytes_per_op", "repl.retained_entries_end",
    "repl.follower_lag_max", "repl.terms_advanced", "repl.elections_no_winner",
    "read.lease_hit_ratio", "read.probe_rounds_per_get", "codec.bytes_per_frame",
    "transport.frames_per_write", "transport.writes_per_op",
    "transport.reconnects", "transport.dropped", "wal.appends_per_op",
    "wal.fsyncs_per_op", "wal.bytes_per_user_byte", "storage.compactions",
    "storage.fsync_queue_depth_max", "storage.watermark_lag_max",
    "fault.unavailable_vs", "fault.late_share", "fault.catchup_vs",
})

#: What every simulated run's load record starts from.
SIM_LOAD = {"injected_delay_ms": 0.5, "clock": "virtual", "nodes": 3, "processes": 1}

#: Virtual seconds one simulated world may run.
SIM_DEADLINE = 900.0
#: Wall seconds all of a run's fault scenarios may take together.
SCENARIOS_DEADLINE = 160.0
#: Virtual seconds a simulated cluster may take to elect a leader.
ELECTION_DEADLINE = 20.0
#: Upper end of the seeded pause before each closed-loop send.
THINK = 0.001

BATCH_CLIENTS = 16
BATCH_WARMUP = 64
BATCH_RATE = 5000  # measured puts per second of --seconds
BATCH_SETUPS = 15

FAILOVER_CLIENTS = 8
FAILOVER_WARMUP = 48
FAILOVER_PERIOD = 0.02  # virtual seconds between scheduled puts
FAILOVER_SCENARIOS = 3
#: When the leader loses power and when it returns, as shares of the run.
KILL_AT, RESTART_AT = 0.1, 0.25
#: A scheduled put answered later than this after its due time is late.
LATE = 0.1


class SimWorld:
    """A ``LiveKVCluster`` under ``SimRuntime`` with the harness's taps."""

    def __init__(self, rt: SimRuntime, **cluster_options: Any):
        self.rt = rt
        self.cluster = LiveKVCluster(3, runtime=rt, **cluster_options)
        self._incarnation = [0] * 3
        self._terms_won = [watch_elections(server) for server in self.cluster.servers]
        #: Last counters of servers that were killed.
        self._retired: List[Dict[str, Any]] = []

    def clients(self, count: int) -> List[AsyncKVClient]:
        return [AsyncKVClient(self.cluster.cluster) for _ in range(count)]

    async def boot(self) -> int:
        await self.cluster.start()
        return await self.cluster.wait_for_leader(ELECTION_DEADLINE)

    def dump(self) -> List[Dict[str, Any]]:
        live = [
            node_stats(server, self._terms_won[pid], self._incarnation[pid])
            for pid, server in enumerate(self.cluster.servers)
            if server is not None
        ]
        return self._retired + live

    async def kill(self, pid: int) -> None:
        server = self.cluster.servers[pid]
        self._retired.append(
            node_stats(server, self._terms_won[pid], self._incarnation[pid])
        )
        await self.cluster.kill(pid)

    async def restart(self, pid: int) -> Any:
        server = await self.cluster.restart(pid)
        self._incarnation[pid] += 1
        self._terms_won[pid] = watch_elections(server)
        return server

    async def statuses(self) -> List[Optional[Dict[str, Any]]]:
        return await poll_status(self.cluster.cluster)


@dataclass
class Pass:
    setup_s: float
    window: Window
    readback: OpLog
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, Metric] = field(default_factory=dict)


def _in_world(scenario: Callable[[SimRuntime], Any]) -> Any:
    """Run ``scenario(rt)`` in a fresh simulated world, which fails
    instead of hanging if it is still going after :data:`SIM_DEADLINE`."""
    rt = SimRuntime()
    try:
        return rt.run(scenario(rt), timeout=SIM_DEADLINE)
    finally:
        rt.close()


async def _close(clients: List[AsyncKVClient]) -> None:
    for client in clients:
        with suppress(Exception):
            await client.close()


class _Observation:
    """Counters, status samples and (traced) spans around one window.

    Under ``traced`` the span wrappers go in at construction — before the
    cluster is built, so every node runs under them from its first step —
    and come out in :meth:`uninstall`.
    """

    def __init__(self, observe: bool, traced: bool):
        self.observe = observe
        self.recorder = Recorder() if traced else None
        self._patches = (
            [install_node(self.recorder), install_client(self.recorder)]
            if self.recorder else []
        )
        self._sampler: Optional[asyncio.Task] = None

    def open(self, world: SimWorld, window: Window) -> None:
        self.world, self.window = world, window
        if self.observe:
            window.before = world.dump()
            self._sampler = asyncio.ensure_future(
                sample_status(world.statuses, window.samples)
            )
        if self.recorder:
            self.recorder.drain()

    async def close(self) -> None:
        if self._sampler:
            self._sampler.cancel()
            with suppress(asyncio.CancelledError):
                await self._sampler
            self._sampler = None
        if self.recorder:
            drained = self.recorder.drain()
            self.window.spans["sim"] = drained["spans"]
            self.window.counts.update(drained["counts"])
        if self.observe:
            self.window.after = self.world.dump()

    def uninstall(self) -> None:
        if self._sampler:
            self._sampler.cancel()
        for patches in self._patches:
            patches.undo()


# ----------------------------------------------------------------------
# batch-sim
# ----------------------------------------------------------------------


async def _batch_boot(rt: SimRuntime, seed: int) -> Tuple[SimWorld, list, OpLog, float]:
    started = time.perf_counter()
    world = SimWorld(rt, snapshot_threshold=1024)
    await world.boot()
    clients = world.clients(BATCH_CLIENTS)
    warm = OpLog()
    streams = [
        make_ops(seed, c, BATCH_WARMUP // BATCH_CLIENTS, phase="w", think=THINK)
        for c in range(BATCH_CLIENTS)
    ]
    await closed_loop(clients, streams, rt.now, warm, tag="w")
    if warm.failed:
        raise RuntimeError(f"warm-up: {warm.failed} operations failed")
    return world, clients, warm, time.perf_counter() - started


async def _batch_setup_only(rt: SimRuntime, seed: int) -> float:
    world, clients, _warm, setup_s = await _batch_boot(rt, seed)
    await _close(clients)
    await world.cluster.stop()
    return setup_s


async def _batch_pass(
    rt: SimRuntime, seed: int, ops: int, observe: bool, traced: bool
) -> Pass:
    watch = _Observation(observe, traced)
    try:
        world, clients, warm, setup_s = await _batch_boot(rt, seed)
    except BaseException:
        watch.uninstall()
        raise
    window = Window(warm.successor(), 0.0, 0.0)
    try:
        streams = [
            make_ops(seed, c, ops // BATCH_CLIENTS, phase="m", think=THINK)
            for c in range(BATCH_CLIENTS)
        ]
        window.user_bytes = sum(len(op.key) + len(op.value) for s in streams for op in s)
        watch.open(world, window)
        cpu, started = time.process_time(), time.perf_counter()
        await closed_loop(clients, streams, rt.now, window.log, tag="m")
        window.wall_s = time.perf_counter() - started
        window.cpu_s = time.process_time() - cpu
        await watch.close()
        readback = await read_back(
            clients, window.log, rt.now, tag="r", tier="readindex",
            think=THINK, seed=seed,
        )
    finally:
        watch.uninstall()
        await _close(clients)
        await world.cluster.stop()
    return Pass(
        setup_s, window, readback,
        problems_of(("window", window.log), ("read-back", readback)),
    )


# ----------------------------------------------------------------------
# failover-sim
# ----------------------------------------------------------------------


def _history(records: List[tuple]) -> History:
    """The clients' records as the linearizability checker's history."""
    ops = []
    for i, (client, kind, key, value, sent, returned, acked) in enumerate(records):
        if kind == PUT:
            # An unacknowledged put may still have taken effect: open-ended.
            ops.append(OpRecord(
                f"op-{i}", client, PUT, key, value, inv=sent,
                ret=returned if acked else None, ok=True if acked else None,
            ))
        else:
            ops.append(OpRecord(
                f"op-{i}", client, GET, key, value, inv=sent, ret=returned,
                ok=acked, found=value is not None,
            ))
    return History.from_ops(ops)


async def _failover_pass(
    rt: SimRuntime, scenario: int, seed: int, duration: float, data_dir: str,
    observe: bool, traced: bool,
) -> Pass:
    """One scenario: boot, warm up, scheduled puts with the leader losing
    power a tenth and returning a quarter of the way through, then power
    off the whole cluster, recover, read back."""
    kill_at, restart_at = duration * KILL_AT, duration * RESTART_AT
    started = time.perf_counter()
    # The fault scenario (who leads, when elections fire) is fixed by the
    # cluster's own seed; ``--seed`` only makes the requests.  A run's
    # figures then differ from another seed's by the requests alone.
    world = SimWorld(rt, seed=scenario, data_dir=data_dir)
    seed = client_seed(seed, scenario, "scenario")
    cluster = world.cluster
    clients: List[AsyncKVClient] = []
    fault: Dict[str, float] = {}
    watch = _Observation(observe, traced)
    try:
        await world.boot()
        clients = world.clients(FAILOVER_CLIENTS)
        streams = [
            make_ops(seed, c, FAILOVER_WARMUP // FAILOVER_CLIENTS, phase="w", think=THINK)
            for c in range(FAILOVER_CLIENTS)
        ]
        warm = OpLog(records=[])  # every op is kept, for the checker
        await closed_loop(clients, streams, rt.now, warm, tag="w")
        setup_s = time.perf_counter() - started
        window = Window(warm.successor(), 0.0, 0.0)
        schedules = [
            make_schedule(
                seed, c, FAILOVER_CLIENTS, duration, FAILOVER_PERIOD, think=THINK
            )
            for c in range(FAILOVER_CLIENTS)
        ]
        window.user_bytes = sum(len(op.key) + len(op.value) for s in schedules for op in s)

        async def nemesis(origin: float) -> None:
            await asyncio.sleep(kill_at)
            victim = cluster.leader_pid()
            if victim is None:
                raise RuntimeError("no leader to kill")
            fault["killed_at"] = rt.now()
            await world.kill(victim)
            await asyncio.sleep(origin + restart_at - rt.now())
            cpu, wall, virtual = time.process_time(), time.perf_counter(), rt.now()
            server = await world.restart(victim)
            fault["recover_ms"] = (time.perf_counter() - wall) * 1e3
            while True:
                leader = cluster.leader_pid()
                if leader is not None and leader != victim and (
                    server.node.last_applied
                    >= cluster.servers[leader].node.commit_index
                ):
                    break
                await asyncio.sleep(0.005)
            fault["catchup_vs"] = rt.now() - virtual
            fault["catchup_cpu_s"] = time.process_time() - cpu

        watch.open(world, window)
        cpu, wall = time.process_time(), time.perf_counter()
        await asyncio.gather(
            scheduled(clients, schedules, rt.now, window.log, tag="m"),
            nemesis(rt.now()),
        )
        window.wall_s = time.perf_counter() - wall
        window.cpu_s = time.process_time() - cpu
        await watch.close()

        # Durability: power off every node (unsynced WAL is discarded),
        # recover all three from disk, and read back.
        for pid in range(3):
            await cluster.kill(pid)
        for pid in range(3):
            await cluster.restart(pid)
        await cluster.wait_for_leader(ELECTION_DEADLINE)
        readback = await read_back(
            clients, window.log, rt.now, tag="r", tier="readindex",
            think=THINK, seed=seed,
        )
    finally:
        watch.uninstall()
        await _close(clients)
        await cluster.stop()

    problems = problems_of(("window", window.log), ("read-back", readback))
    report = check_history(_history(readback.records), time_budget=30.0)
    if report.ok is not True:
        problems.append(f"history: {report.summary()}")

    acks = sorted(end for _due, end in window.log.puts)
    killed = fault["killed_at"]
    before = max((t for t in acks if t <= killed), default=killed)
    after = min((t for t in acks if t > killed), default=before)
    scheduled_ops = sum(len(s) for s in schedules)
    late = sum(1 for due, end in window.log.puts if end - due > LATE)
    late += scheduled_ops - len(window.log.puts)
    extra = {
        "fault.unavailable_vs": (after - before, 1),
        "fault.late_share": (late / scheduled_ops, scheduled_ops),
        "fault.catchup_vs": (fault["catchup_vs"], 1),
        "fault.catchup_cpu_s": (fault["catchup_cpu_s"], 1),
        "storage.recover_ms": (fault["recover_ms"], 1),
    }
    return Pass(setup_s, window, readback, problems, extra)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def _cpu_per_op(window: Window) -> float:
    return window.cpu_s / window.log.acked


def _outcome(metrics: Dict[str, Metric], passes: List[Pass], load: Dict[str, Any]) -> Outcome:
    return Outcome(
        metrics,
        attempted=sum(p.window.log.attempted + p.readback.attempted for p in passes),
        failed=sum(p.window.log.failed + p.readback.failed for p in passes),
        problems=[line for p in passes for line in p.problems],
        load=load,
    )


def _run_batch(seed: int, seconds: int, trace: bool, run_dir: str) -> Outcome:
    ops = BATCH_RATE * seconds
    load = dict(
        SIM_LOAD, loop="closed", clients=BATCH_CLIENTS, warmup_ops=BATCH_WARMUP,
        ops=ops, think_ms=THINK * 1e3,
    )

    def go(observe: bool, traced: bool) -> Pass:
        return _in_world(lambda rt: _batch_pass(rt, seed, ops, observe, traced))

    if not trace:
        setups = [
            _in_world(lambda rt: _batch_setup_only(rt, seed))
            for _ in range(BATCH_SETUPS - 1)
        ]
        done = go(False, False)
        setups.append(done.setup_s)
        metrics = end_to_end(
            done.window, setups=setups, leader_rss_mb=peak_rss_kb() / 1024.0
        )
        return _outcome(metrics, [done], load)
    reference, traced = go(True, False), go(True, True)
    extra = dict(NO_FAULT)
    extra.update(asyncio.run(micro.isolated(os.path.join(run_dir, "iso-wal"))))
    metrics = per_layer(
        reference.window, traced.window, gets_ms=reference.readback.get_ms(),
        overhead_of=_cpu_per_op, extra=extra,
    )
    return _outcome(metrics, [reference, traced], load)


def failover_scenario(
    scenario: int, seed: int, duration: float, trace: bool, run_dir: str
) -> Outcome:
    """One fault scenario, start to finish.  Runs in a process of its own,
    so that its peak memory and its collector's state are its own."""

    def go(observe: bool, traced: bool, tag: str) -> Pass:
        data_dir = os.path.join(run_dir, f"{tag}-{scenario}")
        return _in_world(
            lambda rt: _failover_pass(rt, scenario, seed, duration, data_dir, observe, traced)
        )

    if not trace:
        done = go(False, False, "scenario")
        metrics = end_to_end(
            done.window, setups=[done.setup_s], leader_rss_mb=peak_rss_kb() / 1024.0
        )
        return _outcome(metrics, [done], {})
    reference, traced = go(True, False, "reference"), go(True, True, "traced")
    metrics = per_layer(
        reference.window, traced.window, gets_ms=reference.readback.get_ms(),
        overhead_of=_cpu_per_op, extra=reference.extra,
    )
    return _outcome(metrics, [reference, traced], {})


def _scenario_process(
    scenario: int, seed: int, duration: float, trace: bool, run_dir: str,
    give_up: float,
) -> Outcome:
    """:func:`failover_scenario` in a child process, which has ended and
    been reaped when this returns or raises."""
    result = os.path.join(run_dir, f"outcome-{scenario}.pickle")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [root, os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]
    child = subprocess.Popen(
        [
            sys.executable, "-m", "bench.sim", str(scenario), str(seed),
            repr(duration), str(int(trace)), run_dir, result,
        ],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    try:
        code = child.wait(timeout=max(0.0, give_up - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(
            f"scenario {scenario} still running after {SCENARIOS_DEADLINE:.0f}s"
        ) from None
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0:
        raise RuntimeError(f"scenario {scenario} exited with code {code}")
    with open(result, "rb") as fh:
        return pickle.load(fh)


def _run_failover(seed: int, seconds: int, trace: bool, run_dir: str) -> Outcome:
    duration = 2.0 * seconds  # virtual
    load = dict(
        SIM_LOAD, loop="scheduled", clients=FAILOVER_CLIENTS,
        warmup_ops=FAILOVER_WARMUP,
        ops=int(duration / FAILOVER_PERIOD) * FAILOVER_SCENARIOS,
        period_ms=FAILOVER_PERIOD * 1e3, scenarios=FAILOVER_SCENARIOS,
        leader_killed_at_vs=duration * KILL_AT, restarted_at_vs=duration * RESTART_AT,
    )
    give_up = time.monotonic() + SCENARIOS_DEADLINE
    parts = [
        _scenario_process(k, seed, duration, trace, run_dir, give_up)
        for k in range(FAILOVER_SCENARIOS)
    ]
    # Per metric, the median over the scenarios; sample counts add up.
    metrics = {
        name: (
            statistics.median(part.metrics[name][0] for part in parts),
            sum(part.metrics[name][1] for part in parts),
        )
        for name in parts[0].metrics
    }
    if trace:
        metrics.update(asyncio.run(micro.isolated(os.path.join(run_dir, "iso-wal"))))
    return Outcome(
        metrics,
        attempted=sum(part.attempted for part in parts),
        failed=sum(part.failed for part in parts),
        problems=[line for part in parts for line in part.problems],
        load=load,
    )


def run(name: str, seed: int, seconds: int, trace: bool, run_dir: str) -> Outcome:
    """One benchmark run of a simulated workload."""
    runner = _run_batch if name == "batch-sim" else _run_failover
    return runner(seed, seconds, trace, run_dir)


def _exit_with_parent() -> None:
    """End this process when its parent has: a killed harness leaves no
    scenario behind."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(3)

    threading.Thread(target=watch, daemon=True).start()


def main(argv: List[str]) -> int:
    """``python -m bench.sim SCENARIO SEED DURATION TRACE RUN_DIR RESULT``:
    one fault scenario, its :class:`Outcome` pickled into ``RESULT``."""
    scenario, seed, duration, trace, run_dir, result = argv
    _exit_with_parent()
    outcome = failover_scenario(
        int(scenario), int(seed), float(duration), bool(int(trace)), run_dir
    )
    with open(result, "wb") as fh:
        pickle.dump(outcome, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One benchmark cluster node: a ``KVServer`` in its own OS process.

Built the way ``python -m repro serve`` builds it, passing *only* the
options that define a workload (engine, data dir, read tier, snapshot
threshold) and never a tuning knob, so a later change of a default in
``src/`` shows in the numbers.

Control is by signal, so nothing is added to the server's own protocol:

* ``SIGUSR1`` writes ``dump-<n>.json`` (``n`` = 1, 2, ...) into
  ``--dump-dir``: the node's public counters and, under ``--trace``, the
  spans recorded since the previous dump;
* ``SIGTERM`` / ``SIGINT`` stop the server gracefully.

The process also exits when its parent does, so a killed harness leaves
no node behind.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench.spans import Recorder, install_node  # noqa: E402
from repro.live.config import ClusterConfig  # noqa: E402
from repro.live.kv import KVServer  # noqa: E402
from repro.sim import trace as tr  # noqa: E402


def peak_rss_kb(pid: str = "self") -> int:
    """``VmHWM`` of a process, in kB (0 where /proc has no such line)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def watch_elections(server: KVServer) -> List[int]:
    """A list that grows by one leadership epoch each time ``server``
    wins an election (read from its ``leader`` trace annotations)."""
    terms_won: List[int] = []

    def on_trace(event: Any) -> None:
        if event.kind == tr.ANNOTATE and event.detail[0] == "leader":
            terms_won.append(event.detail[1][0])

    server.runtime.trace.subscribe(on_trace)
    return terms_won


def node_stats(
    server: KVServer, terms_won: List[int], incarnation: int = 0
) -> Dict[str, Any]:
    """The node's public counters, as one JSON-ready dict.

    ``incarnation`` tells a restarted server from the one it replaces:
    each counts from zero.
    """
    shard = server.shards[0]
    node = shard.node
    storage = shard.storage
    stats: Dict[str, Any] = {
        "node": f"{server.pid}.{incarnation}",
        "pid": server.pid,
        "role": node.state,
        "term": node.current_term,
        "retained_entries": len(node.log),
        "terms_won": list(terms_won),
        "transport": server.transport.stats.as_dict(),
        "batches": shard.flushed_batches,
        "batched_ops": shard.flushed_ops,
        "wal": None,
    }
    if storage is not None:
        wal = storage.stats
        stats["wal"] = {
            "appends": wal.appends,
            "syncs": wal.syncs,
            "bytes_written": wal.bytes_written,
            "compactions": storage.compactions,
            "max_compact_s": storage.max_compact_seconds,
        }
    return stats


async def serve(args: argparse.Namespace) -> int:
    recorder: Optional[Recorder] = None
    if args.trace:
        recorder = Recorder()
        install_node(recorder)
    options: Dict[str, Any] = {"engine": args.engine, "read_tier": args.read_tier}
    if args.data_dir:
        options["data_dir"] = args.data_dir
    if args.snapshot_threshold:
        options["snapshot_threshold"] = args.snapshot_threshold
    built = time.perf_counter()
    server = KVServer(ClusterConfig.from_spec(args.peers), args.pid, **options)
    build_ms = (time.perf_counter() - built) * 1e3

    terms_won = watch_elections(server)
    await server.start()

    loop = asyncio.get_running_loop()
    stopped = loop.create_future()
    dumps = 0

    def dump() -> None:
        nonlocal dumps
        dumps += 1
        stats = node_stats(server, terms_won)
        stats["build_ms"] = build_ms
        if recorder is not None:
            stats.update(recorder.drain())
        path = os.path.join(args.dump_dir, f"dump-{dumps}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(stats, fh)
        os.replace(path + ".tmp", path)

    def stop() -> None:
        if not stopped.done():
            stopped.set_result(None)

    loop.add_signal_handler(signal.SIGUSR1, dump)
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop)

    async def watch_parent() -> None:
        parent = os.getppid()
        while os.getppid() == parent:
            await asyncio.sleep(1.0)
        stop()

    watcher = asyncio.ensure_future(watch_parent())
    print("ready", flush=True)
    try:
        await stopped
    finally:
        watcher.cancel()
        await server.stop()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pid", type=int, required=True)
    parser.add_argument("--peers", required=True)
    parser.add_argument("--dump-dir", required=True)
    parser.add_argument("--engine", default="raft")
    parser.add_argument("--read-tier", default="safe")
    parser.add_argument("--data-dir", default=None)
    parser.add_argument("--snapshot-threshold", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    return asyncio.run(serve(parser.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())

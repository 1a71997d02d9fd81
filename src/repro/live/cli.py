"""``python -m repro serve | client | loadgen`` — the live-cluster CLI.

``serve`` runs one :class:`~repro.live.kv.KVServer` in this OS process
until SIGINT/SIGTERM; start one per node of the ``--peers`` list.
``client`` issues a single ``put``/``get``/``status``.  ``loadgen``
drives a running cluster closed-loop (``--ops``/``--concurrency``) or
open-loop (``--rate``/``--duration``) and prints a latency summary.

Example 3-node localhost cluster (three terminals + one more)::

    python -m repro serve --pid 0 --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402
    python -m repro serve --pid 1 --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402
    python -m repro serve --pid 2 --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402
    python -m repro client --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402 put greeting hello
    python -m repro loadgen --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402 --ops 500
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import List, Optional, Tuple

from repro.live.client import AsyncKVClient
from repro.live.config import (
    DEFAULT_MAX_INFLIGHT,
    ClusterConfig,
    validate_max_inflight,
    validate_shards,
)
from repro.live.engine import DEFAULT_ENGINE, ENGINES, EngineError, parse_engine_spec
from repro.live.kv import (
    DEFAULT_DRIFT_BOUND,
    DEFAULT_STALENESS_BOUND,
    READ_TIERS,
    KVServer,
)
from repro.live.loadgen import KEY_DISTRIBUTIONS, run_closed_loop, run_open_loop
from repro.storage.engine import SYNC_MODES, StorageQuarantineError


def _parse_max_inflight(text: str) -> int:
    try:
        return validate_max_inflight(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_shards(text: str) -> int:
    try:
        return validate_shards(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_client_shards_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards",
        type=_parse_shards,
        default=None,
        metavar="S",
        help="the cluster's shard count; omit to discover it from the "
        "cluster (one status round trip)",
    )


def _add_engine_argument(parser: argparse.ArgumentParser, serve: bool) -> None:
    if serve:
        help_text = (
            "consensus backend per shard: one of "
            f"{'/'.join(sorted(ENGINES))}, or a comma-separated list with "
            "one name per shard (e.g. raft,ct); must match the rest of "
            f"the cluster (default {DEFAULT_ENGINE})"
        )
    else:
        help_text = (
            "the engine the cluster is expected to run; checked against "
            "the servers' advertised engine and mismatches fail loudly "
            "(omit to skip the check)"
        )
    parser.add_argument(
        "--engine",
        default=DEFAULT_ENGINE if serve else None,
        metavar="SPEC",
        help=help_text,
    )


async def _check_engine(client: AsyncKVClient, expected: str) -> None:
    """Fail loudly when the cluster's engine differs from ``expected``."""
    for pid in range(client.cluster.n):
        try:
            status = await client.status_of(pid)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            continue
        advertised = status["engine"]
        if advertised != expected:
            raise EngineError(
                f"cluster runs engine {advertised!r}, not {expected!r} "
                f"(node {pid}); re-run with --engine {advertised}"
            )
        return
    raise EngineError("no node reachable to confirm the cluster engine")


def _parse_timeout_range(spec: str) -> Tuple[float, float]:
    """Parse ``lo,hi`` (seconds) into an election-timeout range."""
    try:
        lo_text, hi_text = spec.split(",")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad timeout range {spec!r}: use lo,hi (e.g. 0.3,0.6)"
        )
    if not 0 < lo <= hi:
        raise argparse.ArgumentTypeError(
            f"bad timeout range {spec!r}: need 0 < lo <= hi"
        )
    return lo, hi


def _add_peers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--peers",
        required=True,
        type=ClusterConfig.from_spec,
        metavar="HOST:PORT[:CLIENTPORT],...",
        help="full cluster membership, in pid order",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Live-cluster commands (see docs/live.md).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve",
        help="run one replicated-KV node until interrupted",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "read tiers (--read-tier, see docs/reads.md):\n"
            "  safe       linearizable get as a committed log marker "
            "(default)\n"
            "  readindex  one acked append round per get batch confirms "
            "leadership, no log writes\n"
            "  lease      zero-round local reads while the clock-based "
            "leader lease is live\n"
            "  follower   like lease on the leader; clients may also "
            "read bounded-stale\n"
            "             state from any replica (client get "
            "--staleness)\n"
            "The lease/follower tiers assume bounded clock drift: a "
            "clock up to f times\n"
            "slow needs --drift-bound >= lease * (1 - 1/f)."
        ),
    )
    _add_peers_argument(serve)
    serve.add_argument("--pid", type=int, required=True, help="this node's pid")
    serve.add_argument("--seed", type=int, default=0, help="run seed")
    serve.add_argument(
        "--shards",
        type=_parse_shards,
        default=1,
        metavar="S",
        help="independent consensus groups hosted by this node; must match "
        "the rest of the cluster (default 1)",
    )
    _add_engine_argument(serve, serve=True)
    serve.add_argument(
        "--election-timeout",
        type=_parse_timeout_range,
        default=(0.3, 0.6),
        metavar="LO,HI",
        help="election timer range in seconds (default 0.3,0.6)",
    )
    serve.add_argument(
        "--heartbeat",
        type=float,
        default=0.06,
        help="leader heartbeat interval in seconds (default 0.06)",
    )
    serve.add_argument(
        "--snapshot-threshold",
        type=int,
        default=None,
        help="compact the Raft log above this many entries",
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="persist consensus state (term, vote, log, snapshots) under "
        "DIR and recover it on restart; omit for the in-memory behaviour",
    )
    serve.add_argument(
        "--sync-mode",
        choices=SYNC_MODES,
        default="inline",
        help="WAL durability pipeline under --data-dir: inline blocks the "
        "event loop on every group fsync (default); pipelined hands the "
        "fsync to a dedicated thread and releases acks when the "
        "durability watermark catches up (see docs/performance.md)",
    )
    serve.add_argument(
        "--status-interval",
        type=float,
        default=None,
        metavar="SECS",
        help="print one commit-pipeline health line (fsync queue depth, "
        "watermark lag, batch occupancy, frames per write) every SECS "
        "seconds",
    )
    serve.add_argument(
        "--no-rejoin",
        action="store_true",
        help="strict quarantine: refuse to start when the durable state "
        "under --data-dir is corrupt, instead of moving it aside and "
        "rejoining as an empty follower (see docs/storage.md for the "
        "trade-off)",
    )
    serve.add_argument(
        "--read-tier",
        choices=READ_TIERS,
        default="safe",
        help="default serving tier for linearizable gets (see epilog; "
        "default safe); clients can override per request",
    )
    serve.add_argument(
        "--lease-duration",
        type=float,
        default=None,
        metavar="SECS",
        help="leader-lease / follower-stickiness window; defaults to the "
        "election-timeout floor when --read-tier is lease or follower, "
        "else 0 (lease machinery off)",
    )
    serve.add_argument(
        "--drift-bound",
        type=float,
        default=DEFAULT_DRIFT_BOUND,
        metavar="SECS",
        help="clock-drift allowance subtracted from every lease "
        f"(default {DEFAULT_DRIFT_BOUND}); 0 is UNSAFE under skewed "
        "clocks and exists for the chaos canary",
    )
    serve.add_argument(
        "--staleness-bound",
        type=float,
        default=DEFAULT_STALENESS_BOUND,
        metavar="SECS",
        help="cap on the staleness bound follower reads may request "
        f"(default {DEFAULT_STALENESS_BOUND})",
    )
    serve.add_argument(
        "--max-inflight",
        type=_parse_max_inflight,
        default=DEFAULT_MAX_INFLIGHT,
        metavar="N",
        help="replication pipeline depth: hold new proposals while this "
        f"many entries are uncommitted (>= 1, default {DEFAULT_MAX_INFLIGHT})",
    )

    client = commands.add_parser("client", help="issue one KV request")
    _add_peers_argument(client)
    _add_client_shards_argument(client)
    _add_engine_argument(client, serve=False)
    sub = client.add_subparsers(dest="operation", required=True)
    put = sub.add_parser("put", help="replicate KEY -> VALUE")
    put.add_argument("key")
    put.add_argument("value")
    get = sub.add_parser("get", help="read KEY (local read, may be stale)")
    get.add_argument("key")
    get.add_argument(
        "--tier",
        choices=("safe", "readindex", "lease"),
        default=None,
        help="linearizable read through the leader at this tier "
        "(omit for the plain local read)",
    )
    get.add_argument(
        "--staleness",
        type=float,
        default=None,
        metavar="SECS",
        help="bounded-stale read: accept any replica whose state is "
        "provably at most SECS old (fans out, followers first)",
    )
    sub.add_parser("status", help="print each node's role/term/indices")

    loadgen = commands.add_parser(
        "loadgen", help="drive a running cluster and report latency"
    )
    _add_peers_argument(loadgen)
    loadgen.add_argument(
        "--ops", type=int, default=200, help="closed-loop: total writes"
    )
    loadgen.add_argument(
        "--concurrency", type=int, default=4, help="closed-loop: workers"
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop: arrivals per second (switches mode)",
    )
    loadgen.add_argument(
        "--duration",
        type=float,
        default=2.0,
        help="open-loop: seconds to run (default 2.0)",
    )
    loadgen.add_argument(
        "--value-size", type=int, default=16, help="bytes per value"
    )
    loadgen.add_argument(
        "--key-space", type=int, default=128, help="distinct keys"
    )
    loadgen.add_argument("--seed", type=int, default=0, help="workload seed")
    loadgen.add_argument(
        "--key-dist",
        choices=KEY_DISTRIBUTIONS,
        default="uniform",
        help="key popularity: uniform (default) or zipf (hot-key skew)",
    )
    loadgen.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        metavar="S",
        help="zipf exponent; larger = more skew (default 1.1)",
    )
    loadgen.add_argument(
        "--read-ratio",
        type=float,
        default=0.0,
        metavar="R",
        help="fraction of ops issued as linearizable gets instead of "
        "puts (default 0.0; combinable with --key-dist zipf)",
    )
    loadgen.add_argument(
        "--read-tier",
        choices=("safe", "readindex", "lease"),
        default=None,
        help="serving tier requested for the gets (omit for the "
        "servers' default tier)",
    )
    loadgen.add_argument(
        "--read-staleness",
        type=float,
        default=None,
        metavar="SECS",
        help="issue the gets as bounded-stale follower reads with this "
        "staleness bound instead of linearizable reads",
    )
    _add_client_shards_argument(loadgen)
    _add_engine_argument(loadgen, serve=False)
    loadgen.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the report as JSON to PATH",
    )
    return parser


def _format_pipeline(pipeline: dict) -> str:
    """One human line of commit-pipeline health (serve + client status)."""
    return (
        f"sync={pipeline['sync_mode']} "
        f"fsync_queue={pipeline['fsync_queue_depth']} "
        f"watermark_lag={pipeline['watermark_lag']} "
        f"fsyncs/commit={pipeline['fsyncs_per_commit']} "
        f"batch_occupancy={pipeline['batch_occupancy']} "
        f"frames/write={pipeline['frames_per_write']}"
    )


async def _report_pipeline(server: KVServer, pid: int, interval: float) -> None:
    """Periodically print pipeline health until cancelled (serve --status-interval)."""
    try:
        while True:
            await asyncio.sleep(interval)
            print(
                f"node {pid} pipeline: {_format_pipeline(server.pipeline_status())}",
                flush=True,
            )
    except asyncio.CancelledError:  # pragma: no cover - shutdown race
        pass


async def _serve(args: argparse.Namespace) -> int:
    if not 0 <= args.pid < args.peers.n:
        print(
            f"error: --pid {args.pid} outside cluster of {args.peers.n}",
            file=sys.stderr,
        )
        return 2
    try:
        parse_engine_spec(args.engine, args.shards)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        server = KVServer(
            args.peers,
            args.pid,
            seed=args.seed,
            shards=args.shards,
            engine=args.engine,
            election_timeout=args.election_timeout,
            heartbeat_interval=args.heartbeat,
            snapshot_threshold=args.snapshot_threshold,
            max_inflight=args.max_inflight,
            data_dir=args.data_dir,
            sync_mode=args.sync_mode,
            no_rejoin=args.no_rejoin,
            read_tier=args.read_tier,
            lease_duration=args.lease_duration,
            drift_bound=args.drift_bound,
            staleness_bound=args.staleness_bound,
        )
    except StorageQuarantineError as exc:
        # Strict mode: corrupt durable state must not silently become an
        # empty-disk rejoin.  Exit distinctly so supervisors don't loop.
        print(f"fatal: {exc}", file=sys.stderr)
        return 3
    await server.start()
    spec = args.peers[args.pid]
    groups = f", {args.shards} shards" if args.shards > 1 else ""
    reads = f", reads={server.read_tier}"
    if server.read_config.lease_duration > 0:
        reads += (
            f" (lease={server.read_config.lease_duration:g}s"
            f" drift={server.read_config.drift_bound:g}s)"
        )
    print(
        f"node {args.pid}/{args.peers.n} serving ({args.engine}): "
        f"peers on {spec.peer_addr}, clients on "
        f"{spec.client_addr}{groups}{reads}",
        flush=True,
    )
    stopped = asyncio.get_event_loop().create_future()

    def request_stop() -> None:
        if not stopped.done():
            stopped.set_result(None)

    loop = asyncio.get_event_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, request_stop)
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    reporter = None
    if args.status_interval is not None and args.status_interval > 0:
        reporter = asyncio.ensure_future(
            _report_pipeline(server, args.pid, args.status_interval)
        )
    try:
        await stopped
    finally:
        if reporter is not None:
            reporter.cancel()
        await server.stop()
    print(f"node {args.pid} stopped")
    return 0


async def _client(args: argparse.Namespace) -> int:
    client = AsyncKVClient(args.peers, shards=args.shards)
    try:
        if args.engine is not None:
            try:
                await _check_engine(client, args.engine)
            except EngineError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        if args.operation == "put":
            index = await client.put(args.key, args.value)
            print(f"ok: {args.key!r} committed at index {index}")
        elif args.operation == "get":
            response = await client.get(
                args.key, tier=args.tier, staleness=args.staleness
            )
            detail = f"applied index {response['applied']}"
            if response.get("read"):
                detail += f", via {response['read']}"
            if response.get("staleness") is not None:
                detail += f", staleness {response['staleness']:.3f}s"
            if response["found"]:
                print(f"{args.key!r} = {response['value']!r} ({detail})")
            else:
                print(f"{args.key!r} not found ({detail})")
                return 1
        else:  # status
            for pid in range(args.peers.n):
                try:
                    status = await client.status_of(pid)
                except (ConnectionError, OSError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError):
                    print(f"node {pid}: unreachable")
                    continue
                reads = f" reads={status['read_tier']}"
                lease = status.get("lease_remaining")
                if lease is not None and lease > 0:
                    reads += f" lease={lease:.2f}s"
                print(
                    f"node {pid}: {status['role']} "
                    f"engine={status['engine']} "
                    f"term={status['term']} "
                    f"commit={status['commit_index']} "
                    f"applied={status['applied']} "
                    f"leader={status['leader']}{reads}"
                )
                for group in status["groups"][1:]:
                    print(
                        f"  shard {group['shard']}: {group['role']} "
                        f"term={group['term']} commit={group['commit_index']} "
                        f"applied={group['applied']} leader={group['leader']}"
                    )
                print(f"  pipeline: {_format_pipeline(status['pipeline'])}")
    finally:
        await client.close()
    return 0


async def _loadgen(args: argparse.Namespace) -> int:
    if args.engine is not None:
        probe = AsyncKVClient(args.peers, shards=args.shards)
        try:
            await _check_engine(probe, args.engine)
        except EngineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            await probe.close()
    read_mix = dict(
        read_ratio=args.read_ratio,
        read_tier=args.read_tier,
        read_staleness=args.read_staleness,
    )
    if args.rate is not None:
        report = await run_open_loop(
            args.peers,
            rate=args.rate,
            duration=args.duration,
            key_space=args.key_space,
            value_size=args.value_size,
            seed=args.seed,
            key_dist=args.key_dist,
            zipf_s=args.zipf_s,
            shards=args.shards,
            **read_mix,
        )
    else:
        report = await run_closed_loop(
            args.peers,
            ops=args.ops,
            concurrency=args.concurrency,
            key_space=args.key_space,
            value_size=args.value_size,
            seed=args.seed,
            key_dist=args.key_dist,
            zipf_s=args.zipf_s,
            shards=args.shards,
            **read_mix,
        )
    print(report.summary())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the live subcommands; returns the exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        runner = _serve(args)
    elif args.command == "client":
        runner = _client(args)
    else:
        runner = _loadgen(args)
    try:
        return asyncio.run(runner)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130
    except BrokenPipeError:
        # stdout went away mid-print (`... | head`): exit quietly the
        # way well-behaved CLIs do, not with a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())

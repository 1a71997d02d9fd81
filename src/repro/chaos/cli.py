"""``python -m repro chaos`` — run a seeded chaos campaign end to end.

Boots an in-process localhost cluster (:class:`~repro.live.harness.LiveKVCluster`),
runs a recorded client workload while a :class:`~repro.chaos.nemesis.Nemesis`
executes a seeded fault plan, then heals, lets the cluster quiesce, and
checks the recorded history for linearizability.  Exit status: ``0`` if
the history is linearizable, ``1`` on a violation (the minimal witness is
printed), ``2`` if the checker's time budget ran out before a verdict
or the command line is wrong (a bad number, kind or engine spec).

Examples::

    python -m repro chaos --nodes 5 --shards 2 --seed 7 --duration 20
    python -m repro chaos --seed 3 --inject-bug stale-reads   # exits 1
    python -m repro chaos --seed 1 --html campaign.html --json history.jsonl

Power-failure campaigns (durable storage)::

    python -m repro chaos --seed 5 --kinds power-fail,torn-tail,bit-flip
    python -m repro chaos --seed 5 --kinds power-fail-all --inject-bug lost-ack

Durability fault kinds give every node a data directory (a temporary one
unless ``--data-dir`` is set), so kills are power failures and restarts
are WAL crash recovery.  ``--inject-bug lost-ack`` skips every fsync —
acked writes then vanish in a ``power-fail-all``, which the checker must
reject.

Lease-attack campaigns (fast read path, docs/reads.md)::

    python -m repro chaos --seed 11 --read-tier lease --drift-bound 0.25 \\
        --campaign lease-attack
    python -m repro chaos --seed 11 --read-tier lease \\
        --campaign lease-attack --inject-bug unbounded-lease   # exits 1

``--read-tier`` selects how the workload's linearizable reads are served
(safe log markers, batched ReadIndex rounds, or clock-based leases); the
``clock-skew`` fault slows the leaseholder's clock, which a correctly
sized ``--drift-bound`` must absorb.  ``--inject-bug unbounded-lease``
zeroes the drift bound, so a skewed leaseholder keeps serving after a
rival leader commits — a stale read the checker must reject.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.chaos import campaign
from repro.chaos.checker import check_history
from repro.chaos.nemesis import DEFAULT_KINDS, FAULT_KINDS, LEASE_ATTACK_KINDS, FaultPlan
from repro.chaos.timeline import render_html, render_text
from repro.core.runtime import current_runtime
from repro.live.engine import DEFAULT_ENGINE, ENGINES, EngineError, parse_engine_spec
from repro.options import add_options, opt

OPTIONS = (
    "--nodes", opt("--shards", default=2, metavar=None, help="consensus groups"),
    opt(
        "--engine", default=DEFAULT_ENGINE,
        help="consensus backend per shard: one of "
        f"{'/'.join(sorted(ENGINES))} or a comma-separated per-shard "
        f"list (default {DEFAULT_ENGINE})",
    ),
    opt("--seed", help="campaign seed"), "--duration", "--clients",
    "--read-fraction", "--key-space", "--readonly-clients", "--op-pause",
    "--fault-period",
    opt(
        "--kinds", default=",".join(DEFAULT_KINDS),
        help=f"fault kinds to draw from (choose from {', '.join(FAULT_KINDS)})",
    ),
    "--campaign", "--time-budget", "--grace", "--html",
    opt("--json", metavar="FILE", help="write the recorded history as JSON lines"),
    opt(
        "--data-dir",
        help="persist each node's Raft state under DIR (power-failure "
        "fault kinds and --inject-bug lost-ack use a temporary "
        "directory when omitted)",
    ),
    opt(
        "--read-tier",
        help="how the workload's linearizable reads are served "
        "(default safe; lease exercises the clock-based fast path the "
        "clock-skew fault attacks)",
    ),
    opt(
        "--lease-duration",
        help="leader-lease window (defaults to the election-timeout "
        "floor when --read-tier is lease/follower)",
    ),
    opt(
        "--drift-bound", default=0.25,
        help="clock-drift allowance subtracted from every lease "
        "(default 0.25: safe against the default clock-skew factor 4 "
        "on the default 0.3s lease, since 0.3 * (1 - 1/4) = 0.225)",
    ),
    opt(
        "--inject-bug",
        help="deliberately break the cluster (stale-reads: nodes that "
        "believe they lead serve lin reads from local state; lost-ack: "
        "writes are acknowledged before fsync, so a power failure "
        "forgets them; unbounded-lease: leases ignore clock drift, so a "
        "clock-skewed leaseholder serves stale reads after deposition) "
        "— the campaign should then FAIL the check",
    ),
    opt("--quiet", help="print only the verdict"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro")
    commands = parser.add_subparsers(dest="command", required=True)
    chaos = commands.add_parser(
        "chaos",
        description="Fault-inject a live KV cluster and check the recorded "
        "client history for linearizability.",
    )
    add_options(chaos, OPTIONS)
    return parser


async def run_campaign(args: argparse.Namespace) -> int:
    try:
        parse_engine_spec(args.engine, args.shards)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.campaign == "lease-attack":
        kinds = LEASE_ATTACK_KINDS
        plan = FaultPlan.lease_attack_campaign(
            args.seed, duration=args.duration, period=args.fault_period
        )
    else:
        kinds = args.kinds
        plan = FaultPlan.random_campaign(
            args.seed, duration=args.duration, period=args.fault_period,
            kinds=kinds,
        )
    options, needs_disk = campaign.cluster_options(
        args.inject_bug, args.read_tier, args.drift_bound, kinds
    )
    say = (lambda *_a, **_k: None) if args.quiet else print
    say(
        f"campaign: {args.nodes} nodes / {args.shards} shards "
        f"({args.engine}, reads={options['read_tier']}), seed {args.seed}, "
        f"{len(plan.events)} fault events over {args.duration:.0f}s"
    )
    result = await campaign.run(
        current_runtime(),
        plan,
        nodes=args.nodes,
        shards=args.shards,
        seed=args.seed,
        duration=args.duration,
        grace=args.grace,
        clients=args.clients,
        key_space=args.key_space,
        read_fraction=args.read_fraction,
        readonly_clients=args.readonly_clients,
        op_pause=args.op_pause,
        data_dir=args.data_dir,
        needs_disk=needs_disk,
        engine=args.engine,
        lease_duration=args.lease_duration,
        **options,
    )
    history, stats = result.history, result.fault_stats
    for action in result.nemesis_log:
        say(f"  t={action.at:6.2f}s  {action.kind:<15} {action.detail}")
    say(
        f"workload: {stats['ok']} ok, {stats['ambiguous']} ambiguous, "
        f"{stats['failed']} failed; history of {len(history)} ops"
    )

    report = check_history(history, time_budget=args.time_budget)
    print(report.summary())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(history.to_jsonl())
        say(f"history written to {args.json}")
    if args.html:
        witness = report.violations[0].witness if report.violations else None
        with open(args.html, "w") as fh:
            fh.write(
                render_html(
                    history.ops,
                    title=f"chaos seed {args.seed}"
                    + (" — NOT linearizable" if report.ok is False else ""),
                    faults=[(a.at, a.kind) for a in result.nemesis_log],
                    highlight=witness,
                )
            )
        say(f"timeline written to {args.html}")
    if report.ok is False:
        for violation in report.violations:
            print()
            print(f"witness for key {violation.key!r}:")
            print(render_text(violation.witness))
        return 1
    return 0 if report.ok else 2


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return asyncio.run(run_campaign(args))

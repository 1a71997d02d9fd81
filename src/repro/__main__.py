"""Command-line demo runner: ``python -m repro <algorithm> [options]``.

Runs one seeded consensus execution of any algorithm in the library and
prints the decisions, the per-round outcome table and a summary — a quick
way to poke at the framework without writing a script.

Examples::

    python -m repro ben-or --n 5 --seed 7
    python -m repro phase-king --n 7 --byzantine 2 --seed 1
    python -m repro raft --n 5 --crash 0@12 --seed 3
    python -m repro decentralized-raft --n 6
    python -m repro shared-memory --n 4
    python -m repro shared-coin --n 5

Deterministic simulation testing (see ``docs/testing.md``) and the live
cluster runtime (see ``docs/live.md``) hang off the same entry point::

    python -m repro explore ben-or --schedules 1000
    python -m repro replay tests/regressions/corpus/<case>.json
    python -m repro serve --pid 0 --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402
    python -m repro client --peers ... put greeting hello
    python -m repro loadgen --peers ... --ops 500
    python -m repro chaos --nodes 5 --shards 2 --seed 7
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

from repro.analysis.report import describe_run, round_table
from repro.analysis.workloads import balanced_split
from repro.sim.async_runtime import AsyncRuntime
from repro.sim.failures import CrashPlan, equivocating_strategy

ALGORITHMS = (
    "ben-or",
    "phase-king",
    "phase-queen",
    "raft",
    "paxos",
    "chandra-toueg",
    "decentralized-raft",
    "shared-coin",
    "shared-memory",
)


def _parse_crash(spec: str) -> CrashPlan:
    """Parse ``pid@time`` or ``pid@time@restart`` into a CrashPlan."""
    parts = spec.split("@")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"bad crash spec {spec!r}: use pid@time[@restart]"
        )
    try:
        pid = int(parts[0])
        at_time = float(parts[1])
        restart_at = float(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad crash spec {spec!r}: pid must be an integer, times numeric"
        )
    if pid < 0:
        raise argparse.ArgumentTypeError(
            f"bad crash spec {spec!r}: pid must be non-negative"
        )
    if at_time < 0:
        raise argparse.ArgumentTypeError(
            f"bad crash spec {spec!r}: crash time must be non-negative"
        )
    if restart_at is not None and restart_at <= at_time:
        raise argparse.ArgumentTypeError(
            f"bad crash spec {spec!r}: restart time must come after the crash"
        )
    return CrashPlan(pid, at_time=at_time, restart_at=restart_at)


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type`` for an int ``>= low``: a bad value exits 2 with
    a usage message instead of a traceback."""

    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError by __name__
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


EXTRA_COMMANDS_EPILOG = """\
additional commands (dispatched before this parser):
  explore ALGORITHM ...   deterministic schedule exploration (docs/testing.md)
  replay CASE.json ...    replay a recorded failure case (docs/testing.md)
  serve --pid N --peers ...    run one live replicated-KV node (docs/live.md)
  client --peers ... OP        put/get/status against a live cluster
  loadgen --peers ... ...      drive a live cluster, report latency percentiles
  chaos --seed N ...           fault-inject a cluster, check linearizability
                               (docs/chaos.md)
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run one consensus execution and print what happened.",
        epilog=EXTRA_COMMANDS_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("algorithm", choices=ALGORITHMS)
    parser.add_argument(
        "--n", type=_int_at_least(1), default=5, help="number of processes"
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    parser.add_argument(
        "--byzantine",
        type=_int_at_least(0),
        default=0,
        help="number of (equivocating) Byzantine processes (phase-king only)",
    )
    parser.add_argument(
        "--crash",
        type=_parse_crash,
        action="append",
        default=[],
        metavar="PID@TIME[@RESTART]",
        help="crash plan (repeatable; asynchronous algorithms only)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only the summary line"
    )
    return parser


def _run_async(factory, args, key="vac") -> int:
    inits = balanced_split(args.n)
    processes = [factory() for _ in range(args.n)]
    runtime = AsyncRuntime(
        processes,
        init_values=inits,
        t=(args.n - 1) // 2,
        seed=args.seed,
        crash_plans=args.crash,
        max_time=100_000.0,
    )
    result = runtime.run()
    if not args.quiet:
        print(f"inputs: {inits}")
        print(round_table(result.trace, key))
        print()
    print(describe_run(result.trace))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("explore", "replay"):
        from repro.dst.cli import main as dst_main

        return dst_main(argv)
    if argv and argv[0] in ("serve", "client", "loadgen"):
        from repro.live.cli import main as live_main

        return live_main(argv)
    if argv and argv[0] == "chaos":
        from repro.chaos.cli import main as chaos_main

        return chaos_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    for plan in args.crash:
        if plan.pid >= args.n:
            parser.error(f"--crash: pid {plan.pid} is not below --n {args.n}")
    name = args.algorithm

    if name == "ben-or":
        from repro.algorithms.ben_or import ben_or_template_consensus

        return _run_async(ben_or_template_consensus, args)

    if name == "decentralized-raft":
        from repro.algorithms.decentralized_raft import decentralized_raft_consensus

        return _run_async(decentralized_raft_consensus, args)

    if name == "shared-coin":
        from repro.algorithms.shared_coin import shared_coin_ac_consensus

        return _run_async(shared_coin_ac_consensus, args, key="ac")

    if name in ("phase-king", "phase-queen"):
        if name == "phase-king":
            from repro.algorithms.phase_king import run_phase_king as run_sync

            ratio = 3
        else:
            from repro.algorithms.phase_queen import run_phase_queen as run_sync

            ratio = 4
        t = max(args.byzantine, 1)
        if ratio * t >= args.n:
            print(
                f"error: need {ratio}t < n (t={t}, n={args.n})", file=sys.stderr
            )
            return 2
        byzantine = {
            pid: equivocating_strategy() for pid in range(args.byzantine)
        }
        inits = balanced_split(args.n)
        result = run_sync(
            inits, t=t, byzantine=byzantine, mode="fixed", seed=args.seed
        )
        if not args.quiet:
            print(f"inputs: {inits}  byzantine: {sorted(byzantine)}")
            print(round_table(result.trace, "ac"))
            print()
        correct = [p for p in range(args.n) if p not in byzantine]
        decisions = {p: result.decisions.get(p) for p in correct}
        print(
            f"{result.exchanges} exchanges; correct decisions: {decisions}"
        )
        return 0

    if name in ("paxos", "chandra-toueg"):
        if name == "paxos":
            from repro.algorithms.multi_paxos import run_paxos as run_it
        else:
            from repro.algorithms.chandra_toueg import run_chandra_toueg as run_it

        inits = list(range(10, 10 * (args.n + 1), 10))[: args.n]
        result = run_it(inits, seed=args.seed, crash_plans=args.crash)
        if not args.quiet:
            print(f"inputs: {inits}")
            print(round_table(result.trace, "vac"))
            print()
        print(describe_run(result.trace))
        return 0

    if name == "raft":
        from repro.algorithms.raft import run_raft_consensus

        inits = list(range(10, 10 * (args.n + 1), 10))[: args.n]
        result = run_raft_consensus(
            inits, seed=args.seed, crash_plans=args.crash
        )
        if not args.quiet:
            print(f"inputs: {inits}")
            leaders = [
                f"term {term}: p{leader}"
                for _p, _t, (term, leader) in result.trace.annotations("leader")
            ]
            print("leaders: " + ", ".join(leaders))
        print(describe_run(result.trace))
        return 0

    if name == "shared-memory":
        from repro.memory import run_shared_memory_consensus

        inits = balanced_split(args.n)
        result = run_shared_memory_consensus(inits, seed=args.seed)
        if not args.quiet:
            print(f"inputs: {inits}")
            print(round_table(result.trace, "ac"))
            print()
        print(
            f"{result.steps} register steps; decisions: {result.decisions}"
        )
        return 0

    raise AssertionError(f"unhandled algorithm {name}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())

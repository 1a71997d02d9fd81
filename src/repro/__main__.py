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
import importlib
import sys
from typing import List, Optional

from repro.analysis.report import describe_run, round_table
from repro.analysis.workloads import balanced_split
from repro.options import add_options
from repro.sim.async_runtime import AsyncRuntime
from repro.sim.failures import equivocating_strategy

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

#: The commands dispatched before the demo runner's parser: name ->
#: (module whose ``main(argv)`` runs it, one line for ``--help``).
COMMANDS = {
    "explore": ("repro.dst.cli", "deterministic schedule exploration (docs/testing.md)"),
    "replay": ("repro.dst.cli", "replay a recorded failure case (docs/testing.md)"),
    "serve": ("repro.live.cli", "run one live replicated-KV node (docs/live.md)"),
    "client": ("repro.live.cli", "put/get/status against a live cluster"),
    "loadgen": ("repro.live.cli", "drive a live cluster, report latency percentiles"),
    "chaos": (
        "repro.chaos.cli", "fault-inject a cluster, check linearizability (docs/chaos.md)"
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run one consensus execution and print what happened.",
        epilog="additional commands (dispatched before this parser):\n" + "".join(
            f"  {name:<9} {help_text}\n" for name, (_, help_text) in COMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("algorithm", choices=ALGORITHMS)
    add_options(parser, ("--n", "--seed", "--byzantine", "--crash", "--quiet"))
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
    if argv and argv[0] in COMMANDS:
        return importlib.import_module(COMMANDS[argv[0]][0]).main(argv)
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

"""DST subcommands for ``python -m repro``: ``explore`` and ``replay``.

``explore`` sweeps an algorithm's schedule space, prints the outcome and
coverage summary, and — on violations — optionally shrinks each witness
and saves it to the regression corpus::

    python -m repro explore ben-or --schedules 1000
    python -m repro explore phase-king --schedules 500 --workers 4
    python -m repro explore ben-or-broken-coherence --shrink --save-corpus

With ``--stack live`` the sweep targets the *production* stack instead:
each schedule boots a full sharded :class:`~repro.live.kv.KVServer`
cluster under a virtual-time :class:`~repro.core.runtime.SimRuntime`,
runs a seeded nemesis campaign against a recorded client workload, and
checks the history for linearizability.  The sweep is a pure function of
``--seed`` — the printed digest is byte-identical on repeat runs::

    python -m repro explore --stack live --schedules 50 --seed 3
    python -m repro explore --stack live --inject-bug stale-reads \\
        --shrink --save-corpus

``replay`` re-runs a stored corpus case (or any scenario JSON — simulator
or live-stack) and reports whether the recorded violation still
reproduces::

    python -m repro replay tests/regressions/corpus/<case>.json

``--stack`` only chooses the scenario generator; everything after it is
one code path.  Exit codes: ``explore`` returns 1 when a sweep that
should be clean violates (a non-``expect_broken`` algorithm, a live
cluster without ``--inject-bug``); otherwise 2 when any schedule ended
in a harness ``error`` — it verified nothing, canary sweeps included —
or on a usage error; ``replay`` returns 1 when a case no longer
reproduces its recorded violation, or when an ``expect: "ok"`` case
(a fixed bug) does not replay clean.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.analysis.report import exploration_summary
from repro.dst.corpus import CorpusCase, case_name, replay as replay_case, save_case
from repro.dst.explorer import explore, generate_scenarios
from repro.dst.livestack import LIVE_EXPLORE_KINDS, LiveScenario, generate_live_scenarios
from repro.dst.registry import algorithm_names, get_algorithm
from repro.dst.scenario import OK, VIOLATION, scenario_from_dict
from repro.dst.shrinker import shrink
from repro.options import add_options, opt

EXPLORE_OPTIONS = (
    "--stack", "--schedules",
    opt(
        "--seed", flag="--meta-seed", aliases=("--seed",),
        help="seed of the generator walk (the sweep is a pure function of it)",
    ),
    "--mutation-rate", "--n-range", "--max-rounds", "--workers", "--stop-after",
    "--shrink", "--save-corpus", opt("--quiet", help="print only the outcome counts"),
)
LIVE_STACK_OPTIONS = (
    opt("--nodes", default=3, help="cluster size per schedule"),
    opt("--shards", default=2, metavar=None, help="consensus groups per node"),
    opt(
        "--duration", default=6.0,
        help="virtual seconds of faulted workload per schedule",
    ),
    opt("--clients", default=3),
    opt("--inject-bug", default=""),
    opt(
        "--kinds", default=",".join(LIVE_EXPLORE_KINDS),
        help="comma-separated fault kinds (default: %(default)s)",
    ),
    opt(
        "--fault-period", default=1.5, metavar=None,
        help="virtual seconds between scheduled faults",
    ),
    "--trace-out",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Deterministic simulation testing for the consensus library.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser(
        "explore", help="sweep an algorithm's schedule space for violations"
    )
    ex.add_argument(
        "algorithm",
        nargs="?",
        default=None,
        choices=algorithm_names(include_broken=True),
        help="registry name to sweep (required unless --stack live)",
    )
    add_options(ex, EXPLORE_OPTIONS)
    add_options(
        ex.add_argument_group("live-stack options (--stack live)"),
        LIVE_STACK_OPTIONS,
    )

    rp = sub.add_parser(
        "replay", help="re-run a stored corpus case or scenario JSON"
    )
    rp.add_argument("path", help="path to a corpus case (or bare scenario) JSON")
    return parser


def _sweep(args: argparse.Namespace):
    """What ``--stack`` decides: ``(label, scenarios, whether violations
    are the point)``."""
    if args.stack == "live":
        base = LiveScenario(
            n=args.nodes,
            shards=args.shards,
            duration=args.duration,
            clients=args.clients,
            inject_bug=args.inject_bug,
            op_pause=0.005,
        )
        scenarios = generate_live_scenarios(
            args.schedules,
            args.meta_seed,
            base=base,
            kinds=args.kinds,
            fault_period=args.fault_period,
        )
        return "live", scenarios, bool(args.inject_bug)
    if args.algorithm is None:
        raise ValueError("an algorithm is required unless --stack live")
    scenarios = generate_scenarios(
        args.algorithm,
        args.schedules,
        meta_seed=args.meta_seed,
        mutation_rate=args.mutation_rate,
        n_range=args.n_range,
        max_rounds=args.max_rounds,
    )
    expect_broken = get_algorithm(args.algorithm).expect_broken
    return args.algorithm, scenarios, expect_broken


def _explore(args: argparse.Namespace, argv: List[str]) -> int:
    try:
        label, scenarios, expect_violations = _sweep(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    with open(args.trace_out or os.devnull, "w") as trace_file:

        def trace_sink(index, scenario, result):
            trace_file.write(
                f"=== schedule {index} seed {scenario.seed} "
                f"fingerprint {result.fingerprint} ===\n"
                f"{result.trace_text}\n"
            )

        report = explore(
            label,
            scenarios=scenarios,
            workers=args.workers,
            stop_after_violations=args.stop_after,
            trace_sink=trace_sink,
        )
    elapsed = time.perf_counter() - started
    if args.quiet:
        print(f"{report.algorithm}: {report.outcomes} ({elapsed:.1f}s)")
    else:
        print(exploration_summary(report))
        print(f"\nelapsed: {elapsed:.1f}s")
    if report.fingerprints:
        print(f"sweep digest: {report.digest()}")
    for scenario, violation in report.violations:
        if args.shrink:
            result = shrink(scenario, violation)
            scenario, violation = result.scenario, result.violation
            print(
                f"\nshrunk to n={scenario.n} seed={scenario.seed} "
                f"({result.accepted} reductions in {result.attempts} attempts):"
            )
            print(f"  [{violation.kind}] {violation.message}")
            print(f"  {json.dumps(scenario.to_dict(), sort_keys=True)}")
        if args.save_corpus:
            case = CorpusCase(
                name=case_name(scenario, violation),
                scenario=scenario,
                violation=violation,
                notes=(
                    f"found by `python -m repro {' '.join(argv)}`"
                    + (", shrunk" if args.shrink else "")
                ),
            )
            path = save_case(case, args.save_corpus)
            print(f"saved corpus case: {path}")
    if report.violation_count and not expect_violations:
        return 1
    # An errored schedule verified nothing: never report it as a pass.
    return 2 if report.errors else 0


def _replay(args: argparse.Namespace) -> int:
    try:
        with open(args.path) as handle:
            data = json.load(handle)
        case = CorpusCase.from_dict(data) if "scenario" in data else None
        scenario = case.scenario if case else scenario_from_dict(data)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc.strerror}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        # A hand-edited case is outside input: a bad field is a usage error.
        print(f"error: {args.path}: bad scenario: {exc}", file=sys.stderr)
        return 2
    if case is not None:
        outcome = replay_case(case)
        print(
            f"replayed {case.name}: status={outcome.status} "
            f"({outcome.events} events)"
        )
        if case.expect == OK:
            if outcome.status == OK:
                print("  fixed case replays clean")
                return 0
            if outcome.violation is not None:
                print(f"  [{outcome.violation.kind}] {outcome.violation.message}")
            print("  fixed case did NOT replay clean")
            return 1
        if outcome.status == VIOLATION and outcome.violation is not None:
            print(f"  [{outcome.violation.kind}] {outcome.violation.message}")
            if outcome.violation.kind == case.violation.kind:
                print("  recorded violation reproduces")
                return 0
            print(
                f"  MISMATCH: recorded kind was {case.violation.kind!r}",
            )
            return 1
        print(
            f"  recorded violation [{case.violation.kind}] did NOT reproduce"
        )
        return 1
    # A bare scenario JSON: just run it and report.
    outcome = scenario.run().outcome
    print(f"status={outcome.status} ({outcome.events} events)")
    if outcome.violation is not None:
        print(f"  [{outcome.violation.kind}] {outcome.violation.message}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """DST CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    if args.command == "explore":
        return _explore(args, argv)
    return _replay(args)

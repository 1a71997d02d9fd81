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
reproduces its recorded violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from typing import List, Optional

from repro.analysis.report import exploration_summary
from repro.chaos.campaign import INJECTABLE_BUGS, parse_kinds
from repro.dst.corpus import (
    DEFAULT_CORPUS_DIR,
    CorpusCase,
    case_name,
    replay as replay_case,
    save_case,
)
from repro.dst.explorer import explore, generate_scenarios
from repro.dst.livestack import (
    LIVE_EXPLORE_KINDS,
    LiveScenario,
    generate_live_scenarios,
)
from repro.dst.registry import algorithm_names, get_algorithm
from repro.dst.scenario import VIOLATION, scenario_from_dict
from repro.dst.shrinker import shrink
from repro.live.cli import check_non_negative, checked
from repro.live.config import validate_count, validate_shards
from repro.live.loadgen import check_positive

COMMANDS = ("explore", "replay")


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
    ex.add_argument(
        "--stack",
        choices=("sim", "live"),
        default="sim",
        help="what to explore: bare simulator algorithms (sim) or the "
        "full KVServer production stack in virtual time (live)",
    )
    ex.add_argument(
        "--schedules",
        type=checked(int, partial(validate_count, "schedules")),
        default=200,
        help="scenarios to run",
    )
    ex.add_argument(
        "--meta-seed",
        "--seed",
        dest="meta_seed",
        type=int,
        default=0,
        help="seed of the generator walk (the sweep is a pure function of it)",
    )
    ex.add_argument(
        "--mutation-rate",
        type=float,
        default=0.4,
        help="fraction of scenarios produced by adversarial mutation",
    )
    ex.add_argument(
        "--n-range",
        type=str,
        default="4:7",
        metavar="LO:HI",
        help="inclusive system-size range",
    )
    ex.add_argument(
        "--max-rounds", type=int, default=60, help="template-round cap per run"
    )
    ex.add_argument(
        "--workers",
        type=checked(int, partial(check_non_negative, "workers")),
        default=0,
        help="fan execution out over a multiprocessing pool of this size",
    )
    ex.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="K",
        help="stop after K violating scenarios",
    )
    ex.add_argument(
        "--shrink",
        action="store_true",
        help="minimize each violating scenario before reporting it",
    )
    ex.add_argument(
        "--save-corpus",
        nargs="?",
        const=DEFAULT_CORPUS_DIR,
        default=None,
        metavar="DIR",
        help=f"save (shrunk) violations as corpus cases (default dir: {DEFAULT_CORPUS_DIR})",
    )
    ex.add_argument(
        "--quiet", action="store_true", help="print only the outcome counts"
    )

    live = ex.add_argument_group("live-stack options (--stack live)")
    live.add_argument(
        "--nodes",
        type=checked(int, partial(validate_count, "nodes")),
        default=3,
        help="cluster size per schedule",
    )
    live.add_argument(
        "--shards",
        type=checked(int, validate_shards),
        default=2,
        help="consensus groups per node",
    )
    live.add_argument(
        "--duration",
        type=checked(float, partial(check_positive, "duration")),
        default=6.0,
        help="virtual seconds of faulted workload per schedule",
    )
    live.add_argument(
        "--clients",
        type=checked(int, partial(validate_count, "clients")),
        default=3,
        help="workload clients",
    )
    live.add_argument(
        "--inject-bug",
        choices=INJECTABLE_BUGS,
        default="",
        help="run a known-buggy cluster (canary sweeps should violate)",
    )
    live.add_argument(
        "--kinds",
        type=str,
        default=",".join(LIVE_EXPLORE_KINDS),
        metavar="K1,K2,...",
        help="comma-separated fault kinds (default: %(default)s)",
    )
    live.add_argument(
        "--fault-period",
        type=checked(float, partial(check_positive, "fault_period")),
        default=1.5,
        help="virtual seconds between scheduled faults",
    )
    live.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="append every schedule's full node trace to PATH "
        "(byte-identical across repeat runs of the same sweep)",
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
            kinds=parse_kinds(args.kinds),
            fault_period=args.fault_period,
        )
        return "live", scenarios, bool(args.inject_bug)
    if args.algorithm is None:
        raise ValueError("an algorithm is required unless --stack live")
    try:
        lo, hi = (int(part) for part in args.n_range.split(":"))
    except ValueError:
        raise ValueError(f"bad --n-range {args.n_range!r}: use LO:HI") from None
    scenarios = generate_scenarios(
        args.algorithm,
        args.schedules,
        meta_seed=args.meta_seed,
        mutation_rate=args.mutation_rate,
        n_range=(lo, hi),
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
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc.strerror}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if "scenario" in data:
        case = CorpusCase.from_dict(data)
        outcome = replay_case(case)
        print(
            f"replayed {case.name}: status={outcome.status} "
            f"({outcome.events} events)"
        )
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
    outcome = scenario_from_dict(data).run().outcome
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

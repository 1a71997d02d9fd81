"""Tests for the ``python -m repro`` command-line demo runner."""

import argparse
import importlib
import json
import os
import subprocess
import sys

import pytest

from repro import options
from repro.__main__ import COMMANDS, build_parser, main
from repro.chaos.cli import build_parser as chaos_build_parser
from repro.live.cli import build_parser as live_build_parser


def run_cli(*argv):
    return main(list(argv))


class TestMain:
    def test_ben_or(self, capsys):
        assert run_cli("ben-or", "--n", "5", "--seed", "7", "--quiet") == 0
        out = capsys.readouterr().out
        assert "5 processes decided" in out

    def test_ben_or_with_crash(self, capsys):
        assert (
            run_cli("ben-or", "--n", "5", "--seed", "7", "--crash", "4@3", "--quiet")
            == 0
        )
        out = capsys.readouterr().out
        assert "crashes at pids [4]" in out
        assert "4 processes decided" in out

    def test_phase_king(self, capsys):
        assert run_cli("phase-king", "--n", "7", "--byzantine", "2", "--quiet") == 0
        out = capsys.readouterr().out
        assert "exchanges; correct decisions" in out

    def test_phase_king_rejects_bad_resilience(self, capsys):
        assert run_cli("phase-king", "--n", "4", "--byzantine", "2") == 2
        assert "need 3t < n" in capsys.readouterr().err

    def test_phase_queen(self, capsys):
        assert run_cli("phase-queen", "--n", "9", "--byzantine", "2", "--quiet") == 0
        out = capsys.readouterr().out
        assert "exchanges; correct decisions" in out

    def test_phase_queen_rejects_bad_resilience(self, capsys):
        assert run_cli("phase-queen", "--n", "5", "--byzantine", "2") == 2
        assert "need 4t < n" in capsys.readouterr().err

    def test_paxos(self, capsys):
        assert run_cli("paxos", "--n", "5", "--seed", "2", "--quiet") == 0
        assert "decided" in capsys.readouterr().out

    def test_paxos_with_crash(self, capsys):
        assert run_cli("paxos", "--n", "5", "--crash", "0@4", "--quiet") == 0
        out = capsys.readouterr().out
        assert "crashes at pids [0]" in out

    def test_chandra_toueg(self, capsys):
        assert run_cli("chandra-toueg", "--n", "5", "--quiet") == 0
        assert "decided" in capsys.readouterr().out

    def test_chandra_toueg_with_crash(self, capsys):
        assert run_cli("chandra-toueg", "--n", "5", "--crash", "0@1", "--quiet") == 0
        out = capsys.readouterr().out
        assert "crashes at pids [0]" in out

    def test_raft(self, capsys):
        assert run_cli("raft", "--n", "3", "--seed", "1") == 0
        out = capsys.readouterr().out
        assert "leaders: term" in out
        assert "3 processes decided" in out

    def test_raft_with_crash_restart_spec(self, capsys):
        assert run_cli("raft", "--n", "5", "--crash", "0@12@200", "--quiet") == 0
        assert "decided" in capsys.readouterr().out

    def test_decentralized_raft(self, capsys):
        assert run_cli("decentralized-raft", "--n", "4", "--quiet") == 0
        assert "decided" in capsys.readouterr().out

    def test_shared_coin(self, capsys):
        assert run_cli("shared-coin", "--n", "5", "--quiet") == 0
        assert "decided" in capsys.readouterr().out

    def test_shared_memory(self, capsys):
        assert run_cli("shared-memory", "--n", "4", "--quiet") == 0
        out = capsys.readouterr().out
        assert "register steps" in out

    def test_verbose_mode_prints_round_table(self, capsys):
        assert run_cli("ben-or", "--n", "4", "--seed", "2") == 0
        out = capsys.readouterr().out
        assert "round" in out
        assert "inputs:" in out


class TestParser:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quantum-consensus"])

    def test_bad_crash_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ben-or", "--crash", "nope"])

    def test_crash_spec_with_restart(self):
        args = build_parser().parse_args(["ben-or", "--crash", "1@5@9"])
        plan = args.crash[0]
        assert (plan.pid, plan.at_time, plan.restart_at) == (1, 5.0, 9.0)


def parsers():
    """Every parser ``python -m repro`` reaches, by prog."""
    found = {}

    def walk(parser):
        found.setdefault(parser.prog, parser)  # the demo runner owns "python -m repro"
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    walk(sub)

    walk(build_parser())
    for module in sorted({module for module, _ in COMMANDS.values()}):
        walk(importlib.import_module(module).build_parser())
    return found


def actions(parser):
    """``[option_strings, dest, default, choices, metavar, help]`` per action."""

    def plain(value):
        return [plain(v) for v in value] if isinstance(value, (list, tuple)) else value

    return [
        [action.option_strings, action.dest, plain(action.default),
         plain(action.choices), action.metavar, action.help]
        for action in parser._actions
        if not isinstance(action, (argparse._SubParsersAction, argparse._HelpAction))
    ]


class TestHelpDoesNotDrift:
    """Every parser's actions equal the recorded ones: the option table
    moved the flags, it did not change what ``--help`` shows."""

    #: Help that was wrong when the fixture was recorded: (prog, dest) ->
    #: the fields that changed.
    FIXED = {("python -m repro chaos", "clients"): {5: "workload clients"}}

    def test_actions_match_the_fixture(self):
        with open(os.path.join(os.path.dirname(__file__), "parser_actions.json")) as fh:
            recorded = json.load(fh)
        for (prog, dest), fields in self.FIXED.items():
            (row,) = [row for row in recorded[prog] if row[1] == dest]
            for index, value in fields.items():
                row[index] = value
        current = {prog: actions(parser) for prog, parser in parsers().items()}
        assert {prog: rows for prog, rows in current.items() if rows} == recorded


PEERS = ("--peers", "127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402")

#: What each parser needs around the flag under test: ``before`` + flag +
#: value + ``after``.  Short runs, so a check that lets a value through
#: fails the assertion quickly instead of running a full campaign.
AROUND = {
    "python -m repro": (("ben-or",), ()),
    "python -m repro serve": (("serve", "--pid", "0", *PEERS), ()),
    "python -m repro client": (("client", *PEERS), ("get", "k")),
    "python -m repro client get": (("client", *PEERS, "get", "k"), ()),
    "python -m repro loadgen": (("loadgen", *PEERS, "--shards", "1"), ()),
    "python -m repro explore": (("explore", "ben-or", "--schedules", "1"), ()),
    "python -m repro chaos": (("chaos", "--duration", "0.5", "--grace", "0"), ()),
}

#: Out-of-range values per check.
BAD = {
    options.check_count: ("0", "-1", "-3"),
    options.check_shards: ("0", "257"),
    options.check_positive: ("0", "-1", "nan", "inf"),
    options.check_non_negative: ("-1", "-2", "-0.5", "nan", "inf"),
    options.check_fraction: ("7", "5", "1.5", "-0.1", "nan"),
    options.check_engine_spec: (",ct", "bogus"),
    options.check_kinds: ("bogus", ","),
    options.check_peers: ("127.0.0.1:7400,", "127.0.0.1"),
    options.check_crash: ("nope", "1@-1", "1@5@2", "1@nan"),
    options.check_timeout_range: ("0.6", "0,1", "0.6,0.3", "0.3,inf"),
    options.check_size_range: ("7:4", "0:3", "4"),
}


def _message(row, text):
    """What argparse prints after ``argument FLAG:`` for ``text``."""
    try:
        value = row.convert(text)
    except ValueError:
        return f"invalid {row.convert.__name__} value: {text!r}"
    with pytest.raises(ValueError) as exc:
        row.check(row.name, value)
    return str(exc.value)


def _walk():
    table = options.rows()
    for prog, parser in parsers().items():
        for action in parser._actions:
            row = table.get(action.option_strings[0]) if action.option_strings else None
            if row is None or row.check is None:
                continue
            before, after = AROUND[prog]
            for text in BAD[row.check]:
                yield pytest.param(
                    (*before, row.flag, text, *after),
                    f"argument {row.flag}: {_message(row, text)}",
                    id=f"{prog[len('python -m repro '):] or 'demo'} {row.flag} {text}",
                )


#: Cases the row walk cannot spell: another algorithm, or a check that
#: needs two flags.
CROSS_FLAG = [
    (("raft", "--n", "0"), "argument --n: n must be an integer >= 1, got 0"),
    (("paxos", "--n", "0"), "argument --n: n must be an integer >= 1, got 0"),
    (("chandra-toueg", "--n", "0"), "argument --n: n must be an integer >= 1"),
    (("shared-memory", "--n", "0"), "argument --n: n must be an integer >= 1"),
    (("ben-or", "--n", "x"), "argument --n: invalid int value: 'x'"),
    (("phase-king", "--n", "7", "--byzantine", "-1"),
     "argument --byzantine: byzantine must be"),
    (("raft", "--n", "3", "--crash", "7@1"), "pid 7 is not below --n 3"),
    (("paxos", "--n", "3", "--crash", "7@1"), "pid 7 is not below --n 3"),
    (("loadgen", *PEERS, "--rate", "10", "--duration", "inf"), "argument --duration:"),
    (("loadgen", *PEERS, "--key-dist", "zipf", "--zipf-s", "0"), "argument --zipf-s:"),
]


class TestBadValuesAreUsageErrors:
    """Every (command, row) pair that takes a number or a spec refuses an
    out-of-range value at parse time: exit 2, a usage line and the row's
    message, never a traceback, a run, or exit 1 ("violation found")."""

    @pytest.mark.parametrize("argv, message", [*_walk(), *CROSS_FLAG])
    def test_bad_value_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert message in err

    #: (command, flag, value) cases that must be in the walk: the gaps the
    #: option table closed, and the per-command cases it replaced.
    REQUIRED = [
        ("chaos", "--read-fraction", "7"), ("chaos", "--grace", "nan"),
        ("chaos", "--readonly-clients", "-2"), ("chaos", "--op-pause", "-1"),
        ("chaos", "--drift-bound", "nan"), ("chaos", "--lease-duration", "-1"),
        ("chaos", "--time-budget", "-1"), ("explore", "--max-rounds", "-1"),
        ("explore", "--mutation-rate", "5"), ("explore", "--mutation-rate", "nan"),
        ("explore", "--stop-after", "-3"), ("explore", "--n-range", "7:4"),
        ("loadgen", "--ops", "-1"), ("loadgen", "--concurrency", "0"),
        ("loadgen", "--read-staleness", "nan"), ("client get", "--staleness", "-1"),
        ("serve", "--status-interval", "-1"), ("serve", "--status-interval", "nan"),
        *(("loadgen", flag, bad) for flag, bad in [
            ("--rate", "0"), ("--rate", "nan"), ("--duration", "inf"),
            ("--read-ratio", "1.5"), ("--key-space", "0"), ("--zipf-s", "0")]),
        *(("explore", flag, bad) for flag, bad in [
            ("--schedules", "0"), ("--schedules", "-1"), ("--clients", "0"),
            ("--duration", "0"), ("--duration", "-1"), ("--nodes", "0"),
            ("--shards", "0"), ("--workers", "-1"), ("--fault-period", "0"),
            ("--fault-period", "nan"), ("--fault-period", "inf")]),
        *(("chaos", flag, bad) for flag, bad in [
            ("--nodes", "-1"), ("--nodes", "0"), ("--shards", "0"),
            ("--clients", "0"), ("--key-space", "0"), ("--duration", "0"),
            ("--duration", "nan"), ("--fault-period", "0"),
            ("--fault-period", "nan"), ("--fault-period", "inf")]),
        *(("serve", flag, bad) for flag, bad in [
            ("--heartbeat", "0"), ("--heartbeat", "nan"),
            ("--snapshot-threshold", "0"), ("--drift-bound", "-1"),
            ("--staleness-bound", "-0.5"), ("--lease-duration", "-1"),
            ("--lease-duration", "inf"), ("--engine", ",ct")]),
        ("demo", "--n", "0"), ("demo", "--n", "-1"), ("demo", "--byzantine", "-1"),
    ]

    def test_walk_holds_every_required_case(self):
        walked = {case.id for case in _walk()}
        assert [c for c in self.REQUIRED if " ".join(c) not in walked] == []


class TestSmallestValuesAreAccepted:
    def test_smallest_sweep(self):
        from repro.dst.cli import build_parser as dst_build_parser

        args = dst_build_parser().parse_args(
            ["explore", "--stack", "live", "--schedules", "1", "--duration",
             "0.5", "--workers", "0", "--nodes", "1", "--shards", "1",
             "--clients", "1"]
        )
        assert (args.schedules, args.workers, args.nodes, args.shards,
                args.clients, args.duration) == (1, 0, 1, 1, 1, 0.5)

    def test_smallest_campaign(self):
        args = chaos_build_parser().parse_args(
            ["chaos", "--nodes", "1", "--shards", "1", "--clients", "1",
             "--key-space", "1", "--duration", "0.5", "--fault-period", "0.1",
             "--grace", "0", "--op-pause", "0", "--readonly-clients", "0",
             "--read-fraction", "0"]
        )
        assert (args.nodes, args.shards, args.clients, args.key_space,
                args.duration, args.fault_period, args.grace) == (
            1, 1, 1, 1, 0.5, 0.1, 0.0)

    def test_zero_bounds_on_serve(self):
        args = live_build_parser().parse_args(
            ["serve", "--pid", "0", *PEERS, "--drift-bound", "0",
             "--staleness-bound", "0", "--lease-duration", "0"]
        )
        assert (args.drift_bound, args.staleness_bound, args.lease_duration) == (
            0.0, 0.0, 0.0,
        )


class TestCommandTable:
    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_every_command_dispatches_and_is_listed(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            run_cli(name, "--help")
        assert exc.value.code == 0
        assert f"usage: python -m repro {name} " in capsys.readouterr().out
        with pytest.raises(SystemExit):
            run_cli("--help")
        assert f"  {name:<9} {COMMANDS[name][1]}\n" in capsys.readouterr().out


def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "ben-or", "--n", "4", "--quiet"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "decided" in result.stdout

"""Tests for the ``python -m repro`` command-line demo runner."""

import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("raft", "--n", "0"), "argument --n: must be >= 1, got 0"),
            (("paxos", "--n", "0"), "argument --n: must be >= 1, got 0"),
            (("ben-or", "--n", "-1"), "argument --n: must be >= 1, got -1"),
            (("chandra-toueg", "--n", "0"), "argument --n: must be >= 1"),
            (("shared-memory", "--n", "0"), "argument --n: must be >= 1"),
            (("ben-or", "--n", "x"), "argument --n: invalid int value: 'x'"),
            (
                ("phase-king", "--n", "7", "--byzantine", "-1"),
                "argument --byzantine: must be >= 0, got -1",
            ),
            (("raft", "--n", "3", "--crash", "7@1"), "pid 7 is not below --n 3"),
            (("paxos", "--n", "3", "--crash", "7@1"), "pid 7 is not below --n 3"),
        ],
    )
    def test_bad_numbers_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert message in err


class TestLoadgenArguments:
    """Bad numbers exit 2 with a usage message, never a traceback."""

    PEERS = ("--peers", "127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402")

    @pytest.mark.parametrize(
        "bad, flag",
        [
            (("--rate", "0"), "--rate"),
            (("--rate", "nan"), "--rate"),
            (("--rate", "10", "--duration", "inf"), "--duration"),
            (("--read-ratio", "1.5"), "--read-ratio"),
            (("--key-space", "0"), "--key-space"),
            (("--key-dist", "zipf", "--zipf-s", "0"), "--zipf-s"),
        ],
    )
    def test_bad_number_is_a_usage_error(self, capsys, bad, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli("loadgen", *self.PEERS, "--shards", "1", *bad)
        assert exc.value.code == 2
        assert f"error: argument {flag}:" in capsys.readouterr().err


class TestExploreArguments:
    """``explore`` refuses numbers that would make a sweep check nothing
    (no schedules, no clients, no time) or fail every schedule: exit 2
    with a usage line, before any schedule runs."""

    # One short schedule, so a parser that lets a bad value through still
    # finishes quickly (and then fails the assertion).
    BASE = ("explore", "--stack", "live", "--schedules", "1", "--duration", "0.5")

    @pytest.mark.parametrize(
        "flag, bad",
        [
            ("--schedules", "0"),
            ("--schedules", "-1"),
            ("--clients", "0"),
            ("--duration", "0"),
            ("--duration", "-1"),
            ("--nodes", "0"),
            ("--shards", "0"),
            ("--workers", "-1"),
            ("--fault-period", "0"),
            ("--fault-period", "nan"),
            ("--fault-period", "inf"),
        ],
    )
    def test_bad_number_is_a_usage_error(self, capsys, flag, bad):
        with pytest.raises(SystemExit) as exc:
            run_cli(*self.BASE, flag, bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"error: argument {flag}:" in err

    def test_smallest_sweep_is_accepted(self):
        from repro.dst.cli import build_parser as dst_build_parser

        args = dst_build_parser().parse_args(
            [*self.BASE, "--workers", "0", "--nodes", "1", "--shards", "1",
             "--clients", "1"]
        )
        assert (args.schedules, args.workers, args.nodes, args.shards,
                args.clients, args.duration) == (1, 0, 1, 1, 1, 0.5)


class TestChaosArguments:
    """``chaos`` refuses bad numbers at parse time with exit 2, never 1:
    exit 1 means "the checker found a violation", which canary steps
    test for."""

    @pytest.mark.parametrize(
        "flag, bad",
        [
            ("--nodes", "-1"),
            ("--nodes", "0"),
            ("--shards", "0"),
            ("--clients", "0"),
            ("--key-space", "0"),
            ("--duration", "0"),
            ("--duration", "nan"),
            ("--fault-period", "0"),
            ("--fault-period", "nan"),
            ("--fault-period", "inf"),
        ],
    )
    def test_bad_number_is_a_usage_error(self, capsys, flag, bad):
        with pytest.raises(SystemExit) as exc:
            chaos_build_parser().parse_args([flag, bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"error: argument {flag}:" in err

    def test_smallest_campaign_is_accepted(self):
        args = chaos_build_parser().parse_args(
            ["--nodes", "1", "--shards", "1", "--clients", "1",
             "--key-space", "1", "--duration", "0.5", "--fault-period", "0.1"]
        )
        assert (args.nodes, args.shards, args.clients, args.key_space,
                args.duration, args.fault_period) == (1, 1, 1, 1, 0.5, 0.1)


class TestServeArguments:
    """``serve`` refuses bad numbers at parse time (exit 2, usage line):
    none of them may crash the node later or start it misconfigured."""

    PEERS = ("--peers", "127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402")

    @pytest.mark.parametrize(
        "flag, bad",
        [
            ("--heartbeat", "0"),
            ("--heartbeat", "nan"),
            ("--snapshot-threshold", "0"),
            ("--drift-bound", "-1"),
            ("--staleness-bound", "-0.5"),
            ("--lease-duration", "-1"),
            ("--lease-duration", "inf"),
        ],
    )
    def test_bad_number_is_a_usage_error(self, capsys, flag, bad):
        parser = live_build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["serve", "--pid", "0", *self.PEERS, flag, bad])
        assert exc.value.code == 2
        assert f"error: argument {flag}:" in capsys.readouterr().err

    def test_zero_bounds_are_accepted(self):
        args = live_build_parser().parse_args(
            ["serve", "--pid", "0", *self.PEERS, "--drift-bound", "0",
             "--staleness-bound", "0", "--lease-duration", "0"]
        )
        assert (args.drift_bound, args.staleness_bound, args.lease_duration) == (
            0.0, 0.0, 0.0,
        )


def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "ben-or", "--n", "4", "--quiet"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "decided" in result.stdout

"""Tests for the DST subcommands of ``python -m repro``."""

import json
import os

import pytest

from repro.__main__ import main


def run_cli(*argv):
    return main(list(argv))


class TestExplore:
    def test_quiet_sweep(self, capsys):
        assert run_cli("explore", "ben-or", "--schedules", "15", "--quiet") == 0
        out = capsys.readouterr().out
        assert "ben-or:" in out and "'ok':" in out

    def test_summary_tables(self, capsys):
        assert run_cli("explore", "ben-or", "--schedules", "10") == 0
        out = capsys.readouterr().out
        assert "swept 10 schedules of 'ben-or'" in out
        assert "outcome" in out and "coverage" in out

    def test_broken_variant_reports_violation_but_exits_zero(self, capsys):
        # expect_broken algorithms are self-test targets: finding their
        # violation is success, not failure.
        assert (
            run_cli(
                "explore",
                "ben-or-broken-coherence",
                "--schedules",
                "120",
                "--stop-after",
                "1",
                "--quiet",
            )
            == 0
        )
        assert "'violation': 1" in capsys.readouterr().out

    def test_shrink_and_save_corpus(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        assert (
            run_cli(
                "explore",
                "ben-or-broken-coherence",
                "--schedules",
                "120",
                "--stop-after",
                "1",
                "--shrink",
                "--save-corpus",
                corpus_dir,
                "--quiet",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "shrunk to" in out and "saved corpus case" in out
        files = os.listdir(corpus_dir)
        assert len(files) == 1 and files[0].endswith(".json")
        with open(os.path.join(corpus_dir, files[0])) as handle:
            data = json.load(handle)
        assert data["violation"]["kind"] == "vac-coherence"

    def test_bad_n_range_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("explore", "ben-or", "--n-range", "wide")
        assert exc.value.code == 2
        assert "argument --n-range: bad n_range 'wide'" in capsys.readouterr().err


class TestReplay:
    def test_replay_corpus_case(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        run_cli(
            "explore",
            "ben-or-broken-coherence",
            "--schedules",
            "120",
            "--stop-after",
            "1",
            "--save-corpus",
            corpus_dir,
            "--quiet",
        )
        capsys.readouterr()
        case = os.path.join(corpus_dir, os.listdir(corpus_dir)[0])
        assert run_cli("replay", case) == 0
        assert "recorded violation reproduces" in capsys.readouterr().out

    def test_replay_bare_scenario(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "algorithm": "ben-or",
                    "n": 4,
                    "t": 1,
                    "init_values": [1, 1, 1, 1],
                    "seed": 0,
                }
            )
        )
        assert run_cli("replay", str(path)) == 0
        assert "status=ok" in capsys.readouterr().out

    def test_replay_flags_stale_case(self, capsys, tmp_path):
        # A case whose recorded violation no longer reproduces (here: a
        # healthy scenario stored as if it violated) must exit non-zero.
        path = tmp_path / "stale.json"
        path.write_text(
            json.dumps(
                {
                    "format": 1,
                    "name": "stale",
                    "notes": "",
                    "scenario": {
                        "algorithm": "ben-or",
                        "n": 4,
                        "t": 1,
                        "init_values": [1, 1, 1, 1],
                        "seed": 0,
                    },
                    "violation": {
                        "kind": "vac-coherence",
                        "message": "made up",
                        "event_index": 1,
                    },
                }
            )
        )
        assert run_cli("replay", str(path)) == 1
        assert "did NOT reproduce" in capsys.readouterr().out


def test_legacy_algorithm_commands_still_work(capsys):
    assert run_cli("ben-or", "--n", "5", "--seed", "7", "--quiet") == 0
    assert "processes decided" in capsys.readouterr().out

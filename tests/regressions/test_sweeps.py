"""The pinned live sweeps (``sweeps.json``) are well-formed.

Running a row takes minutes, so CI does that through ``check_sweep.py``;
this tier-1 file checks that every row is a sweep the CLI accepts and
that its pinned counts and digest have the right shape, and that the
checker reads an ``explore --quiet`` run the way it prints.
"""

import re

import pytest

from repro.dst.cli import build_parser
from tests.regressions.check_sweep import load_rows, parse_output

ROWS = load_rows()


@pytest.mark.parametrize("name", sorted(ROWS))
def test_row_is_a_quiet_live_sweep_with_a_full_pin(name):
    row = ROWS[name]
    args = build_parser().parse_args(row["argv"])
    assert (args.command, args.stack, args.quiet) == ("explore", "live", True)
    assert sum(row["counts"].values()) == args.schedules
    assert re.fullmatch(r"[0-9a-f]{64}", row["digest"]), row["digest"]


def test_a_pool_sweep_pins_the_in_process_result():
    """A sweep is a pure function of its meta-seed: fanning it out over
    workers must not move the counts or the digest."""
    pairs = 0
    for name, row in ROWS.items():
        if "--workers" not in row["argv"]:
            continue
        at = row["argv"].index("--workers")
        serial = row["argv"][:at] + row["argv"][at + 2:]
        for other in ROWS.values():
            if other["argv"] == serial:
                pairs += 1
                assert (other["counts"], other["digest"]) == (
                    row["counts"], row["digest"]
                ), name
    assert pairs >= 1


def test_the_checker_reads_a_quiet_run():
    stdout = (
        "live: {'ok': 39, 'violation': 1} (12.5s)\n"
        "sweep digest: " + "ab" * 32 + "\n"
    )
    assert parse_output(stdout) == ({"ok": 39, "violation": 1}, "ab" * 32)
    assert parse_output("") == (None, None)

"""Run pinned live sweeps and compare each with its row in sweeps.json.

    python tests/regressions/check_sweep.py [NAME ...]   # no NAME: every row

A row holds a sweep's argv (after ``python -m repro``), the status counts
its ``--quiet`` summary line must show, and its ``sweep digest:``.  A
sweep whose counts or digest differ prints both values; the exit status
is 1 if any row differed, else the worst exit status of the sweeps.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEPS = os.path.join(HERE, "sweeps.json")
SRC = os.path.join(HERE, os.pardir, os.pardir, "src")

#: ``explore --quiet`` prints ``<label>: {<status>: <count>, ...} (<secs>s)``.
SUMMARY = re.compile(r"^\S+: (\{.*\}) \([0-9.]+s\)$")


def load_rows() -> Dict[str, Dict[str, Any]]:
    with open(SWEEPS) as fh:
        return {row["name"]: row for row in json.load(fh)}


def parse_output(stdout: str) -> Tuple[Optional[Dict[str, int]], Optional[str]]:
    """The status counts and the digest a sweep printed (``None`` if absent)."""
    counts = digest = None
    for line in stdout.splitlines():
        match = SUMMARY.match(line)
        if match:
            counts = ast.literal_eval(match.group(1))
        elif line.startswith("sweep digest: "):
            digest = line[len("sweep digest: "):].strip()
    return counts, digest


def check(row: Dict[str, Any]) -> int:
    print(f"== {row['name']}: python -m repro {' '.join(row['argv'])}", flush=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *row["argv"]],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    print(proc.stdout, end="", flush=True)
    counts, digest = parse_output(proc.stdout)
    failed = False
    for what, want, got in (
        ("counts", row["counts"], counts), ("digest", row["digest"], digest)
    ):
        if want != got:
            print(f"{row['name']}: {what} differ\n  expected {want}\n  observed {got}")
            failed = True
    return 1 if failed else proc.returncode


def main(names: List[str]) -> int:
    rows = load_rows()
    unknown = [name for name in names if name not in rows]
    if unknown:
        print(f"unknown sweep(s) {unknown}; rows: {sorted(rows)}", file=sys.stderr)
        return 2
    codes = [check(rows[name]) for name in names or rows]
    return 1 if 1 in codes else max(codes, default=0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

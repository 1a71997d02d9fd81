"""Compare two result files: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two sets of runs of
one commit), ``B`` the change.  For every workload and end-to-end metric
this prints both medians, B's as a ratio of A's, and a verdict against the
bound ``BENCHMARK.json`` fixes for the metric:

* ``same`` — B's median is not worse than A's by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — the spread between A's own runs (interquartile distance
  over median) is wider than the bound, so the bound cannot be resolved,
  and B's runs are not all better than all of A's.

On the simulated workloads the metrics that are pure functions of the
seed must be identical when both files hold the same seeds; any
difference there is reported as ``differs`` (``worse`` if for the worse).
Per-layer metrics from traced runs are listed without a verdict, except
that the exact ones are checked the same way.

Exits 1 on any ``worse``, and on any rise in the share of failed
operations.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench.sim import EXACT_METRICS, WORKLOADS as SIM_WORKLOADS  # noqa: E402
from bench.stats import spread  # noqa: E402

Runs = Dict[Tuple[str, int], List[Dict[str, Any]]]


def load_runs(path: str) -> Runs:
    with open(path) as fh:
        document = json.load(fh)
    grouped: Runs = {}
    for run in document["runs"]:
        grouped.setdefault((run["workload"], run["trace"]), []).append(run)
    return grouped


def values(runs: List[Dict[str, Any]], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def failed_share(runs: List[Dict[str, Any]]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(
    a: List[float], b: List[float], better: str, bound: float, exact: bool
) -> str:
    """The comparison rule described in the module docstring."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    if exact:
        if a == b:
            return "same"
        return "worse" if worse_by(med_a, med_b, better) > 0 else "differs"
    if spread(a) > bound:
        if better == "lower":
            all_better = max(b) < min(a)
        else:
            all_better = min(b) > max(a)
        return "same" if all_better else "unresolved"
    return "worse" if worse_by(med_a, med_b, better) > bound else "same"


def compare(a: Runs, b: Runs, definition: Dict[str, Any]) -> Tuple[List[str], bool]:
    """The report lines, and whether anything got worse."""
    lines: List[str] = []
    bad = False
    for workload in [w["name"] for w in definition["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            runs_a, runs_b = a.get((workload, trace)), b.get((workload, trace))
            if not runs_a or not runs_b:
                continue
            same_seeds = [r["seed"] for r in runs_a] == [r["seed"] for r in runs_b]
            share_a, share_b = failed_share(runs_a), failed_share(runs_b)
            lines.append(
                f"{workload} ({section}, {len(runs_a)} vs {len(runs_b)} runs): "
                f"failed_share {share_a:.6f} -> {share_b:.6f}"
            )
            if share_b > share_a:
                lines.append("  failed_share rose: worse")
                bad = True
            for metric in definition[section]:
                name = metric["name"]
                va, vb = values(runs_a, name), values(runs_b, name)
                med_a, med_b = statistics.median(va), statistics.median(vb)
                exact = (
                    workload in SIM_WORKLOADS and name in EXACT_METRICS and same_seeds
                )
                bound: Optional[float] = metric.get("bound")
                if bound is None and not exact:
                    outcome = ""
                else:
                    outcome = verdict(va, vb, metric["better"], bound or 0.0, exact)
                bad = bad or outcome == "worse"
                ratio = f"{med_b / med_a:.4f} of A" if med_a else "-"
                limit = "exact" if exact else (f"bound {bound:.0%}" if bound else "")
                lines.append(
                    f"  {name:<32} A {med_a:>12.6g}  B {med_b:>12.6g} "
                    f"{metric['unit']:<6} B = {ratio:<14} "
                    f"A spread {spread(va):.1%}  {limit:<10} {outcome}"
                )
    return lines, bad


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        definition = json.load(fh)
    lines, bad = compare(load_runs(args[0]), load_runs(args[1]), definition)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

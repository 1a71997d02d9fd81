"""Run the benchmark: ``python3 bench/run.py --workload NAME --seed N``.

One invocation runs one workload (or, with ``--workload all``, every
workload ``BENCHMARK.json`` names) for one seed, checks the outputs, and
prints every metric by name with its unit and sample count.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off; with ``--trace 1`` they are the per-layer ones, from a reference run
and a traced run at the same size.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--out FILE`` also appends the run, under a header describing host and
load, to a JSON file that ``bench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
from contextlib import suppress
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = os.path.join(ROOT, "src")
sys.path[:0] = [ROOT, SOURCES]

from bench.stats import supported  # noqa: E402

#: Seconds one workload may take before the run fails instead of hanging.
WORKLOAD_DEADLINE = 170.0


def load_definition() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def host_fingerprint() -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load_1min_at_start": os.getloadavg()[0],
        "commit": sha,
        "started_unix": time.time(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    """Run one workload under its deadline and clean up after it."""
    from bench import live, sim

    run_dir = os.path.join(os.getcwd(), ".bench_run", f"{os.getpid()}-{name}")
    os.makedirs(run_dir)
    try:
        if name in live.WORKLOADS:
            work = live.run(name, seed, seconds, trace, run_dir)
            outcome = asyncio.run(asyncio.wait_for(work, WORKLOAD_DEADLINE))
        else:
            outcome = sim.run(name, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with suppress(OSError):  # another run may still be using it
            os.rmdir(os.path.dirname(run_dir))
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "load": outcome.load,
        "correct": not outcome.problems,
        "problems": outcome.problems[:20],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }


def declared(definition: Dict[str, Any], trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics this kind of run must print."""
    section = definition["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def finish(result: Dict[str, Any], units: Dict[str, str]) -> Dict[str, Any]:
    """Attach units, and refuse a run that did not measure what
    ``BENCHMARK.json`` says it measures."""
    measured = result["metrics"]
    if set(measured) != set(units):
        missing = sorted(set(units) - set(measured))
        extra = sorted(set(measured) - set(units))
        raise SystemExit(
            f"{result['workload']}: metrics differ from BENCHMARK.json "
            f"(missing {missing}, undeclared {extra})"
        )
    result["metrics"] = {
        name: {"value": value, "unit": units[name], "samples": samples}
        for name, (value, samples) in sorted(measured.items())
    }
    return result


def report(result: Dict[str, Any]) -> None:
    load = result["load"]
    print(
        f"== {result['workload']}  seed={result['seed']} trace={result['trace']}  "
        f"{load['loop']} loop, {load['clients']} clients, {load['clock']} clock, "
        f"injected delay {load['injected_delay_ms']} ms, "
        f"{load['warmup_ops']} warm-up + {load['ops']} measured ops"
    )
    for name, metric in result["metrics"].items():
        rank = re.search(r"_p(\d+)", name)
        thin = rank and metric["samples"] and not supported(
            metric["samples"], float(rank.group(1))
        )
        print(
            f"  {name:<34} {metric['value']:>14.6g} {metric['unit']:<6} "
            f"n={metric['samples']}" + ("  (fewer than 10 samples beyond)" if thin else "")
        )
    verdict = "ok" if result["correct"] else "FAILED"
    print(
        f"  checks {verdict}: {result['attempted']} attempted, "
        f"{result['failed']} failed"
    )
    for line in result["problems"]:
        print(f"    {line}")


def last_line(result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in result["metrics"].items()
        },
    }


def append_out(path: str, header: Dict[str, Any], results: List[Dict[str, Any]]) -> None:
    document: Dict[str, Any] = {"header": header, "runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            document = json.load(fh)
    document["runs"].extend(results)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")


def _terminated(signum: int, _frame: Any) -> None:
    # Unwind instead of dying on the spot, so every ``finally`` that stops
    # a child process and removes scratch still runs.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(f"error: nothing to benchmark: {SOURCES}/repro is missing", file=sys.stderr)
        return 2
    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    header = host_fingerprint()
    units = declared(definition, bool(args.trace))
    results = []
    for name in names if args.workload == "all" else [args.workload]:
        result = finish(
            run_workload(name, args.seed, args.seconds, bool(args.trace)), units
        )
        report(result)
        results.append(result)
    if args.out:
        append_out(args.out, header, results)
    if args.workload == "all":
        print(json.dumps({r["workload"]: last_line(r) for r in results}))
    else:
        print(json.dumps(last_line(results[0])))
    return 0 if all(r["correct"] and not r["failed"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())

"""E15 — availability and latency under a chaos campaign.

A seeded nemesis (leader kills + partitions, :mod:`repro.chaos`) runs
against a 5-node, 2-shard KV cluster while recorded clients drive a
mixed put/get workload.  The experiment measures what the service
*delivers* while faults are active — the fraction of client operations
that complete, their latency percentiles — and what it delivers after
the final heal, when availability must return to ~1.0.  The recorded
history is then fed to the linearizability checker: chaos availability
only counts if every answer was consistent.

Results are merged into ``BENCH_live.json`` under ``"chaos"`` (other
experiments' sections are preserved) and gated in CI by
``benchmarks/compare_baseline.py``.  The baseline pins only the stable
metrics — post-heal availability, the linearizable verdict, and a floor
on campaign size; mid-fault availability and latencies are recorded but
not gated (they swing with scheduler noise on shared runners).
"""

import json
import os

from benchmarks.conftest import emit
from repro.analysis.experiments import format_table
from repro.chaos import FaultPlan, campaign, check_history
from repro.core.runtime import AsyncioRuntime

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_live.json")

NODES = 5
SHARDS = 2
CLIENTS = 4
SEED = 15
FAULT_WINDOW = 8.0
GRACE = 2.0
KINDS = ("kill-leader", "partition")


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[idx]


def _availability(stats):
    total = stats["ok"] + stats["ambiguous"] + stats["failed"]
    return (stats["ok"] / total) if total else 0.0


def test_e15_chaos_availability():
    rt = AsyncioRuntime()
    result = rt.run(
        campaign.run(
            rt,
            FaultPlan.random_campaign(
                SEED, duration=FAULT_WINDOW, period=2.5, kinds=KINDS
            ),
            nodes=NODES,
            shards=SHARDS,
            seed=SEED,
            duration=FAULT_WINDOW,
            grace=GRACE,
            clients=CLIENTS,
        ),
        timeout=300.0,
    )
    history, fault_op_count = result.history, result.fault_ops
    during, post = result.fault_stats, result.post_heal_stats

    fault_latencies = [
        op.ret - op.inv
        for op in history.ops[:fault_op_count]
        if op.ok and op.ret is not None
    ]
    report = check_history(history, time_budget=60.0)

    section = {
        "ops_total": float(during["ok"] + during["ambiguous"]
                           + during["failed"]),
        "ops_ok": float(during["ok"]),
        "ops_ambiguous": float(during["ambiguous"]),
        "ops_failed": float(during["failed"]),
        "availability_during_faults": _availability(during),
        "availability_post_heal": _availability(post),
        "latency_s": {
            "p50": _percentile(fault_latencies, 0.50),
            "p95": _percentile(fault_latencies, 0.95),
            "p99": _percentile(fault_latencies, 0.99),
        },
        "linearizable": 1.0 if report.ok else 0.0,
        "history_ops": float(len(history)),
        "checker_elapsed_s": report.elapsed,
    }

    emit(
        "E15 — chaos availability (5 nodes, 2 shards, leader kills"
        " + partitions)",
        format_table(
            ["phase", "ops", "available", "p50 ms", "p95 ms"],
            [
                [
                    "faults",
                    f"{int(section['ops_total'])}",
                    f"{section['availability_during_faults']:.2%}",
                    f"{section['latency_s']['p50'] * 1e3:.1f}",
                    f"{section['latency_s']['p95'] * 1e3:.1f}",
                ],
                [
                    "post-heal",
                    f"{post['ok'] + post['ambiguous'] + post['failed']}",
                    f"{section['availability_post_heal']:.2%}",
                    "-",
                    "-",
                ],
            ],
        )
        + f"\nlinearizable: {report.ok}"
        f" ({len(history)} ops checked in {report.elapsed:.2f}s)",
    )
    _merge_results(section)

    # The acceptance bar: every answer handed out during the campaign
    # was linearizable, and the healed cluster serves essentially all
    # requests again.  Mid-fault availability only needs to clear a low
    # floor — leader kills legitimately stall the affected shard for an
    # election timeout.
    assert report.ok is True, report.summary()
    assert section["ops_total"] >= 200, section
    assert section["availability_post_heal"] >= 0.9, section
    assert section["availability_during_faults"] >= 0.3, section


def _merge_results(section):
    """Update BENCH_live.json in place, keeping other experiments' keys."""
    existing = {}
    if os.path.exists(RESULTS_PATH):
        try:
            with open(RESULTS_PATH) as fh:
                existing = json.load(fh)
        except (OSError, ValueError):
            existing = {}
    if not isinstance(existing, dict):
        existing = {}
    existing["chaos"] = section
    with open(RESULTS_PATH, "w") as fh:
        json.dump(existing, fh, indent=2)
        fh.write("\n")

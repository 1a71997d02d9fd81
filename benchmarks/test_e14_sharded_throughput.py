"""E14 — multi-group sharding: aggregate KV throughput vs shard count.

The sharded KV service (`repro.live.kv` with ``shards=S``) runs ``S``
independent Raft groups over one shared transport, keys hash-partitioned
across them and leaders staggered one-per-node.  This experiment sweeps
``S ∈ {1, 2, 4}`` on the *same* 3-node localhost cluster and records
aggregate closed-loop throughput plus commit-latency percentiles.

Methodology: peer links carry 5 ms of emulated one-way latency
(``link_delay`` — netem-style WAN emulation).  On bare localhost the
commit round trip is ~1 ms and one group alone saturates this host's
CPU, which hides exactly the bottleneck sharding removes; under a
realistic RTT the single group is *commit-cycle-bound* (the event loop
sits idle between replication round trips), and independent groups
overlap their cycles.  The per-group pipeline is deliberately shallow
(``max_batch=4``, ``max_inflight=1``) so the serial-commit bottleneck is
sharp and the measured effect is leader parallelism, not batching.

Results are merged into ``BENCH_live.json`` under ``"sharded"`` (E13's
sections are preserved) and gated in CI by
``benchmarks/compare_baseline.py`` against
``benchmarks/baselines/BENCH_live.json``.
"""

import asyncio
import json
import os

from benchmarks.conftest import emit
from repro.analysis.experiments import format_table
from repro.live import LiveKVCluster, run_closed_loop

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_live.json")

SHARD_SWEEP = (1, 2, 4)
NODES = 3
LINK_DELAY = 0.005  # 5 ms one-way — a sharp-pencil LAN/metro RTT
TUNING = dict(
    election_timeout=(0.3, 0.5),
    heartbeat_interval=0.08,
    max_batch=4,
    max_inflight=1,
    transport_options={"link_delay": LINK_DELAY},
)
OPS = 800
CONCURRENCY = 48


def run(coro, timeout=300.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _bench_shards(shards, *, seed):
    cluster = LiveKVCluster(NODES, seed=seed, shards=shards, **TUNING)
    await cluster.start()
    try:
        leaders = await cluster.wait_for_all_leaders(30.0)
        report = await run_closed_loop(
            cluster.cluster,
            ops=OPS,
            concurrency=CONCURRENCY,
            key_space=512,
            seed=seed,
            shards=shards,
        )
        return report, leaders
    finally:
        await cluster.stop()


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
    existing["sharded"] = section
    with open(RESULTS_PATH, "w") as fh:
        json.dump(existing, fh, indent=2)
        fh.write("\n")


def test_e14_sharded_throughput():
    section = {}
    rows = []
    for shards in SHARD_SWEEP:
        report, leaders = run(_bench_shards(shards, seed=21))
        assert report.errors == 0, report.summary()
        lat = report.latency
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        # Staggered placement: every shard's first leader is its
        # preferred node, so S <= n distinct leaders share the load.
        assert leaders == {s: s % NODES for s in range(shards)}
        section[f"{shards}-shard"] = report.to_dict()
        rows.append([
            f"{shards}", f"{report.ops}",
            f"{report.throughput:.0f}",
            f"{lat['p50'] * 1e3:.1f}",
            f"{lat['p95'] * 1e3:.1f}",
            f"{lat['p99'] * 1e3:.1f}",
        ])

    base = section["1-shard"]["throughput_ops_s"]
    for shards in SHARD_SWEEP:
        section[f"speedup_{shards}x"] = (
            section[f"{shards}-shard"]["throughput_ops_s"] / base
        )
    emit(
        "E14 — sharded KV throughput (3 nodes, 5ms emulated link delay)",
        format_table(["shards", "ops", "ops/s", "p50 ms", "p95 ms", "p99 ms"],
                     rows)
        + f"\n4-shard speedup over 1 shard: x{section['speedup_4x']:.2f}",
    )
    _merge_results(section)

    # The acceptance bar: four groups must parallelize the commit
    # pipeline into at least 2.5x the single group's aggregate rate.
    assert section["speedup_4x"] >= 2.5, section["speedup_4x"]
    assert section["speedup_2x"] >= 1.4, section["speedup_2x"]

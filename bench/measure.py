"""From what a run observed to the named metrics.

A :class:`Window` is one measured window with everything read around it:
the clients' op log, wall and CPU seconds, the nodes' public counters
before and after, ``status`` samples taken once a second, and — for a
traced window — every process's spans.  :func:`end_to_end` and
:func:`per_layer` turn windows into the metrics ``BENCHMARK.json`` names;
a metric that does not apply to a workload reads 0.
"""

from __future__ import annotations

import asyncio
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.replica import BALLOT_STRIDE

from bench.loadgen import OpLog
from bench.spans import by_op, self_times
from bench.stats import clip, drift, percentile, union_length

Metric = Tuple[float, int]  # value, samples it was taken from

#: The fault and recovery metrics on a workload that injects no fault.
NO_FAULT: Dict[str, Metric] = {
    "fault.unavailable_vs": (0.0, 0),
    "fault.late_share": (0.0, 0),
    "fault.catchup_vs": (0.0, 0),
    "fault.catchup_cpu_s": (0.0, 0),
    "storage.recover_ms": (0.0, 0),
}


@dataclass
class Window:
    log: OpLog
    wall_s: float
    cpu_s: float
    engine: str = "raft"
    #: Per node, its counters (``bench/node.py``'s dump) at both ends.
    before: List[Dict[str, Any]] = field(default_factory=list)
    after: List[Dict[str, Any]] = field(default_factory=list)
    #: One list of per-node ``status`` replies per sampling tick.
    samples: List[List[Optional[Dict[str, Any]]]] = field(default_factory=list)
    #: Spans per process (``"client"``, ``"node-0"``, ...), traced runs only.
    spans: Dict[str, List[Sequence]] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    #: Bytes of key + value the acknowledged puts carried.
    user_bytes: int = 0


@dataclass
class Outcome:
    """What one benchmark run of one workload produced."""

    metrics: Dict[str, Metric]
    attempted: int
    failed: int
    #: What the output checks found wrong (empty = correct).
    problems: List[str]
    #: The load that was applied, for the result file's record.
    load: Dict[str, Any]


def problems_of(*phases: Tuple[str, OpLog]) -> List[str]:
    """The failed checks of a run's phases, one line each."""
    out = []
    for phase, log in phases:
        out += [f"{phase}: {line}" for line in log.wrong]
        if log.failed:
            out.append(f"{phase}: {log.failed} operations failed")
    return out


async def sample_status(
    statuses: Callable[[], Any], into: List[List[Optional[Dict[str, Any]]]],
    period: float = 1.0,
) -> None:
    """Append one round of ``status`` replies to ``into`` every ``period``
    seconds until cancelled."""
    while True:
        await asyncio.sleep(period)
        into.append(await statuses())


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------


def end_to_end(
    window: Window, *, setups: Sequence[float], leader_rss_mb: float
) -> Dict[str, Metric]:
    """The metrics a user of the system would see, on every workload."""
    puts = window.log.put_ms()
    acked = window.log.acked
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "put_p50_ms": (percentile(puts, 50), len(puts)),
        "put_p90_ms": (percentile(puts, 90), len(puts)),
        "ops_s": (acked / window.wall_s, acked),
        "put_p50_drift": (drift(puts), len(puts)),
        "leader_rss_mb": (leader_rss_mb, 1),
    }


# ----------------------------------------------------------------------
# Per layer: counters
# ----------------------------------------------------------------------


def _delta(window: Window, *path: str) -> float:
    """Sum over node incarnations of a counter's growth across the window
    (an incarnation born inside the window grew from zero)."""

    def read(stats: Optional[Dict[str, Any]]) -> float:
        value: Any = stats
        for key in path:
            value = (value or {}).get(key)
        return value or 0

    before = {stats["node"]: stats for stats in window.before}
    return sum(
        read(stats) - read(before.get(stats["node"])) for stats in window.after
    )


def _epoch(term: int, engine: str) -> int:
    """Leadership epochs count 1, 2, ... under Raft and in strides of
    ``BALLOT_STRIDE`` under the ballot engines."""
    return term if engine == "raft" else term // BALLOT_STRIDE


def _leader(stats: Sequence[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    leaders = [s for s in stats if s and s.get("role") == "leader"]
    return max(leaders, key=lambda s: s["term"]) if leaders else None


def counter_metrics(window: Window) -> Dict[str, Metric]:
    """Per-layer metrics that public counters and ``status`` give."""
    ops = max(window.log.acked, 1)
    sent = _delta(window, "transport", "sent")
    writes = _delta(window, "transport", "writes")
    bytes_sent = _delta(window, "transport", "bytes_sent")
    batches = _delta(window, "batches")
    batched = _delta(window, "batched_ops")
    appends = _delta(window, "wal", "appends")
    syncs = _delta(window, "wal", "syncs")
    wal_bytes = _delta(window, "wal", "bytes_written")
    gets = len(window.log.gets)
    lease_gets = window.log.served_by.get("lease", 0)

    epoch_before = max((_epoch(s["term"], window.engine) for s in window.before), default=0)
    epoch_after = max((_epoch(s["term"], window.engine) for s in window.after), default=0)
    won_before = {t for s in window.before for t in s["terms_won"]}
    won = {t for s in window.after for t in s["terms_won"]} - won_before
    advanced = epoch_after - epoch_before

    lag = queue = watermark = 0
    for tick in window.samples:
        leader = _leader([s for s in tick if s])
        if leader is None:
            continue
        followers = [s for s in tick if s and s["pid"] != leader["pid"]]
        if followers:
            lag = max(lag, max(leader["commit_index"] - s["applied"] for s in followers))
        for status in tick:
            for group in (status or {}).get("groups", ()):
                queue = max(queue, group.get("fsync_queue_depth", 0))
                watermark = max(watermark, group.get("watermark_lag", 0))

    leader_after = _leader(window.after)
    ticks = len(window.samples)
    return {
        "kv.batch_occupancy": (batched / batches if batches else 0.0, int(batches)),
        "repl.msgs_per_op": (sent / ops, ops),
        "repl.bytes_per_op": (bytes_sent / ops, ops),
        "repl.retained_entries_end": (
            leader_after["retained_entries"] if leader_after else 0, 1,
        ),
        "repl.follower_lag_max": (lag, ticks),
        "repl.terms_advanced": (advanced, 1),
        "repl.elections_no_winner": (max(advanced - len(won), 0), 1),
        "read.lease_hit_ratio": (lease_gets / gets if gets else 0.0, gets),
        "codec.bytes_per_frame": (bytes_sent / sent if sent else 0.0, int(sent)),
        "transport.frames_per_write": (sent / writes if writes else 0.0, int(writes)),
        "transport.writes_per_op": (writes / ops, ops),
        "transport.reconnects": (_delta(window, "transport", "reconnects"), 1),
        "transport.dropped": (_delta(window, "transport", "dropped"), 1),
        "wal.appends_per_op": (appends / ops, ops),
        "wal.fsyncs_per_op": (syncs / ops, ops),
        "wal.bytes_per_user_byte": (
            wal_bytes / window.user_bytes if window.user_bytes else 0.0, ops,
        ),
        "storage.compactions": (_delta(window, "wal", "compactions"), 1),
        "storage.max_compact_ms": (
            max(((s["wal"] or {}).get("max_compact_s", 0.0) for s in window.after), default=0.0)
            * 1e3,
            1,
        ),
        "storage.fsync_queue_depth_max": (queue, ticks),
        "storage.watermark_lag_max": (watermark, ticks),
    }


# ----------------------------------------------------------------------
# Per layer: spans
# ----------------------------------------------------------------------


def untraced_share(window: Window) -> Metric:
    """Share of request latency that no span covers.

    A request's latency is its ``client.put`` / ``client.get`` span.  The
    client's own work inside it is traced (self time and codec spans);
    what may be untraced is the socket wait, of which only the part
    overlapped by server-side spans carrying the same op id is covered.
    """
    latency = dark = 0.0
    requests = 0
    server = by_op(
        span
        for spans in window.spans.values()
        for span in spans
        if not span[1].startswith("client.")
    )
    for spans in window.spans.values():
        waits: Dict[int, List[Tuple[float, float]]] = {}
        for span in spans:
            if span[1] == "client.socket_wait":
                waits.setdefault(span[4], []).append((span[2], span[3]))
        for root in spans:
            if root[1] not in ("client.put", "client.get") or not root[5]:
                continue
            requests += 1
            latency += root[3] - root[2]
            covering = [(s[2], s[3]) for s in server.get(root[5][0], ())]
            for lo, hi in waits.get(root[0], ()):
                dark += (hi - lo) - union_length(clip(covering, lo, hi))
    return (dark / latency if latency else 0.0, requests)


def span_metrics(window: Window) -> Dict[str, Metric]:
    """Per-layer metrics that need the traced run's spans."""
    ops = max(window.log.acked, 1)
    gets = len(window.log.gets)
    durations: Dict[str, List[float]] = defaultdict(list)
    selfs: Dict[str, List[float]] = defaultdict(list)
    batch_wait: List[float] = []
    for spans in window.spans.values():
        own = self_times(spans)
        enqueued = {s[5][0]: s[2] for s in spans if s[1] == "kv.enqueue"}
        for span in spans:
            durations[span[1]].append(span[3] - span[2])
            selfs[span[1]].append(own[span[0]])
            if span[1] == "runtime.inject" and span[5]:
                batch_wait += [span[2] - enqueued[op] for op in span[5] if op in enqueued]

    def mean_us(values: List[float]) -> Metric:
        return (statistics.fmean(values) * 1e6 if values else 0.0, len(values))

    def p_ms(values: List[float], p: float) -> Metric:
        return (percentile(values, p) * 1e3 if values else 0.0, len(values))

    counts = window.counts
    proposals = counts["repl.proposals"]
    return {
        "client.retries_per_op": (
            max(counts["client.requests"] - window.log.attempted, 0) / ops, ops,
        ),
        "client.redirects_per_op": (counts["client.redirects"] / ops, ops),
        "client.self_us": mean_us(selfs["client.put"] + selfs["client.get"]),
        "kv.batch_wait_ms_p50": p_ms(batch_wait, 50),
        "kv.enqueue_to_ack_ms_p50": p_ms(durations["kv.enqueue_to_ack"], 50),
        "kv.apply_us": mean_us(selfs["kv.apply"]),
        "runtime.handler_us": mean_us(selfs["runtime.handler"]),
        "runtime.inject_us": mean_us(selfs["runtime.inject"]),
        "runtime.timers_per_op": (counts["runtime.timers"] / ops, ops),
        "repl.propose_to_commit_ms_p50": p_ms(durations["repl.propose_to_commit"], 50),
        "repl.contains_us_per_proposal": (
            sum(durations["repl.contains"]) / proposals * 1e6 if proposals else 0.0,
            proposals,
        ),
        "read.probe_rounds_per_get": (
            counts["read.probe_rounds"] / gets if gets else 0.0, gets,
        ),
        "read.renewals_per_s": (counts["read.renewals"] / window.wall_s, 1),
        "codec.encode_us_per_frame": mean_us(durations["codec.encode"]),
        "codec.decode_us_per_frame": mean_us(durations["codec.decode"]),
        "transport.send_us": mean_us(selfs["transport.send"]),
        "wal.append_us": mean_us(selfs["wal.append"]),
        "wal.fsync_ms_p50": p_ms(durations["wal.fsync"], 50),
        "wal.fsync_ms_p99": p_ms(durations["wal.fsync"], 99),
        "ledger.untraced_share": untraced_share(window),
    }


def per_layer(
    reference: Window,
    traced: Window,
    *,
    gets_ms: Sequence[float],
    overhead_of: Callable[[Window], float],
    extra: Dict[str, Metric],
) -> Dict[str, Metric]:
    """Every per-layer metric of one workload.

    Counters come from ``reference`` (wrappers off), timings from
    ``traced``; ``gets_ms`` are the reference window's linearizable gets
    where the workload has them and the read-back pass's otherwise;
    ``overhead_of`` picks the figure whose growth between the two windows
    is the tracing overhead; ``extra`` holds what only the workload itself
    can measure (isolated layers, recovery, fault timings).
    """
    puts = reference.log.put_ms()
    acked = reference.log.acked
    base = overhead_of(reference)
    out: Dict[str, Metric] = {
        "client.put_p99_ms": (percentile(puts, 99), len(puts)),
        "client.get_p50_ms": (percentile(gets_ms, 50), len(gets_ms)),
        "client.get_p90_ms": (percentile(gets_ms, 90), len(gets_ms)),
        "client.get_p99_ms": (percentile(gets_ms, 99), len(gets_ms)),
        "host.cpu_ms_per_op": (reference.cpu_s * 1e3 / acked, acked),
        "trace.overhead_share": ((overhead_of(traced) - base) / base, 1),
    }
    out.update(counter_metrics(reference))
    out.update(span_metrics(traced))
    out.update(extra)
    return out

"""DST over the *live* production stack: seeded chaos in virtual time.

This module is the payoff of the runtime seam
(:mod:`repro.core.runtime`): it runs the **identical** production code —
:class:`~repro.live.kv.KVServer` with sharding, the redirect-following
:class:`~repro.live.client.AsyncKVClient`, the chaos
:class:`~repro.chaos.nemesis.Nemesis` and the recorded workload — inside
a :class:`~repro.core.runtime.SimRuntime`, where every socket is an
in-memory stream and every clock is virtual.  A 10-second fault campaign
executes in tens of milliseconds, and — crucially — the *entire*
execution is a pure function of the scenario: the same
:class:`LiveScenario` always produces the same histories, the same
traces, the same commit orders and the same checker verdict, byte for
byte.  That turns every live-stack bug into a replayable regression
seed, exactly as :mod:`repro.dst.scenario` already does for the bare
algorithm nodes.

The shape mirrors ``python -m repro chaos``: boot a cluster, run a
recorded client workload while the nemesis executes a seeded fault plan
(kills, partitions, drops, delays, clock skew), heal, let the cluster
converge, read everything back, then hand the recorded history to the
Wing & Gill linearizability checker as the oracle.

Use :func:`explore_live` to sweep seeded scenarios (``python -m repro
explore --stack live``), :func:`shrink_live` to greedily minimize a
failing one, and :func:`run_live_scenario` to replay a corpus case.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.checker import check_history
from repro.chaos.history import History
from repro.chaos.nemesis import (
    DEFAULT_KINDS,
    DURABILITY_KINDS,
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    Nemesis,
)
from repro.chaos.workload import close_clients, make_clients, run_workload
from repro.core.runtime import SimRuntime
from repro.dst.scenario import (
    ERROR,
    OK,
    UNDECIDED,
    VIOLATION,
    ScenarioOutcome,
    ViolationRecord,
)
from repro.live.engine import ENGINES
from repro.live.harness import LiveKVCluster

#: Campaign timings (same as ``python -m repro chaos``): elections
#: resolve in about a virtual second, so short campaigns still see
#: several leadership changes.
SIM_TIMINGS = dict(election_timeout=(0.3, 0.6), heartbeat_interval=0.06)

#: The fault mix explored by default: every kind that needs neither a
#: data directory nor wall-clock side effects.  Durability kinds
#: (power failures, torn tails) join in when the scenario carries a
#: ``lost-ack`` bug or schedules them explicitly.
LIVE_EXPLORE_KINDS = DEFAULT_KINDS + (
    "drop",
    "delay",
    "timeout-skew",
    "clock-skew",
)

#: Injectable bugs a scenario may carry, mapping to the same flags the
#: chaos CLI exposes (empty string = correct cluster).
LIVE_BUGS = ("", "stale-reads", "unbounded-lease", "lost-ack")

#: Virtual-seconds safety cap multiplier for one campaign run.
_RUN_TIMEOUT_SLACK = 90.0


@dataclass(frozen=True)
class LiveScenario:
    """One fully-specified, JSON-serializable live-stack schedule.

    ``faults`` is the *explicit* event list (not a generator seed), so a
    shrunk scenario — with events deleted — round-trips through the
    corpus unchanged.  ``seed`` still drives everything else: election
    randomness, transport jitter, the workload op mix.
    """

    n: int = 3
    shards: int = 2
    seed: int = 0
    engine: str = "raft"
    read_tier: str = "safe"
    inject_bug: str = ""
    duration: float = 6.0
    clients: int = 3
    readonly_clients: int = 1
    key_space: int = 3
    read_fraction: float = 0.5
    op_pause: float = 0.02
    grace: float = 1.5
    faults: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.inject_bug not in LIVE_BUGS:
            raise ValueError(
                f"unknown inject_bug {self.inject_bug!r} "
                f"(choose from {LIVE_BUGS})"
            )
        for event in self.faults:
            if event.kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {event.kind!r}")

    @property
    def needs_disk(self) -> bool:
        """Whether this run requires per-node data directories."""
        return self.inject_bug == "lost-ack" or any(
            e.kind in DURABILITY_KINDS for e in self.faults
        )

    def effective_read_tier(self) -> str:
        if self.inject_bug == "unbounded-lease" and self.read_tier == "safe":
            return "lease"  # the bug needs a lease to mis-bound
        return self.read_tier

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stack": "live",
            "n": self.n,
            "shards": self.shards,
            "seed": self.seed,
            "engine": self.engine,
            "read_tier": self.read_tier,
            "inject_bug": self.inject_bug,
            "duration": self.duration,
            "clients": self.clients,
            "readonly_clients": self.readonly_clients,
            "key_space": self.key_space,
            "read_fraction": self.read_fraction,
            "op_pause": self.op_pause,
            "grace": self.grace,
            "faults": [
                {
                    "at": e.at,
                    "kind": e.kind,
                    "args": [[name, value] for name, value in e.args],
                }
                for e in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LiveScenario":
        faults = tuple(
            FaultEvent(
                at=f["at"],
                kind=f["kind"],
                args=tuple((name, value) for name, value in f.get("args", [])),
            )
            for f in data.get("faults", [])
        )
        return cls(
            n=data["n"],
            shards=data.get("shards", 1),
            seed=data.get("seed", 0),
            engine=data.get("engine", "raft"),
            read_tier=data.get("read_tier", "safe"),
            inject_bug=data.get("inject_bug", ""),
            duration=data.get("duration", 6.0),
            clients=data.get("clients", 3),
            readonly_clients=data.get("readonly_clients", 1),
            key_space=data.get("key_space", 3),
            read_fraction=data.get("read_fraction", 0.5),
            op_pause=data.get("op_pause", 0.02),
            grace=data.get("grace", 1.5),
            faults=faults,
        )


@dataclass
class LiveRunResult:
    """Everything one simulated campaign produced.

    ``fingerprint`` hashes the client history, every node's applied
    (commit) order, the nemesis action log and the checker verdict —
    two runs of the same scenario must produce the same fingerprint,
    which is the determinism test's single assertion.
    """

    outcome: ScenarioOutcome
    history_jsonl: str = ""
    trace_text: str = ""
    nemesis_log: List[Tuple[float, str, str]] = field(default_factory=list)
    checker_summary: str = ""
    stats: Dict[str, int] = field(default_factory=dict)
    fingerprint: str = ""


def run_live(scenario: LiveScenario) -> LiveRunResult:
    """Run one scenario under a fresh :class:`SimRuntime`; deterministic."""
    rt = SimRuntime()
    cap = scenario.duration + scenario.grace + _RUN_TIMEOUT_SLACK
    try:
        try:
            result = rt.run(_campaign(rt, scenario), timeout=cap)
        except Exception as exc:  # harness failure, not a verdict
            return LiveRunResult(
                outcome=ScenarioOutcome(
                    status=ERROR,
                    violation=ViolationRecord(
                        "error", f"{type(exc).__name__}: {exc}"
                    ),
                )
            )
    finally:
        rt.close()
    return result


def run_live_scenario(scenario: LiveScenario) -> ScenarioOutcome:
    """Corpus-facing entry point: scenario in, outcome out."""
    return run_live(scenario).outcome


async def _campaign(rt: SimRuntime, scenario: LiveScenario) -> LiveRunResult:
    tmp_dir: Optional[tempfile.TemporaryDirectory] = None
    data_dir: Optional[str] = None
    if scenario.needs_disk:
        tmp_dir = tempfile.TemporaryDirectory(prefix="repro-dst-live-")
        data_dir = tmp_dir.name
    cluster = LiveKVCluster(
        scenario.n,
        seed=scenario.seed,
        shards=scenario.shards,
        engine=scenario.engine,
        unsafe_lin_reads=(scenario.inject_bug == "stale-reads"),
        lost_ack_bug=(scenario.inject_bug == "lost-ack"),
        data_dir=data_dir,
        read_tier=scenario.effective_read_tier(),
        drift_bound=(
            0.0 if scenario.inject_bug == "unbounded-lease" else 0.03
        ),
        runtime=rt,
        **SIM_TIMINGS,
    )
    history = History(runtime=rt)
    clients = make_clients(
        cluster.cluster,
        history,
        scenario.clients,
        shards=scenario.shards,
        deterministic_ids=True,
    )
    plan = FaultPlan(scenario.faults, seed=scenario.seed)
    nemesis = Nemesis(cluster, plan)
    stats: Dict[str, int] = {}
    try:
        await cluster.start()
        await cluster.wait_for_all_leaders(30.0)
        workload = rt.spawn(
            run_workload(
                clients,
                duration=scenario.duration,
                seed=scenario.seed,
                key_space=scenario.key_space,
                read_fraction=scenario.read_fraction,
                readonly_clients=scenario.readonly_clients,
                pause=scenario.op_pause,
            )
        )
        await nemesis.run()
        stats = await workload
        # Heal, revive, and give the converged cluster a read-only grace
        # pass so stale state still visible anywhere gets observed.
        await nemesis.apply(FaultEvent(0.0, "heal"))
        await nemesis.apply(FaultEvent(0.0, "restart"))
        await cluster.wait_for_all_leaders(30.0)
        if scenario.grace > 0:
            await run_workload(
                clients,
                duration=scenario.grace,
                seed=scenario.seed + 1,
                key_space=scenario.key_space,
                read_fraction=1.0,
                readonly_clients=len(clients),
                pause=scenario.op_pause,
            )
    finally:
        await close_clients(clients)
        await cluster.stop()
        if tmp_dir is not None:
            tmp_dir.cleanup()

    # Generous wall-clock budget: simulated histories are small, and a
    # budget-flipped verdict would break replay determinism.
    report = check_history(history, time_budget=60.0)
    trace_text = _trace_text(cluster)
    history_jsonl = history.to_jsonl()
    nemesis_log = [(a.at, a.kind, a.detail) for a in nemesis.log]
    outcome = _verdict(report, history)
    summary = report.summary()
    fingerprint = _fingerprint(
        history_jsonl, trace_text, nemesis_log, outcome
    )
    return LiveRunResult(
        outcome=outcome,
        history_jsonl=history_jsonl,
        trace_text=trace_text,
        nemesis_log=nemesis_log,
        checker_summary=summary,
        stats=stats,
        fingerprint=fingerprint,
    )


def _verdict(report, history: History) -> ScenarioOutcome:
    if report.ok is True:
        return ScenarioOutcome(
            status=OK, events=len(history), stop_reason="linearizable"
        )
    if report.ok is None:
        return ScenarioOutcome(
            status=UNDECIDED,
            events=len(history),
            stop_reason="checker budget exhausted",
        )
    worst = report.violations[0]
    event_index = -1
    if worst.witness:
        last = worst.witness[-1]
        for i, op in enumerate(history.ops):
            if op is last:
                event_index = i
                break
    return ScenarioOutcome(
        status=VIOLATION,
        violation=ViolationRecord(
            kind="linearizability",
            message=f"key {worst.key!r}: {worst.reason}",
            event_index=event_index,
        ),
        events=len(history),
    )


def _trace_text(cluster: LiveKVCluster) -> str:
    """A canonical, deterministic dump of every node's merged trace."""
    lines = []
    for event in cluster.merged_trace().events:
        lines.append(
            f"{event.time:.6f} {event.kind} {event.pid} {event.detail!r}"
        )
    return "\n".join(lines)


def _fingerprint(
    history_jsonl: str,
    trace_text: str,
    nemesis_log: List[Tuple[float, str, str]],
    outcome: ScenarioOutcome,
) -> str:
    digest = hashlib.sha256()
    digest.update(history_jsonl.encode())
    digest.update(trace_text.encode())
    digest.update(repr(nemesis_log).encode())
    digest.update(outcome.status.encode())
    if outcome.violation is not None:
        digest.update(repr(
            (outcome.violation.kind, outcome.violation.message,
             outcome.violation.event_index)
        ).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


def generate_live_scenarios(
    count: int,
    meta_seed: int,
    *,
    base: Optional[LiveScenario] = None,
    kinds: Tuple[str, ...] = LIVE_EXPLORE_KINDS,
    fault_period: float = 1.5,
    engines: Sequence[str] = tuple(ENGINES),
) -> List[LiveScenario]:
    """``count`` seeded scenarios derived deterministically from ``meta_seed``.

    Each draws a fresh run seed and a fresh random fault campaign over
    ``kinds``; everything else comes from ``base`` (cluster size, tier,
    injected bug, workload shape) — except the engine, which rotates
    through ``engines`` (default: every registered engine, in registry
    order, so schedule 0 runs raft), so one sweep covers them all.
    """
    import random as _random

    rng = _random.Random(meta_seed)
    template = base if base is not None else LiveScenario()
    scenarios = []
    for index in range(count):
        seed = rng.randrange(2**31)
        plan = FaultPlan.random_campaign(
            seed,
            duration=template.duration,
            period=fault_period,
            kinds=kinds,
        )
        scenarios.append(
            replace(
                template,
                seed=seed,
                faults=plan.events,
                engine=engines[index % len(engines)],
            )
        )
    return scenarios


@dataclass
class LiveExplorationReport:
    """What a live-stack sweep found."""

    schedules: int = 0
    ok: int = 0
    undecided: int = 0
    errors: int = 0
    failures: List[Tuple[LiveScenario, ViolationRecord]] = field(
        default_factory=list
    )
    #: One fingerprint per schedule, in run order.  Two sweeps with the
    #: same parameters must produce the identical list.
    fingerprints: List[str] = field(default_factory=list)

    @property
    def violations(self) -> int:
        return len(self.failures)

    def digest(self) -> str:
        """One hash over the whole sweep (histories, traces, verdicts)."""
        h = hashlib.sha256()
        for fingerprint in self.fingerprints:
            h.update(fingerprint.encode())
        return h.hexdigest()

    def summary(self) -> str:
        return (
            f"explored {self.schedules} live schedule(s): {self.ok} ok, "
            f"{self.violations} violation(s), {self.undecided} undecided, "
            f"{self.errors} error(s)"
        )


def explore_live(
    schedules: int,
    meta_seed: int,
    *,
    base: Optional[LiveScenario] = None,
    kinds: Tuple[str, ...] = LIVE_EXPLORE_KINDS,
    fault_period: float = 1.5,
    stop_after: Optional[int] = None,
    progress: Any = None,
    trace_sink: Any = None,
) -> LiveExplorationReport:
    """Run ``schedules`` seeded live campaigns; collect every violation.

    Runs are sequential — each owns a fresh simulated world — and the
    report is a deterministic function of ``(meta_seed, parameters)``.
    ``progress`` (if given) is called after each run with
    ``(index, scenario, outcome)``; ``trace_sink`` with
    ``(index, scenario, result)`` — the full :class:`LiveRunResult`,
    for callers that want the trace/history artifacts.
    """
    report = LiveExplorationReport()
    for index, scenario in enumerate(
        generate_live_scenarios(
            schedules, meta_seed, base=base, kinds=kinds,
            fault_period=fault_period,
        )
    ):
        result = run_live(scenario)
        outcome = result.outcome
        report.schedules += 1
        report.fingerprints.append(result.fingerprint)
        if trace_sink is not None:
            trace_sink(index, scenario, result)
        if outcome.status == OK:
            report.ok += 1
        elif outcome.status == VIOLATION:
            assert outcome.violation is not None
            report.failures.append((scenario, outcome.violation))
        elif outcome.status == UNDECIDED:
            report.undecided += 1
        else:
            report.errors += 1
        if progress is not None:
            progress(index, scenario, outcome)
        if stop_after is not None and report.violations >= stop_after:
            break
    return report


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def shrink_live(
    scenario: LiveScenario,
    violation: ViolationRecord,
    *,
    max_runs: int = 60,
    progress: Any = None,
) -> Tuple[LiveScenario, ViolationRecord]:
    """Greedily minimize a failing scenario, preserving the violation kind.

    Passes, repeated until a fixpoint or the run budget is spent:
    drop one fault event at a time; drop trailing faults and truncate
    the duration to just past the last survivor; reduce writer clients.
    Each candidate is re-run; a shrink is kept only if it still fails
    with the same violation kind.
    """
    runs = 0

    def still_fails(candidate: LiveScenario) -> Optional[ViolationRecord]:
        nonlocal runs
        if runs >= max_runs:
            return None
        runs += 1
        outcome = run_live_scenario(candidate)
        if progress is not None:
            progress(runs, candidate, outcome)
        if (
            outcome.status == VIOLATION
            and outcome.violation is not None
            and outcome.violation.kind == violation.kind
        ):
            return outcome.violation
        return None

    best, best_violation = scenario, violation
    improved = True
    while improved and runs < max_runs:
        improved = False
        # Pass 1: drop individual fault events.
        for i in range(len(best.faults)):
            candidate = replace(
                best, faults=best.faults[:i] + best.faults[i + 1:]
            )
            verdict = still_fails(candidate)
            if verdict is not None:
                best, best_violation = candidate, verdict
                improved = True
                break
        if improved:
            continue
        # Pass 2: truncate the campaign after the last remaining fault.
        if best.faults:
            cut = best.faults[-1].at + 1.0
            if cut < best.duration:
                candidate = replace(best, duration=round(cut, 6))
                verdict = still_fails(candidate)
                if verdict is not None:
                    best, best_violation = candidate, verdict
                    improved = True
                    continue
        # Pass 3: fewer clients (never below one writer + one reader).
        if best.clients > 2:
            candidate = replace(best, clients=best.clients - 1)
            verdict = still_fails(candidate)
            if verdict is not None:
                best, best_violation = candidate, verdict
                improved = True
    return best, best_violation

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

A run *is* ``python -m repro chaos`` in virtual time: the same campaign
coroutine (:func:`repro.chaos.campaign.run` — boot, recorded workload
against a seeded fault plan, heal, converge, read everything back), then
the Wing & Gill linearizability checker as the oracle.

:class:`LiveScenario` satisfies the scenario protocol
(:class:`repro.dst.scenario.DstScenario`), so the ordinary pipeline
applies: :func:`generate_live_scenarios` feeds
:func:`repro.dst.explorer.explore` (``python -m repro explore --stack
live``), :func:`repro.dst.shrinker.shrink` minimizes a failing scenario
through the three passes defined here, and the corpus replays it.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from typing import Any, ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.chaos import campaign
from repro.chaos.checker import check_history
from repro.chaos.history import History
from repro.chaos.nemesis import DEFAULT_KINDS, FaultEvent, FaultPlan
from repro.core.runtime import SimRuntime
from repro.dst.scenario import (
    ERROR,
    OK,
    UNDECIDED,
    VIOLATION,
    RunResult,
    ScenarioOutcome,
    ShrinkPass,
    ViolationRecord,
)
from repro.live.engine import ENGINES
from repro.options import check_fields
from repro.sim.trace import Trace

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

#: Virtual-seconds safety cap multiplier for one campaign run.
_RUN_TIMEOUT_SLACK = 90.0


@dataclass(frozen=True)
class LiveScenario:
    """One fully-specified, JSON-serializable live-stack schedule.

    ``faults`` is the *explicit* event list (not a generator seed), so a
    shrunk scenario — with events deleted — round-trips through the
    corpus unchanged.  ``seed`` still drives everything else: election
    randomness, transport jitter, the workload op mix.  ``inject_bug``
    is one of :data:`repro.chaos.campaign.INJECTABLE_BUGS`, or empty for
    a correct cluster.
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

    #: Default cap on shrink attempts (each is a whole campaign).
    shrink_budget: ClassVar[int] = 60

    def __post_init__(self) -> None:
        if self.inject_bug and self.inject_bug not in campaign.INJECTABLE_BUGS:
            raise ValueError(
                f"unknown inject_bug {self.inject_bug!r} "
                f"(choose from {campaign.INJECTABLE_BUGS})"
            )
        check_fields(
            self, n="--nodes", shards="--shards", duration="--duration",
            clients="--clients", readonly_clients="--readonly-clients",
            key_space="--key-space", read_fraction="--read-fraction",
            op_pause="--op-pause", grace="--grace",
        )
        FaultPlan(self.faults)  # checks each event's kind, time and order

    def run(self) -> "LiveRunResult":
        return run_live(self)

    def shrink_passes(self) -> Sequence[ShrinkPass]:
        return (_drop_one_fault, _truncate_after_last_fault, _drop_one_client)

    def slug(self) -> str:
        return f"live-{self.inject_bug or 'correct'}"

    def coverage_keys(self) -> List[str]:
        kinds = sorted({e.kind for e in self.faults} - {"heal", "restart"})
        return [f"n:{self.n}", f"engine:{self.engine}"] + [
            f"fault:{kind}" for kind in kinds
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {"stack": "live", **asdict(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LiveScenario":
        fields = {key: value for key, value in data.items() if key != "stack"}
        fields["faults"] = tuple(
            FaultEvent(
                at=f["at"],
                kind=f["kind"],
                args=tuple((name, value) for name, value in f.get("args", ())),
            )
            for f in data.get("faults", ())
        )
        return cls(**fields)


@dataclass
class LiveRunResult(RunResult):
    """Everything one simulated campaign produced.

    ``fingerprint`` hashes the client history, every node's applied
    (commit) order, the nemesis action log and the checker verdict —
    two runs of the same scenario must produce the same fingerprint,
    which is the determinism test's single assertion.
    """

    history_jsonl: str = ""
    nemesis_log: List[Tuple[float, str, str]] = field(default_factory=list)
    checker_summary: str = ""
    stats: Dict[str, int] = field(default_factory=dict)


def run_live(scenario: LiveScenario) -> LiveRunResult:
    """Run one scenario under a fresh :class:`SimRuntime`; deterministic.

    A harness failure (anything raised on the way to a verdict) is an
    ``error`` outcome, not a verdict.  Its fingerprint covers the status
    and the exception type only — the message can carry a temp path.
    """
    rt = SimRuntime()
    recorded = Trace()
    options, needs_disk = campaign.cluster_options(
        scenario.inject_bug,
        scenario.read_tier,
        0.03,
        [event.kind for event in scenario.faults],
    )
    try:
        result = rt.run(
            campaign.run(
                rt,
                FaultPlan(scenario.faults, seed=scenario.seed),
                nodes=scenario.n,
                shards=scenario.shards,
                seed=scenario.seed,
                duration=scenario.duration,
                grace=scenario.grace,
                clients=scenario.clients,
                key_space=scenario.key_space,
                read_fraction=scenario.read_fraction,
                readonly_clients=scenario.readonly_clients,
                op_pause=scenario.op_pause,
                deterministic_ids=True,
                needs_disk=needs_disk,
                engine=scenario.engine,
                observers=(recorded.events.append,),
                **options,
            ),
            timeout=scenario.duration + scenario.grace + _RUN_TIMEOUT_SLACK,
        )
        return _judge(result, recorded)
    except Exception as exc:
        kind = type(exc).__name__
        return LiveRunResult(
            outcome=ScenarioOutcome(
                status=ERROR,
                violation=ViolationRecord("error", f"{kind}: {exc}"),
            ),
            fingerprint=hashlib.sha256(f"{ERROR} {kind}".encode()).hexdigest(),
        )
    finally:
        rt.close()


def _judge(result: campaign.CampaignResult, recorded: Trace) -> LiveRunResult:
    # Generous wall-clock budget: simulated histories are small, and a
    # budget-flipped verdict would break replay determinism.
    report = check_history(result.history, time_budget=60.0)
    trace_text = _trace_text(recorded)
    history_jsonl = result.history.to_jsonl()
    nemesis_log = [(a.at, a.kind, a.detail) for a in result.nemesis_log]
    outcome = _verdict(report, result.history)
    return LiveRunResult(
        outcome=outcome,
        fingerprint=_fingerprint(
            history_jsonl, trace_text, nemesis_log, outcome
        ),
        trace_text=trace_text,
        history_jsonl=history_jsonl,
        nemesis_log=nemesis_log,
        checker_summary=report.summary(),
        stats=result.fault_stats,
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


def _trace_text(recorded: Trace) -> str:
    """A canonical dump of every node's events, in recording order."""
    return "\n".join(
        f"{e.time:.6f} {e.kind} {e.pid} {e.detail!r}" for e in recorded.events
    )


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


# ---------------------------------------------------------------------------
# Shrink passes (LiveScenario.shrink_passes)
# ---------------------------------------------------------------------------


def _drop_one_fault(scenario: LiveScenario) -> Iterator[LiveScenario]:
    for i in range(len(scenario.faults)):
        yield replace(
            scenario, faults=scenario.faults[:i] + scenario.faults[i + 1:]
        )


def _truncate_after_last_fault(scenario: LiveScenario) -> Iterator[LiveScenario]:
    if scenario.faults:
        cut = scenario.faults[-1].at + 1.0
        if cut < scenario.duration:
            yield replace(scenario, duration=round(cut, 6))


def _drop_one_client(scenario: LiveScenario) -> Iterator[LiveScenario]:
    # Never below one writer + one reader.
    if scenario.clients > 2:
        yield replace(scenario, clients=scenario.clients - 1)

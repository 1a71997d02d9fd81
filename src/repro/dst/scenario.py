"""Scenario specs: serializable `(seed, config, failure plan)` tuples.

A :class:`Scenario` pins down *everything* that determines one simulated
execution — algorithm name, system size, inputs, seed, network behaviour and
failure schedule — as plain JSON-able data.  That is the contract the whole
DST layer is built on:

* the **explorer** generates and mutates scenarios,
* the **shrinker** minimizes them while replaying deterministically,
* the **corpus** stores them on disk and replays them as pytest cases,
* ``multiprocessing`` workers receive them as dicts.

:func:`run_scenario` executes a scenario with the online invariant oracle
attached and classifies the outcome (``ok`` / ``violation`` /
``undecided`` / ``error``).  Because the underlying runtimes are pure
functions of ``(processes, config, seed)``, running the same scenario twice
yields the identical outcome — including the identical violation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.dst.oracle import OnlineInvariantChecker, OnlineViolation
from repro.sim.async_runtime import (
    MAX_EVENTS,
    MAX_TIME,
    AsyncRuntime,
    SimulationError,
)
from repro.sim.failures import CrashPlan
from repro.sim.network import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    NetworkConfig,
    Partition,
    SkewedDelay,
    UniformDelay,
)

#: Outcome statuses.
OK = "ok"
VIOLATION = "violation"
UNDECIDED = "undecided"
ERROR = "error"

#: Simulation models.
ASYNC = "async"
SYNC = "sync"


@dataclass(frozen=True)
class DelaySpec:
    """Serializable delay model: ``kind`` + parameters.

    Kinds: ``constant(latency)``, ``uniform(low, high)``,
    ``exponential(mean, min_latency, cap)``, ``skewed(slow_pids, factor)``
    (skewed wraps a uniform base).
    """

    kind: str = "uniform"
    params: Tuple[float, ...] = (0.5, 1.5)
    slow_pids: Tuple[int, ...] = ()
    factor: float = 5.0

    def build(self) -> DelayModel:
        if self.kind == "constant":
            return ConstantDelay(*self.params)
        if self.kind == "uniform":
            return UniformDelay(*self.params)
        if self.kind == "exponential":
            return ExponentialDelay(*self.params)
        if self.kind == "skewed":
            return SkewedDelay(
                UniformDelay(*self.params), list(self.slow_pids), self.factor
            )
        raise ValueError(f"unknown delay kind {self.kind!r}")


@dataclass(frozen=True)
class PartitionSpec:
    """Serializable time-windowed partition."""

    start: float
    end: float
    groups: Tuple[Tuple[int, ...], ...]

    def build(self) -> Partition:
        return Partition(self.start, self.end, [list(g) for g in self.groups])


@dataclass(frozen=True)
class NetworkSpec:
    """Serializable :class:`~repro.sim.network.NetworkConfig`."""

    delay: DelaySpec = field(default_factory=DelaySpec)
    drop_rate: float = 0.0
    partitions: Tuple[PartitionSpec, ...] = ()
    fifo: bool = False

    def build(self) -> NetworkConfig:
        return NetworkConfig(
            delay_model=self.delay.build(),
            drop_rate=self.drop_rate,
            partitions=[p.build() for p in self.partitions],
            fifo=self.fifo,
        )


@dataclass(frozen=True)
class CrashSpec:
    """Serializable :class:`~repro.sim.failures.CrashPlan`."""

    pid: int
    at_time: Optional[float] = None
    after_sends: Optional[int] = None
    restart_at: Optional[float] = None

    def build(self) -> CrashPlan:
        return CrashPlan(
            self.pid,
            at_time=self.at_time,
            after_sends=self.after_sends,
            restart_at=self.restart_at,
        )


@dataclass(frozen=True)
class Scenario:
    """One fully pinned-down simulated execution.

    Attributes:
        algorithm: registry name (see :mod:`repro.dst.registry`).
        n: number of processes.
        t: resilience parameter.
        init_values: per-process consensus inputs.
        seed: the run seed.
        network: network behaviour (asynchronous model only).
        crashes: crash/restart schedule (asynchronous model only).
        byzantine: ``(pid, strategy_name)`` pairs (synchronous model only).
        crash_rounds: ``(pid, exchange)`` crash-stops (synchronous only).
        max_rounds: cap on template rounds (``None`` = run to decision).
        max_time: asynchronous virtual-time horizon.
        max_events: asynchronous event-count horizon.
    """

    algorithm: str
    n: int
    t: int
    init_values: Tuple[Any, ...]
    seed: int
    network: NetworkSpec = field(default_factory=NetworkSpec)
    crashes: Tuple[CrashSpec, ...] = ()
    byzantine: Tuple[Tuple[int, str], ...] = ()
    crash_rounds: Tuple[Tuple[int, int], ...] = ()
    max_rounds: Optional[int] = None
    max_time: float = 5_000.0
    max_events: int = 500_000

    #: Default cap on shrink attempts (runs take milliseconds).
    shrink_budget: ClassVar[int] = 400

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        network = data.get("network") or {}
        delay = network.get("delay") or {}
        return cls(
            algorithm=data["algorithm"],
            n=data["n"],
            t=data["t"],
            init_values=tuple(data["init_values"]),
            seed=data["seed"],
            network=NetworkSpec(
                delay=DelaySpec(
                    kind=delay.get("kind", "uniform"),
                    params=tuple(delay.get("params", (0.5, 1.5))),
                    slow_pids=tuple(delay.get("slow_pids", ())),
                    factor=delay.get("factor", 5.0),
                ),
                drop_rate=network.get("drop_rate", 0.0),
                partitions=tuple(
                    PartitionSpec(
                        p["start"], p["end"], tuple(tuple(g) for g in p["groups"])
                    )
                    for p in network.get("partitions", ())
                ),
                fifo=network.get("fifo", False),
            ),
            crashes=tuple(CrashSpec(**c) for c in data.get("crashes", ())),
            byzantine=tuple((p, s) for p, s in data.get("byzantine", ())),
            crash_rounds=tuple((p, r) for p, r in data.get("crash_rounds", ())),
            max_rounds=data.get("max_rounds"),
            max_time=data.get("max_time", 5_000.0),
            max_events=data.get("max_events", 500_000),
        )

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def faulty_pids(self) -> Tuple[int, ...]:
        """Pids named by any failure clause, in sorted order."""
        pids = {c.pid for c in self.crashes}
        pids.update(p for p, _ in self.byzantine)
        pids.update(p for p, _ in self.crash_rounds)
        return tuple(sorted(pids))

    def correct_pids(self) -> Tuple[int, ...]:
        faulty = set(self.faulty_pids())
        return tuple(p for p in range(self.n) if p not in faulty)

    # ------------------------------------------------------------------
    # The pipeline protocol (DstScenario)
    # ------------------------------------------------------------------

    def run(self) -> "RunResult":
        return RunResult(run_scenario(self))

    def shrink_passes(self) -> Sequence["ShrinkPass"]:
        from repro.dst.shrinker import SIM_PASSES

        return SIM_PASSES

    def slug(self) -> str:
        return self.algorithm

    def coverage_keys(self) -> List[str]:
        keys = [
            f"n:{self.n}",
            f"delay:{self.network.delay.kind}",
            f"crashes:{len(self.crashes)}",
        ]
        if self.network.partitions:
            keys.append("partitioned")
        if self.network.fifo:
            keys.append("fifo")
        if any(c.after_sends is not None for c in self.crashes):
            keys.append("mid-broadcast-crash")
        if any(c.restart_at is not None for c in self.crashes):
            keys.append("restart")
        for _pid, name in self.byzantine:
            keys.append(f"byzantine:{name}")
        if self.crash_rounds:
            keys.append("crash-stop")
        return keys


@dataclass(frozen=True)
class ViolationRecord:
    """What went wrong, portably: kind + message + where."""

    kind: str
    message: str
    event_index: int = -1

    @classmethod
    def from_exception(cls, exc: Exception) -> "ViolationRecord":
        if isinstance(exc, OnlineViolation):
            # str(exc) leads with "[<check>] " — the kind field carries it.
            message = str(exc)
            prefix = f"[{exc.check}] "
            if message.startswith(prefix):
                message = message[len(prefix):]
            return cls(exc.check, message, exc.event_index)
        if isinstance(exc, SimulationError):
            return cls("double-decide", str(exc))
        return cls("error", f"{type(exc).__name__}: {exc}")


@dataclass
class ScenarioOutcome:
    """Result of running one scenario under the oracle.

    Attributes:
        status: ``ok`` (decided, all invariants hold), ``violation``,
            ``undecided`` (horizon exhausted without a safety violation —
            inconclusive, not a failure) or ``error`` (unexpected crash of
            the harness itself).
        violation: the violation record when ``status == "violation"``.
        events: trace length when the run stopped or aborted.
        rounds: template rounds verified by the post-hoc sweep (ok runs).
        decisions: pid -> decided value among tracked (correct) pids.
        stop_reason: the runtime's stop reason (ok/undecided runs).
    """

    status: str
    violation: Optional[ViolationRecord] = None
    events: int = 0
    rounds: int = 0
    decisions: Dict[int, Any] = field(default_factory=dict)
    stop_reason: str = ""


@dataclass
class RunResult:
    """One run's verdict plus the artifacts its stack produces (both may
    be empty): a ``fingerprint`` over everything observable, a canonical
    ``trace_text``.  Crosses ``multiprocessing`` pools: keep picklable."""

    outcome: ScenarioOutcome
    fingerprint: str = ""
    trace_text: str = ""


#: One shrink pass: scenario in, strictly smaller candidates out.
ShrinkPass = Callable[[Any], Iterable[Any]]


class DstScenario(Protocol):
    """What explore → shrink → corpus needs from a schedule type.

    :class:`Scenario` (an algorithm on the simulator) and
    :class:`repro.dst.livestack.LiveScenario` (the production stack in
    virtual time) both satisfy it; nothing downstream of generation
    knows which it holds.  ``run`` is deterministic; ``shrink_passes``
    are tried in order by the shrink loop, ``shrink_budget`` times at
    most by default; ``slug`` names corpus files; ``coverage_keys`` are
    the generation-space features a sweep counts; ``to_dict`` feeds
    :func:`scenario_from_dict` (pool workers, corpus files).
    """

    n: int
    seed: int
    shrink_budget: ClassVar[int]

    def run(self) -> RunResult: ...
    def shrink_passes(self) -> Sequence[ShrinkPass]: ...
    def slug(self) -> str: ...
    def coverage_keys(self) -> List[str]: ...
    def to_dict(self) -> Dict[str, Any]: ...


def scenario_from_dict(data: Dict[str, Any]) -> DstScenario:
    """Rebuild either scenario type from its ``to_dict`` form — the only
    place that knows the ``"stack": "live"`` discriminator."""
    if data.get("stack") == "live":
        from repro.dst.livestack import LiveScenario

        return LiveScenario.from_dict(data)
    return Scenario.from_dict(data)


def run_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Execute one scenario deterministically under the online oracle."""
    from repro.dst.registry import get_algorithm

    spec = get_algorithm(scenario.algorithm)
    checker = OnlineInvariantChecker(
        scenario.init_values,
        key=spec.key,
        correct=scenario.correct_pids(),
        round_validity=spec.round_validity,
        decision_implies_commit=spec.decision_implies_commit,
    )
    try:
        if spec.model == ASYNC:
            return _run_async(scenario, spec, checker)
        return _run_sync(scenario, spec, checker)
    except (OnlineViolation, SimulationError) as exc:
        return ScenarioOutcome(
            status=VIOLATION,
            violation=ViolationRecord.from_exception(exc),
            events=checker.events_seen,
        )


def _run_async(scenario, spec, checker) -> ScenarioOutcome:
    runtime = AsyncRuntime(
        spec.build_processes(scenario),
        init_values=list(scenario.init_values),
        t=scenario.t,
        network=scenario.network.build(),
        seed=scenario.seed,
        crash_plans=[c.build() for c in scenario.crashes],
        max_time=scenario.max_time,
        max_events=scenario.max_events,
        observers=(checker,),
    )
    result = runtime.run()
    correct = scenario.correct_pids()
    live_correct = [p for p in correct if runtime.is_alive(p)]
    horizon_hit = result.stop_reason in (MAX_TIME, MAX_EVENTS)
    # Partitions and drops break the reliable-link liveness assumption of
    # the quorum-wait algorithms, and a finite horizon proves nothing
    # about probability-1 termination — so a stuck run under either is
    # "undecided" (inconclusive), not a violation.  Under a fair config
    # with a drained queue, a live correct process that never decided is
    # a genuine termination bug (e.g. a mis-sized quorum deadlock).
    fair = not scenario.network.partitions and scenario.network.drop_rate == 0
    expect_termination = live_correct if (fair and not horizon_hit) else ()
    rounds = checker.finalize(
        result.trace, expect_termination_of=expect_termination
    )
    undecided = [p for p in live_correct if p not in result.decisions]
    return ScenarioOutcome(
        status=UNDECIDED if (horizon_hit or undecided) else OK,
        events=len(result.trace),
        rounds=rounds,
        decisions={p: v for p, v in result.decisions.items() if p in correct},
        stop_reason=result.stop_reason,
    )


def _run_sync(scenario, spec, checker) -> ScenarioOutcome:
    result = spec.run_sync(scenario, observers=(checker,))
    correct = scenario.correct_pids()
    decisions = {p: v for p, v in result.decisions.items() if p in correct}
    # In the synchronous model rounds always advance, so failing to decide
    # within the harness's round budget *is* a termination violation.
    rounds = checker.finalize(result.trace, expect_termination_of=correct)
    return ScenarioOutcome(
        status=OK,
        events=len(result.trace),
        rounds=rounds,
        decisions=decisions,
        stop_reason=result.stop_reason,
    )


def mutate_scenario(scenario: Scenario, **changes: Any) -> Scenario:
    """`dataclasses.replace` convenience re-export for explorer/shrinker."""
    return replace(scenario, **changes)

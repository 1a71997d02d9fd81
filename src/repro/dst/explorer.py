"""Schedule explorer: search the `(seed, config, plan)` space for violations.

FoundationDB-style deterministic simulation testing: instead of re-running
a handful of hand-picked seeds, :func:`explore` sweeps thousands of
scenarios per algorithm — random walks over system size, inputs, seeds,
delay models and failure schedules, interleaved with *targeted adversarial
mutations* of previously generated scenarios:

* **delay reordering** — swap the delay model, or skew a random minority of
  processes to be persistently slow (the classic adversarial scheduler);
* **partition flaps** — insert short connectivity cuts that isolate a
  minority group and heal mid-protocol;
* **mid-broadcast crashes** — ``after_sends`` crash plans that deliver a
  broadcast to only a prefix of the recipients (the hardest case for the
  coherence lemmas);
* **crash jitter / restarts** — perturb crash times, add delayed restarts;
* **Byzantine reshuffles** (synchronous model) — move Byzantine pids onto
  the early kings, swap strategies, add crash-stops.

Every scenario runs under the online invariant oracle
(:mod:`repro.dst.oracle`), so a violating schedule aborts at the offending
event.  The whole sweep is a pure function of ``(algorithm, meta_seed,
budget, generation parameters)`` — rerunning it reproduces the same
scenarios and the same violations, which is what lets the shrinker and the
regression corpus work.

Scenario generation is decoupled from execution, so sweeps can be fanned
out across processes with ``workers > 0`` (``multiprocessing``); results
are collected in generation order, keeping reports deterministic
regardless of worker count.

:func:`explore` is generic over :class:`repro.dst.scenario.DstScenario`:
given ``scenarios``, the same loop, pool and report serve the live stack.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dst.registry import BYZANTINE_STRATEGIES, get_algorithm
from repro.dst.scenario import (
    ASYNC,
    ERROR,
    VIOLATION,
    CrashSpec,
    DelaySpec,
    DstScenario,
    NetworkSpec,
    PartitionSpec,
    RunResult,
    Scenario,
    ViolationRecord,
    mutate_scenario,
    scenario_from_dict,
)

#: Input profiles the generator draws from.
_PROFILES = ("balanced", "random", "skewed", "unanimous")

#: Mutation operator names (async model).
ASYNC_MUTATIONS = (
    "delay-reorder",
    "partition-flap",
    "mid-broadcast-crash",
    "crash-jitter",
    "add-restart",
    "reseed",
)

#: Mutation operator names (sync model).
SYNC_MUTATIONS = ("byzantine-reshuffle", "swap-strategy", "crash-stop", "reseed")


@dataclass
class ExplorationReport:
    """Aggregate result of one sweep.

    Attributes:
        algorithm: what was swept — a registry name, or ``"live"``.
        schedules: number of scenarios executed.
        outcomes: status -> count (``ok`` / ``violation`` / ``undecided``
            / ``error``).
        violations: every ``(scenario, violation)`` pair found, in
            generation order.
        stop_reasons: runtime stop reason -> count.
        coverage: generation-space coverage counters (delay kinds, crash
            plan shapes, partition/fifo usage, Byzantine strategies,
            engines, fault kinds...).
        events_total: total trace events processed across the sweep.
        events_max: largest single-run trace.
        rounds_max: most template rounds verified in a single run.
        fingerprints: one per schedule, in run order, for stacks that
            compute them.  Two sweeps with the same parameters must
            produce the identical list.
    """

    algorithm: str
    schedules: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    violations: List[Tuple[DstScenario, ViolationRecord]] = field(
        default_factory=list
    )
    stop_reasons: Dict[str, int] = field(default_factory=dict)
    coverage: Dict[str, int] = field(default_factory=dict)
    events_total: int = 0
    events_max: int = 0
    rounds_max: int = 0
    fingerprints: List[str] = field(default_factory=list)

    def observe(self, scenario: DstScenario, result: RunResult) -> None:
        """Fold one scenario's result into the aggregates."""
        outcome = result.outcome
        self.schedules += 1
        self.outcomes[outcome.status] = self.outcomes.get(outcome.status, 0) + 1
        if outcome.stop_reason:
            self.stop_reasons[outcome.stop_reason] = (
                self.stop_reasons.get(outcome.stop_reason, 0) + 1
            )
        if outcome.status == VIOLATION and outcome.violation is not None:
            self.violations.append((scenario, outcome.violation))
        self.events_total += outcome.events
        self.events_max = max(self.events_max, outcome.events)
        self.rounds_max = max(self.rounds_max, outcome.rounds)
        for key in scenario.coverage_keys():
            self.coverage[key] = self.coverage.get(key, 0) + 1
        if result.fingerprint:
            self.fingerprints.append(result.fingerprint)

    @property
    def ok(self) -> int:
        return self.outcomes.get("ok", 0)

    @property
    def violation_count(self) -> int:
        return self.outcomes.get("violation", 0)

    @property
    def errors(self) -> int:
        """Runs where the harness itself failed: they verified nothing."""
        return self.outcomes.get(ERROR, 0)

    def digest(self) -> str:
        """One hash over the whole sweep (histories, traces, verdicts)."""
        h = hashlib.sha256()
        for fingerprint in self.fingerprints:
            h.update(fingerprint.encode())
        return h.hexdigest()


# ----------------------------------------------------------------------
# Random scenario generation
# ----------------------------------------------------------------------


def _random_inits(rng: random.Random, n: int) -> Tuple[int, ...]:
    profile = rng.choice(_PROFILES)
    if profile == "unanimous":
        v = rng.randint(0, 1)
        return tuple([v] * n)
    if profile == "balanced":
        return tuple(i % 2 for i in range(n))
    if profile == "skewed":
        majority = rng.randint(n // 2 + 1, n)
        values = [1] * majority + [0] * (n - majority)
        rng.shuffle(values)
        return tuple(values)
    return tuple(rng.randint(0, 1) for _ in range(n))


def _random_delay(rng: random.Random, n: int) -> DelaySpec:
    kind = rng.choice(("uniform", "uniform", "constant", "exponential", "skewed"))
    if kind == "constant":
        return DelaySpec("constant", (round(rng.uniform(0.5, 2.0), 3),))
    if kind == "exponential":
        return DelaySpec("exponential", (round(rng.uniform(0.5, 2.0), 3), 0.1, 20.0))
    if kind == "skewed":
        slow = tuple(sorted(rng.sample(range(n), k=max(1, n // 3))))
        return DelaySpec(
            "skewed", (0.5, 1.5), slow_pids=slow, factor=round(rng.uniform(2.0, 8.0), 2)
        )
    low = round(rng.uniform(0.1, 1.0), 3)
    return DelaySpec("uniform", (low, round(low + rng.uniform(0.1, 2.0), 3)))


def _random_partition(rng: random.Random, n: int) -> PartitionSpec:
    minority = tuple(sorted(rng.sample(range(n), k=max(1, (n - 1) // 2))))
    rest = tuple(p for p in range(n) if p not in minority)
    start = round(rng.uniform(0.0, 30.0), 2)
    return PartitionSpec(
        start=start,
        end=round(start + rng.uniform(1.0, 15.0), 2),
        groups=(minority, rest),
    )


def _random_crash(rng: random.Random, n: int, victim: int) -> CrashSpec:
    if rng.random() < 0.5:
        spec = CrashSpec(victim, after_sends=rng.randint(1, 4 * n))
    else:
        spec = CrashSpec(victim, at_time=round(rng.uniform(0.1, 40.0), 2))
    if rng.random() < 0.25:
        base = spec.at_time if spec.at_time is not None else 40.0
        spec = CrashSpec(
            victim,
            at_time=spec.at_time,
            after_sends=spec.after_sends,
            restart_at=round(base + rng.uniform(1.0, 20.0), 2),
        )
    return spec


def random_scenario(
    algorithm: str,
    rng: random.Random,
    *,
    n_range: Tuple[int, int] = (4, 7),
    max_rounds: int = 60,
) -> Scenario:
    """Draw one scenario for ``algorithm`` from the generator's walk."""
    spec = get_algorithm(algorithm)
    n = rng.randint(*n_range)
    t = spec.max_t(n)
    seed = rng.randrange(2**32)
    inits = _random_inits(rng, n)
    if spec.model == ASYNC:
        fault_budget = rng.randint(0, t)
        victims = rng.sample(range(n), k=fault_budget)
        crashes = tuple(_random_crash(rng, n, v) for v in victims)
        partitions: Tuple[PartitionSpec, ...] = ()
        if rng.random() < 0.2:
            partitions = tuple(
                _random_partition(rng, n) for _ in range(rng.randint(1, 2))
            )
        network = NetworkSpec(
            delay=_random_delay(rng, n),
            partitions=partitions,
            fifo=rng.random() < 0.3,
        )
        return Scenario(
            algorithm=algorithm,
            n=n,
            t=t,
            init_values=inits,
            seed=seed,
            network=network,
            crashes=crashes,
            max_rounds=max_rounds,
        )
    # Synchronous model: the fault budget covers Byzantine + crash-stop.
    fault_budget = rng.randint(0, t)
    byz_count = rng.randint(0, fault_budget)
    victims = rng.sample(range(n), k=fault_budget)
    strategies = sorted(BYZANTINE_STRATEGIES)
    byzantine = tuple(
        (pid, rng.choice(strategies)) for pid in sorted(victims[:byz_count])
    )
    crash_rounds = tuple(
        (pid, rng.randint(0, 3 * (t + 1))) for pid in sorted(victims[byz_count:])
    )
    return Scenario(
        algorithm=algorithm,
        n=n,
        t=t,
        init_values=inits,
        seed=seed,
        byzantine=byzantine,
        crash_rounds=crash_rounds,
    )


# ----------------------------------------------------------------------
# Adversarial mutation operators
# ----------------------------------------------------------------------


def mutate(scenario: Scenario, rng: random.Random) -> Scenario:
    """Apply one targeted adversarial mutation, returning a new scenario."""
    spec = get_algorithm(scenario.algorithm)
    ops = ASYNC_MUTATIONS if spec.model == ASYNC else SYNC_MUTATIONS
    op = rng.choice(ops)
    n = scenario.n
    if op == "reseed":
        return mutate_scenario(scenario, seed=rng.randrange(2**32))
    if op == "delay-reorder":
        return mutate_scenario(
            scenario,
            network=NetworkSpec(
                delay=_random_delay(rng, n),
                drop_rate=scenario.network.drop_rate,
                partitions=scenario.network.partitions,
                fifo=scenario.network.fifo,
            ),
        )
    if op == "partition-flap":
        flaps = tuple(
            _random_partition(rng, n) for _ in range(rng.randint(1, 3))
        )
        return mutate_scenario(
            scenario,
            network=NetworkSpec(
                delay=scenario.network.delay,
                drop_rate=scenario.network.drop_rate,
                partitions=scenario.network.partitions + flaps,
                fifo=scenario.network.fifo,
            ),
        )
    if op == "mid-broadcast-crash":
        budget = spec.max_t(n)
        used = {c.pid for c in scenario.crashes}
        free = [p for p in range(n) if p not in used]
        if len(scenario.crashes) >= budget or not free:
            return mutate_scenario(scenario, seed=rng.randrange(2**32))
        victim = rng.choice(free)
        crash = CrashSpec(victim, after_sends=rng.randint(1, 2 * n))
        return mutate_scenario(scenario, crashes=scenario.crashes + (crash,))
    if op == "crash-jitter":
        if not scenario.crashes:
            return mutate_scenario(scenario, seed=rng.randrange(2**32))
        idx = rng.randrange(len(scenario.crashes))
        jittered = _random_crash(rng, n, scenario.crashes[idx].pid)
        crashes = list(scenario.crashes)
        crashes[idx] = jittered
        return mutate_scenario(scenario, crashes=tuple(crashes))
    if op == "add-restart":
        candidates = [
            (i, c)
            for i, c in enumerate(scenario.crashes)
            if c.restart_at is None
        ]
        if not candidates:
            return mutate_scenario(scenario, seed=rng.randrange(2**32))
        idx, crash = rng.choice(candidates)
        base = crash.at_time if crash.at_time is not None else 40.0
        crashes = list(scenario.crashes)
        crashes[idx] = CrashSpec(
            crash.pid,
            at_time=crash.at_time,
            after_sends=crash.after_sends,
            restart_at=round(base + rng.uniform(1.0, 20.0), 2),
        )
        return mutate_scenario(scenario, crashes=tuple(crashes))
    if op == "byzantine-reshuffle":
        # Move the Byzantine pids onto the first kings — the hardest
        # placement for Phase-King.
        count = len(scenario.byzantine)
        if not count:
            return mutate_scenario(scenario, seed=rng.randrange(2**32))
        names = [name for _pid, name in scenario.byzantine]
        return mutate_scenario(
            scenario,
            byzantine=tuple((pid, names[pid]) for pid in range(count)),
            crash_rounds=tuple(
                (p, r) for p, r in scenario.crash_rounds if p >= count
            ),
        )
    if op == "swap-strategy":
        if not scenario.byzantine:
            return mutate_scenario(scenario, seed=rng.randrange(2**32))
        strategies = sorted(BYZANTINE_STRATEGIES)
        idx = rng.randrange(len(scenario.byzantine))
        byz = list(scenario.byzantine)
        byz[idx] = (byz[idx][0], rng.choice(strategies))
        return mutate_scenario(scenario, byzantine=tuple(byz))
    if op == "crash-stop":
        budget = spec.max_t(n)
        used = set(scenario.faulty_pids())
        free = [p for p in range(n) if p not in used]
        if len(used) >= budget or not free:
            return mutate_scenario(scenario, seed=rng.randrange(2**32))
        victim = rng.choice(free)
        stop = (victim, rng.randint(0, 3 * (scenario.t + 1)))
        return mutate_scenario(
            scenario, crash_rounds=scenario.crash_rounds + (stop,)
        )
    raise AssertionError(f"unhandled mutation {op!r}")  # pragma: no cover


def generate_scenarios(
    algorithm: str,
    count: int,
    *,
    meta_seed: int = 0,
    mutation_rate: float = 0.4,
    n_range: Tuple[int, int] = (4, 7),
    max_rounds: int = 60,
) -> List[Scenario]:
    """The sweep's deterministic scenario sequence (walks + mutations)."""
    rng = random.Random(meta_seed)
    scenarios: List[Scenario] = []
    for _ in range(count):
        if scenarios and rng.random() < mutation_rate:
            base = scenarios[rng.randrange(len(scenarios))]
            scenarios.append(mutate(base, rng))
        else:
            scenarios.append(
                random_scenario(
                    algorithm, rng, n_range=n_range, max_rounds=max_rounds
                )
            )
    return scenarios


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _run_scenario_dict(data: Dict[str, Any]) -> RunResult:
    """Top-level worker entry point (must be picklable)."""
    return scenario_from_dict(data).run()


def explore(
    algorithm: str,
    *,
    schedules: int = 200,
    meta_seed: int = 0,
    mutation_rate: float = 0.4,
    n_range: Tuple[int, int] = (4, 7),
    max_rounds: int = 60,
    workers: int = 0,
    stop_after_violations: Optional[int] = None,
    scenarios: Optional[Sequence[DstScenario]] = None,
    progress: Optional[Callable[..., None]] = None,
    trace_sink: Optional[Callable[..., None]] = None,
) -> ExplorationReport:
    """Sweep ``schedules`` scenarios of ``algorithm`` under the oracle.

    Args:
        algorithm: registry name to sweep (with ``scenarios``, just the
            report's label).
        schedules: number of scenarios to run.
        meta_seed: seed of the generator walk — the whole sweep is a pure
            function of ``(algorithm, meta_seed, schedules, ...)``.
        mutation_rate: fraction of scenarios produced by mutating an
            earlier one instead of a fresh random walk.
        n_range: inclusive range of system sizes.
        max_rounds: template-round cap per run.
        workers: ``> 0`` fans execution out over a ``multiprocessing``
            pool of that size (scenarios cross it as dicts); ``0`` runs
            in-process.  Reports are identical either way.
        stop_after_violations: stop the sweep early once this many
            violating scenarios have been found.
        scenarios: explicit scenario list overriding generation — any
            :class:`~repro.dst.scenario.DstScenario` type.
        progress: called after each run with ``(index, scenario,
            outcome)``, in generation order.
        trace_sink: called after each run with ``(index, scenario,
            result)`` — the full :class:`~repro.dst.scenario.RunResult`,
            for callers that want the trace/history artifacts.
    """
    if scenarios is None:
        batch: Sequence[DstScenario] = generate_scenarios(
            algorithm,
            schedules,
            meta_seed=meta_seed,
            mutation_rate=mutation_rate,
            n_range=n_range,
            max_rounds=max_rounds,
        )
    else:
        batch = list(scenarios)
    report = ExplorationReport(algorithm=algorithm)
    with contextlib.ExitStack() as stack:
        if workers > 0:
            import multiprocessing

            pool = stack.enter_context(multiprocessing.Pool(workers))
            results = pool.imap(
                _run_scenario_dict,
                [s.to_dict() for s in batch],
                chunksize=max(1, len(batch) // (workers * 4)),
            )
        else:
            results = (scenario.run() for scenario in batch)
        for index, (scenario, result) in enumerate(zip(batch, results)):
            report.observe(scenario, result)
            if trace_sink is not None:
                trace_sink(index, scenario, result)
            if progress is not None:
                progress(index, scenario, result.outcome)
            if (
                stop_after_violations is not None
                and report.violation_count >= stop_after_violations
            ):
                break
    return report

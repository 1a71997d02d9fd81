"""Failure-case shrinking: minimize a violating scenario deterministically.

Given a scenario the explorer flagged, :func:`shrink` greedily searches for
a smaller scenario that still reproduces the *same kind* of violation
(matched on the oracle's check name, e.g. ``vac-coherence`` — messages may
differ in detail between system sizes).  Because every run is a pure
function of the scenario, each candidate is simply re-run; accepted
reductions are kept and the passes iterate to a fixed point.

The loop is generic (:class:`repro.dst.scenario.DstScenario`): the
scenario type supplies its passes and default budget.  The live stack's
sit beside ``LiveScenario``; the simulator's are here, in order:

1. drop failure clauses (crash plans, partitions, Byzantine pids,
   crash-stops) one at a time;
2. remove the highest-numbered process (rebuilding inputs, clamping ``t``
   and discarding failure clauses that referenced it);
3. shrink numeric fields toward small values — ``after_sends`` toward 1,
   crash/partition times toward 0, the round horizon toward the violating
   prefix;
4. simplify the network — replace exotic delay models with the uniform
   default, drop FIFO.

The result replays deterministically: re-running the minimized scenario
reproduces the identical violation, which is what the regression corpus
(:mod:`repro.dst.corpus`) stores and asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dst.registry import get_algorithm
from repro.dst.scenario import (
    VIOLATION,
    CrashSpec,
    DelaySpec,
    DstScenario,
    NetworkSpec,
    Scenario,
    ShrinkPass,
    ViolationRecord,
    mutate_scenario,
)


@dataclass
class ShrinkResult:
    """Outcome of one shrinking session.

    Attributes:
        scenario: the minimized scenario.
        violation: the violation it (still) reproduces.
        attempts: candidate scenarios executed.
        accepted: how many reductions were kept.
    """

    scenario: DstScenario
    violation: ViolationRecord
    attempts: int = 0
    accepted: int = 0


def _still_fails(scenario: DstScenario, kind: str) -> Optional[ViolationRecord]:
    outcome = scenario.run().outcome
    if outcome.status == VIOLATION and outcome.violation is not None:
        if outcome.violation.kind == kind:
            return outcome.violation
    return None


def _drop_failures(scenario: Scenario) -> List[Scenario]:
    candidates = []
    for i in range(len(scenario.crashes)):
        candidates.append(
            mutate_scenario(
                scenario,
                crashes=scenario.crashes[:i] + scenario.crashes[i + 1 :],
            )
        )
    for i in range(len(scenario.network.partitions)):
        partitions = (
            scenario.network.partitions[:i] + scenario.network.partitions[i + 1 :]
        )
        candidates.append(
            mutate_scenario(
                scenario,
                network=NetworkSpec(
                    delay=scenario.network.delay,
                    drop_rate=scenario.network.drop_rate,
                    partitions=partitions,
                    fifo=scenario.network.fifo,
                ),
            )
        )
    for i in range(len(scenario.byzantine)):
        candidates.append(
            mutate_scenario(
                scenario,
                byzantine=scenario.byzantine[:i] + scenario.byzantine[i + 1 :],
            )
        )
    for i in range(len(scenario.crash_rounds)):
        candidates.append(
            mutate_scenario(
                scenario,
                crash_rounds=scenario.crash_rounds[:i]
                + scenario.crash_rounds[i + 1 :],
            )
        )
    return candidates


def _drop_process(scenario: Scenario) -> List[Scenario]:
    spec = get_algorithm(scenario.algorithm)
    n = scenario.n - 1
    if n < 2:
        return []
    removed = n  # the highest pid
    t = min(scenario.t, spec.max_t(n))
    if spec.model == "sync" and t < len(scenario.byzantine) + len(
        scenario.crash_rounds
    ):
        return []
    delay = scenario.network.delay
    if delay.kind == "skewed":
        delay = DelaySpec(
            "skewed",
            delay.params,
            slow_pids=tuple(p for p in delay.slow_pids if p != removed),
            factor=delay.factor,
        )
        if not delay.slow_pids:
            delay = DelaySpec("uniform", (0.5, 1.5))
    partitions = tuple(
        p
        for p in (
            _strip_pid_from_partition(part, removed)
            for part in scenario.network.partitions
        )
        if p is not None
    )
    return [
        mutate_scenario(
            scenario,
            n=n,
            t=t,
            init_values=scenario.init_values[:n],
            crashes=tuple(c for c in scenario.crashes if c.pid != removed),
            byzantine=tuple(b for b in scenario.byzantine if b[0] != removed),
            crash_rounds=tuple(
                c for c in scenario.crash_rounds if c[0] != removed
            ),
            network=NetworkSpec(
                delay=delay,
                drop_rate=scenario.network.drop_rate,
                partitions=partitions,
                fifo=scenario.network.fifo,
            ),
        )
    ]


def _strip_pid_from_partition(part, removed):
    groups = tuple(
        tuple(p for p in group if p != removed) for group in part.groups
    )
    groups = tuple(g for g in groups if g)
    if len(groups) < 2:
        return None
    return type(part)(part.start, part.end, groups)


def _shrink_numbers(scenario: Scenario) -> List[Scenario]:
    candidates = []
    for i, crash in enumerate(scenario.crashes):
        smaller: List[CrashSpec] = []
        if crash.after_sends is not None and crash.after_sends > 1:
            for target in {1, crash.after_sends // 2}:
                smaller.append(
                    CrashSpec(
                        crash.pid,
                        after_sends=max(1, target),
                        restart_at=crash.restart_at,
                    )
                )
        if crash.at_time is not None and crash.at_time > 0.5:
            smaller.append(
                CrashSpec(
                    crash.pid,
                    at_time=round(crash.at_time / 2, 3),
                    restart_at=crash.restart_at,
                )
            )
        if crash.restart_at is not None:
            smaller.append(
                CrashSpec(
                    crash.pid,
                    at_time=crash.at_time,
                    after_sends=crash.after_sends,
                )
            )
        for candidate in smaller:
            crashes = list(scenario.crashes)
            crashes[i] = candidate
            candidates.append(mutate_scenario(scenario, crashes=tuple(crashes)))
    if scenario.max_rounds is not None and scenario.max_rounds > 2:
        candidates.append(
            mutate_scenario(scenario, max_rounds=scenario.max_rounds // 2)
        )
        candidates.append(
            mutate_scenario(scenario, max_rounds=scenario.max_rounds - 1)
        )
    return candidates


def _simplify_network(scenario: Scenario) -> List[Scenario]:
    candidates = []
    network = scenario.network
    if network.delay.kind != "uniform" or network.delay.params != (0.5, 1.5):
        candidates.append(
            mutate_scenario(
                scenario,
                network=NetworkSpec(
                    delay=DelaySpec("uniform", (0.5, 1.5)),
                    drop_rate=network.drop_rate,
                    partitions=network.partitions,
                    fifo=network.fifo,
                ),
            )
        )
    if network.fifo:
        candidates.append(
            mutate_scenario(
                scenario,
                network=NetworkSpec(
                    delay=network.delay,
                    drop_rate=network.drop_rate,
                    partitions=network.partitions,
                    fifo=False,
                ),
            )
        )
    return candidates


#: The simulator's reduction passes (``Scenario.shrink_passes()``).
SIM_PASSES: Tuple[ShrinkPass, ...] = (
    _drop_failures,
    _drop_process,
    _shrink_numbers,
    _simplify_network,
)


def shrink(
    scenario: DstScenario,
    violation: Optional[ViolationRecord] = None,
    *,
    max_attempts: Optional[int] = None,
) -> ShrinkResult:
    """Minimize ``scenario`` while preserving its violation kind.

    Args:
        scenario: a scenario known (or believed) to violate.
        violation: the violation to preserve; re-derived by running the
            scenario when omitted.
        max_attempts: hard cap on candidate executions (default: the
            scenario type's ``shrink_budget``).

    Raises:
        ValueError: if the input scenario does not actually violate.
    """
    if violation is None:
        outcome = scenario.run().outcome
        if outcome.status != VIOLATION or outcome.violation is None:
            raise ValueError("scenario does not reproduce a violation")
        violation = outcome.violation
    if max_attempts is None:
        max_attempts = scenario.shrink_budget
    kind = violation.kind
    result = ShrinkResult(scenario=scenario, violation=violation)
    improved = True
    while improved and result.attempts < max_attempts:
        improved = False
        for make_candidates in result.scenario.shrink_passes():
            for candidate in make_candidates(result.scenario):
                if result.attempts >= max_attempts:
                    break
                result.attempts += 1
                reproduced = _still_fails(candidate, kind)
                if reproduced is not None:
                    result.scenario = candidate
                    result.violation = reproduced
                    result.accepted += 1
                    improved = True
                    break  # restart passes from the smaller scenario
            if improved:
                break
    return result

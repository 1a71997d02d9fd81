"""Shrinker tests: minimization preserves the violation, deterministically.

Uses the deliberately broken Ben-Or variant as the bug source — the same
acceptance path the corpus workflow exercises: explore → shrink → the
minimized scenario replays to the *identical* violation.
"""

from dataclasses import dataclass, replace
from typing import ClassVar, List

import pytest

from repro.dst import ShrinkResult, explore, run_scenario, shrink
from repro.dst.scenario import (
    OK,
    VIOLATION,
    RunResult,
    Scenario,
    ScenarioOutcome,
    ViolationRecord,
    mutate_scenario,
)


@pytest.fixture(scope="module")
def found():
    """One (scenario, violation) pair caught by a bounded sweep."""
    report = explore(
        "ben-or-broken-coherence",
        schedules=200,
        meta_seed=0,
        stop_after_violations=1,
    )
    assert report.violations, "sweep failed to catch the broken variant"
    return report.violations[0]


def test_shrink_preserves_the_violation_kind(found):
    scenario, violation = found
    result = shrink(scenario, violation)
    assert isinstance(result, ShrinkResult)
    assert result.violation.kind == violation.kind == "vac-coherence"
    assert result.attempts <= 400


def test_shrink_never_grows_the_scenario(found):
    scenario, violation = found
    result = shrink(scenario, violation)
    small = result.scenario
    assert small.n <= scenario.n
    assert len(small.crashes) <= len(scenario.crashes)
    assert len(small.network.partitions) <= len(scenario.network.partitions)
    if scenario.max_rounds is not None:
        assert small.max_rounds is not None
        assert small.max_rounds <= scenario.max_rounds


def test_minimized_scenario_replays_the_identical_violation(found):
    scenario, violation = found
    result = shrink(scenario, violation)
    # Determinism across replays — including a JSON round trip, which is
    # exactly what the regression corpus stores on disk.
    first = run_scenario(result.scenario)
    second = run_scenario(Scenario.from_json(result.scenario.to_json()))
    assert first.status == second.status == VIOLATION
    assert first.violation == second.violation
    assert first.violation.kind == result.violation.kind
    assert first.violation.message == result.violation.message


def test_shrink_rejects_non_violating_input():
    healthy = Scenario(
        algorithm="ben-or", n=4, t=1, init_values=(1, 1, 1, 1), seed=0
    )
    with pytest.raises(ValueError, match="does not reproduce"):
        shrink(healthy)


def test_shrink_respects_the_attempt_cap(found):
    scenario, violation = found
    # Give the shrinker more failure clauses to chew through, then cap it.
    bloated = mutate_scenario(scenario, max_rounds=59)
    if run_scenario(bloated).status != VIOLATION:
        bloated = scenario
    result = shrink(bloated, max_attempts=5)
    assert result.attempts <= 5


# ----------------------------------------------------------------------
# The loop itself, over a fake scenario type
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FakeScenario:
    """Violates with kind ``big`` while ``size >= 3`` and ``junk`` is
    even, with kind ``other`` when ``junk`` is odd; records every run."""

    size: int
    junk: int
    log: List[tuple]
    shrink_budget: ClassVar[int] = 50

    def run(self) -> RunResult:
        self.log.append((self.size, self.junk))
        if self.junk % 2:
            kind = "other"
        elif self.size >= 3:
            kind = "big"
        else:
            return RunResult(ScenarioOutcome(status=OK))
        return RunResult(
            ScenarioOutcome(
                status=VIOLATION, violation=ViolationRecord(kind, "fake")
            )
        )

    def shrink_passes(self):
        return (
            lambda s: [replace(s, size=s.size - 1)] if s.size else [],
            lambda s: [replace(s, junk=s.junk - 1)] if s.junk else [],
        )


def test_loop_restarts_the_passes_after_each_accept():
    log: List[tuple] = []
    result = shrink(FakeScenario(5, 2, log), ViolationRecord("big", "fake"))
    # size shrinks 5 -> 3 through pass one; (2, 2) is rejected, so pass
    # two gets a turn; (3, 1) violates with the wrong kind and is
    # rejected too — fixpoint.
    assert (result.scenario.size, result.scenario.junk) == (3, 2)
    assert log == [(4, 2), (3, 2), (2, 2), (3, 1)]
    assert (result.attempts, result.accepted) == (4, 2)
    assert result.violation.kind == "big"


def test_loop_honours_the_budget_and_the_type_default():
    log: List[tuple] = []
    start = FakeScenario(40, 0, log)
    capped = shrink(start, ViolationRecord("big", "fake"), max_attempts=3)
    assert capped.attempts == 3 and capped.scenario.size == 37
    del log[:]
    # No cap given: the scenario type's own budget applies.
    assert shrink(start, ViolationRecord("big", "fake")).attempts == 38
    assert shrink(replace(start, size=90)).attempts == FakeScenario.shrink_budget

"""Replay the seed-regression corpus (``tests/regressions/corpus/*.json``).

Every corpus case is a minimized adversarial schedule the explorer caught
and the shrinker reduced — a pinned witness of a real violation.  Each
case generates two pytest cases:

* ``test_recorded_violation_reproduces`` replays the scenario and asserts
  the recorded violation kind fires again (determinism of the whole DST
  stack, end to end, from disk).
* ``test_scenario_is_still_a_counterexample`` is the *failing-then-xfail*
  shape: it asserts the scenario runs clean, which is expected to fail as
  long as the bug the case witnesses exists.  ``strict=True`` turns an
  unexpected pass into a test failure — so fixing the underlying bug
  forces whoever fixed it to delete or re-record the corpus entry.

A case whose ``expect`` is ``"ok"`` pins a fixed bug instead:
``test_fixed_case_stays_clean`` asserts its replay runs clean.
"""

import os

import pytest

from repro.dst import (
    LiveScenario,
    assert_stays_clean,
    assert_still_fails,
    load_corpus,
    replay,
)
from repro.dst.scenario import VIOLATION

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

ALL_CASES = load_corpus(CORPUS_DIR)
CASES = [case for case in ALL_CASES if case.expect == VIOLATION]
FIXED = [case for case in ALL_CASES if case.expect != VIOLATION]


def test_corpus_is_not_empty():
    assert CASES, f"no corpus cases found in {CORPUS_DIR}"


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_recorded_violation_reproduces(case):
    outcome = assert_still_fails(case)
    assert outcome.violation is not None
    assert outcome.violation.kind == case.violation.kind
    if not isinstance(case.scenario, LiveScenario):
        # Simulator cases replay bit-for-bit: same message, same index.
        # Live-stack cases are deterministic *per interpreter* but ride
        # on asyncio scheduling internals that shift between Python
        # versions, so only the violation kind is pinned across the CI
        # matrix (the dedicated determinism tests pin byte-identity
        # within one interpreter).
        assert outcome.violation.message == case.violation.message
        assert outcome.violation.event_index == case.violation.event_index


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
@pytest.mark.xfail(
    strict=True,
    reason="corpus cases pin known-violating schedules; an unexpected pass "
    "means the witnessed bug vanished — re-record or delete the case",
)
def test_scenario_is_still_a_counterexample(case):
    outcome = replay(case)
    assert outcome.status != VIOLATION


@pytest.mark.parametrize("case", FIXED, ids=[c.name for c in FIXED])
def test_fixed_case_stays_clean(case):
    assert_stays_clean(case)

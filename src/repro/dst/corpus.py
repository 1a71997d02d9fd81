"""Seed-regression corpus: minimized failure cases as replayable JSON.

Every violation the explorer finds and the shrinker minimizes can be saved
as one small JSON file — the scenario plus the violation it reproduces.
The files live in ``tests/regressions/corpus/`` and are replayed by
ordinary pytest cases (``tests/regressions/test_corpus.py``): each replay
re-runs the scenario deterministically and asserts the recorded violation
kind fires again.  A corpus case is thus a *pinned* adversarial schedule —
the bug's witness survives refactors, and a fix that silences it must
update the corpus entry deliberately.  A case whose ``expect`` is
``"ok"`` pins such a fix instead: its recorded violation is what the
schedule showed before the fix, and its replay must now run clean.

Case files are produced by ``python -m repro explore ... --save-corpus``
or :func:`save_case` directly.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.dst.scenario import (
    OK,
    VIOLATION,
    DstScenario,
    ScenarioOutcome,
    ViolationRecord,
    scenario_from_dict,
)

#: Default corpus location, relative to the repository root.
DEFAULT_CORPUS_DIR = os.path.join("tests", "regressions", "corpus")

_FORMAT_VERSION = 1


@dataclass
class CorpusCase:
    """One stored failure case.

    Attributes:
        name: file stem, unique within the corpus directory.
        scenario: the minimized scenario — simulator or live-stack.
        violation: the violation it reproduces.
        notes: free-form provenance (how it was found, what it witnesses).
        expect: ``"violation"`` (the replay must still fail) or ``"ok"``
            (the bug is fixed, and the replay must run clean).
    """

    name: str
    scenario: DstScenario
    violation: ViolationRecord
    notes: str = ""
    expect: str = VIOLATION

    def to_dict(self) -> Dict[str, Any]:
        return {
            "expect": self.expect,
            "format": _FORMAT_VERSION,
            "name": self.name,
            "notes": self.notes,
            "scenario": self.scenario.to_dict(),
            "violation": {
                "kind": self.violation.kind,
                "message": self.violation.message,
                "event_index": self.violation.event_index,
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CorpusCase":
        violation = data["violation"]
        expect = data.get("expect", VIOLATION)
        if expect not in (VIOLATION, OK):
            raise ValueError(f"expect must be {VIOLATION!r} or {OK!r}, not {expect!r}")
        return cls(
            name=data["name"],
            scenario=scenario_from_dict(data["scenario"]),
            violation=ViolationRecord(
                kind=violation["kind"],
                message=violation.get("message", ""),
                event_index=violation.get("event_index", -1),
            ),
            notes=data.get("notes", ""),
            expect=expect,
        )


def case_name(scenario: DstScenario, violation: ViolationRecord) -> str:
    """A stable, filesystem-safe name for a minimized case."""
    slug = re.sub(r"[^a-z0-9]+", "-", scenario.slug().lower()).strip("-")
    return f"{slug}-{violation.kind}-n{scenario.n}-seed{scenario.seed}"


def save_case(case: CorpusCase, directory: str = DEFAULT_CORPUS_DIR) -> str:
    """Write one case as ``<directory>/<name>.json``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{case.name}.json")
    with open(path, "w") as handle:
        json.dump(case.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_case(path: str) -> CorpusCase:
    """Read one case file."""
    with open(path) as handle:
        return CorpusCase.from_dict(json.load(handle))


def load_corpus(directory: str = DEFAULT_CORPUS_DIR) -> List[CorpusCase]:
    """All cases in ``directory``, sorted by name (empty if absent)."""
    if not os.path.isdir(directory):
        return []
    cases = []
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            cases.append(load_case(os.path.join(directory, entry)))
    return cases


def replay(case: CorpusCase) -> ScenarioOutcome:
    """Re-run a stored case deterministically and return its outcome."""
    return case.scenario.run().outcome


def assert_still_fails(case: CorpusCase) -> ScenarioOutcome:
    """Replay and assert the recorded violation kind reproduces.

    Returns the outcome on success; raises ``AssertionError`` when the
    scenario no longer violates, or violates differently.  (A legitimate
    bug fix should delete or re-record the corpus entry — loudly.)
    """
    outcome = replay(case)
    if outcome.status != VIOLATION or outcome.violation is None:
        raise AssertionError(
            f"corpus case {case.name!r} no longer reproduces a violation "
            f"(status={outcome.status!r}); if the underlying bug was fixed "
            f"on purpose, delete or re-record the corpus entry"
        )
    if outcome.violation.kind != case.violation.kind:
        raise AssertionError(
            f"corpus case {case.name!r} changed violation kind: recorded "
            f"{case.violation.kind!r}, replay produced "
            f"{outcome.violation.kind!r} ({outcome.violation.message})"
        )
    return outcome


def assert_stays_clean(case: CorpusCase) -> ScenarioOutcome:
    """Replay an ``expect: "ok"`` case and assert it runs clean."""
    outcome = replay(case)
    if outcome.status != OK:
        found = outcome.violation.message if outcome.violation else ""
        raise AssertionError(
            f"corpus case {case.name!r} must replay clean but ended "
            f"{outcome.status!r} {found}".rstrip()
        )
    return outcome

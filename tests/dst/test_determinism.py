"""Determinism regression: identical inputs yield byte-identical traces.

The entire DST layer rests on runs being pure functions of
``(processes, config, seed)`` — the shrinker re-runs candidates, the corpus
replays stored cases, multiprocessing workers re-execute serialized
scenarios.  These tests pin that contract down hard: two runs with the same
arguments must render *byte-identical* traces, event for event (each
event's ``repr``, payload and all).
"""

import pytest

from repro.algorithms.ben_or import ben_or_template_consensus
from repro.algorithms.decentralized_raft import decentralized_raft_consensus
from repro.algorithms.phase_king import run_phase_king
from repro.dst import Scenario, explore, random_scenario, run_scenario
from repro.sim.async_runtime import AsyncRuntime
from repro.sim.failures import CrashPlan
from repro.sim.network import NetworkConfig, UniformDelay


def _serialized(trace) -> bytes:
    return "\n".join(repr(event) for event in trace.events).encode()


def _run_async(factory, *, n=5, seed=1234, crash_plans=()):
    runtime = AsyncRuntime(
        [factory() for _ in range(n)],
        init_values=[i % 2 for i in range(n)],
        t=(n - 1) // 2,
        network=NetworkConfig(delay_model=UniformDelay(0.2, 1.8)),
        seed=seed,
        crash_plans=list(crash_plans),
    )
    return runtime.run()


@pytest.mark.parametrize(
    "factory",
    [ben_or_template_consensus, decentralized_raft_consensus],
    ids=["ben-or", "decentralized-raft"],
)
def test_async_traces_are_byte_identical(factory):
    first = _run_async(factory)
    second = _run_async(factory)
    assert _serialized(first.trace) == _serialized(second.trace)
    assert first.decisions == second.decisions


def test_async_traces_identical_under_failures():
    plans = [CrashPlan(0, after_sends=3), CrashPlan(1, at_time=4.0, restart_at=9.0)]
    first = _run_async(ben_or_template_consensus, seed=77, crash_plans=plans)
    second = _run_async(ben_or_template_consensus, seed=77, crash_plans=plans)
    assert _serialized(first.trace) == _serialized(second.trace)


def test_seed_changes_the_trace():
    first = _run_async(ben_or_template_consensus, seed=1)
    second = _run_async(ben_or_template_consensus, seed=2)
    assert _serialized(first.trace) != _serialized(second.trace)


def test_sync_traces_are_byte_identical():
    runs = [
        run_phase_king([0, 1, 0, 1, 1, 0, 1], t=2, mode="fixed", seed=42)
        for _ in range(2)
    ]
    assert _serialized(runs[0].trace) == _serialized(runs[1].trace)
    assert runs[0].decisions == runs[1].decisions


def test_scenario_outcomes_identical_across_json_round_trip():
    import random

    scenario = random_scenario("ben-or", random.Random(5))
    clone = Scenario.from_json(scenario.to_json())
    assert clone == scenario
    first, second = run_scenario(scenario), run_scenario(clone)
    assert (first.status, first.events, first.decisions, first.stop_reason) == (
        second.status,
        second.events,
        second.decisions,
        second.stop_reason,
    )


def test_sweep_reports_identical_across_runs():
    first = explore("ben-or", schedules=20, meta_seed=9)
    second = explore("ben-or", schedules=20, meta_seed=9)
    assert first.outcomes == second.outcomes
    assert first.stop_reasons == second.stop_reasons
    assert first.coverage == second.coverage

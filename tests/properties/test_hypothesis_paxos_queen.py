"""Property-based tests for the beyond-the-paper algorithms.

Paxos is fuzzed over system sizes, inputs, crash schedules and retry-timer
ranges; Phase-Queen over Byzantine placements and strategies.  Both must
satisfy full consensus plus their per-round/per-ballot coherence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.multi_paxos import run_paxos
from repro.algorithms.phase_queen import run_phase_queen
from repro.algorithms.raft.vac import check_raft_vac
from repro.core.properties import (
    check_agreement,
    check_termination,
    check_validity,
)
from repro.sim.failures import (
    CrashPlan,
    anti_phase_king_strategy,
    equivocating_strategy,
    random_noise_strategy,
    silent_strategy,
)

STRATEGY_FACTORIES = [
    lambda: silent_strategy,
    random_noise_strategy,
    equivocating_strategy,
    anti_phase_king_strategy,
]


@st.composite
def paxos_system(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    inits = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    crash_count = draw(st.integers(min_value=0, max_value=(n - 1) // 2))
    victims = draw(
        st.lists(
            st.integers(0, n - 1), min_size=crash_count, max_size=crash_count,
            unique=True,
        )
    )
    crash_times = [
        draw(st.floats(min_value=0.5, max_value=30.0)) for _ in victims
    ]
    return n, inits, seed, list(zip(victims, crash_times))


@given(paxos_system())
@settings(max_examples=30, deadline=None)
def test_paxos_invariants(system):
    n, inits, seed, crashes = system
    plans = [CrashPlan(pid, at_time=when) for pid, when in crashes]
    result = run_paxos(inits, seed=seed, crash_plans=plans, max_time=10_000.0)
    live = [pid for pid in range(n) if pid not in {pid for pid, _ in crashes}]
    check_agreement(result.decisions)
    check_validity(result.decisions, inits)
    check_termination(result.decisions, live)
    check_raft_vac(result.trace, correct=range(n))


@st.composite
def phase_queen_system(draw):
    t = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=4 * t + 1, max_value=4 * t + 4))
    inits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    byz_count = draw(st.integers(min_value=0, max_value=t))
    byz_pids = draw(
        st.lists(
            st.integers(0, n - 1), min_size=byz_count, max_size=byz_count,
            unique=True,
        )
    )
    strategies = [
        draw(st.sampled_from(range(len(STRATEGY_FACTORIES)))) for _ in byz_pids
    ]
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return n, t, inits, dict(zip(byz_pids, strategies)), seed


@given(phase_queen_system())
@settings(max_examples=40, deadline=None)
def test_phase_queen_invariants(system):
    n, t, inits, byz_spec, seed = system
    byzantine = {
        pid: STRATEGY_FACTORIES[index]() for pid, index in byz_spec.items()
    }
    result = run_phase_queen(
        inits, t=t, byzantine=byzantine, mode="fixed", seed=seed
    )
    correct = [pid for pid in range(n) if pid not in byzantine]
    decisions = {
        pid: result.decisions[pid] for pid in correct if pid in result.decisions
    }
    check_termination(decisions, correct)
    check_agreement(decisions)
    assert all(v in (0, 1) for v in decisions.values())
    correct_inputs = {inits[pid] for pid in correct}
    if len(correct_inputs) == 1:
        check_validity(decisions, correct_inputs)

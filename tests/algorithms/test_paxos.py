"""Single-decree Paxos on the live ballot rule, and its VAC view.

:func:`repro.run_paxos` runs :class:`~repro.algorithms.replica.BallotReplicaNode`
× ``PAX_FAMILY`` × ``TimerTrigger`` on the simulator; the rule's phase-1
and acceptor branches are unit-tested in ``test_protocol_internals.py``.
"""

import pytest

from repro.algorithms.multi_paxos import run_paxos
from repro.algorithms.raft.vac import check_raft_vac
from repro.core.properties import (
    check_agreement,
    check_termination,
    check_validity,
)
from repro.sim.failures import CrashPlan
from repro.sim.network import NetworkConfig, Partition, UniformDelay


class TestBasicConsensus:
    @pytest.mark.parametrize("seed", range(10))
    def test_agreement_validity_termination(self, seed):
        inits = ["a", "b", "c", "d", "e"]
        result = run_paxos(inits, seed=seed)
        check_agreement(result.decisions)
        check_validity(result.decisions, inits)
        check_termination(result.decisions, range(5))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_cluster_sizes(self, n):
        inits = list(range(n))
        result = run_paxos(inits, seed=4)
        check_agreement(result.decisions)
        check_termination(result.decisions, range(n))

    @pytest.mark.parametrize("seed", range(10))
    def test_per_ballot_vac_coherence(self, seed):
        result = run_paxos([1, 2, 3, 4, 5], seed=seed)
        assert check_raft_vac(result.trace) >= 1

    def test_decision_is_some_input(self):
        result = run_paxos(["x", "y", "z"], seed=2)
        assert result.decided_value() in ("x", "y", "z")


class TestUnderFailures:
    @pytest.mark.parametrize("seed", range(6))
    def test_minority_crashes_tolerated(self, seed):
        inits = [1, 2, 3, 4, 5]
        result = run_paxos(
            inits,
            seed=seed,
            crash_plans=[
                CrashPlan(0, at_time=5.0),
                CrashPlan(1, at_time=9.0),
            ],
        )
        live = [2, 3, 4]
        check_agreement(result.decisions)
        check_termination(result.decisions, live)
        check_validity(result.decisions, inits)

    @pytest.mark.parametrize("seed", range(4))
    def test_crash_restart_rejoins(self, seed):
        result = run_paxos(
            [1, 2, 3],
            seed=seed,
            crash_plans=[CrashPlan(1, at_time=4.0, restart_at=40.0)],
        )
        check_agreement(result.decisions)

    @pytest.mark.parametrize("seed", range(4))
    def test_partition_heals(self, seed):
        network = NetworkConfig(
            delay_model=UniformDelay(0.5, 1.5),
            partitions=[Partition(3.0, 60.0, [[0, 1], [2, 3, 4]])],
        )
        result = run_paxos([1, 2, 3, 4, 5], seed=seed, network=network)
        check_agreement(result.decisions)
        check_termination(result.decisions, range(5))

    def test_minority_side_cannot_decide_alone(self):
        network = NetworkConfig(
            delay_model=UniformDelay(0.5, 1.5),
            partitions=[Partition(0.0, 10_000.0, [[0, 1], [2, 3, 4]])],
        )
        result = run_paxos([1, 2, 3, 4, 5], seed=0, network=network, max_time=400.0)
        assert all(pid in (2, 3, 4) for pid in result.decisions)
        check_agreement(result.decisions)

    @pytest.mark.parametrize("seed", range(4))
    def test_lossy_network(self, seed):
        network = NetworkConfig(delay_model=UniformDelay(0.5, 1.5), drop_rate=0.15)
        result = run_paxos([1, 2, 3], seed=seed, network=network)
        check_agreement(result.decisions)
        check_termination(result.decisions, range(3))


class TestDuelingProposers:
    @pytest.mark.parametrize("seed", range(6))
    def test_contention_resolves(self, seed):
        # Tight identical election ranges maximize dueling; randomized draws
        # must still separate the proposers eventually.
        result = run_paxos(
            [1, 2, 3, 4, 5],
            seed=seed,
            election_timeout=(4.0, 6.0),
            max_time=5_000.0,
        )
        check_agreement(result.decisions)
        check_termination(result.decisions, range(5))

    def test_chosen_value_survives_later_ballots(self):
        """Paxos' core invariant, observed: once any ballot commits, every
        later ballot's adopt annotations carry the same value."""
        for seed in range(8):
            result = run_paxos([1, 2, 3, 4, 5], seed=seed, election_timeout=(4.0, 6.0))
            annotations = result.trace.annotations("vac")
            from repro.core.confidence import ADOPT, COMMIT

            commit_events = [
                (ballot, value)
                for _pid, _t, (ballot, conf, value) in annotations
                if conf is COMMIT
            ]
            if not commit_events:
                continue
            first_ballot, chosen = min(commit_events)
            for _pid, _t, (ballot, conf, value) in annotations:
                if conf is ADOPT and ballot > first_ballot:
                    assert value == chosen

"""Cross-cutting adversarial stress tests: hostile network conditions
layered onto whole protocols.

Modeling note on partitions: :class:`repro.sim.network.Partition` *drops*
cross-partition messages — the right model for Raft/Paxos/Chandra-Toueg,
which retransmit.  Ben-Or sends every message exactly once and assumes
**reliable links**, so a dropping partition can strand the minority forever
(its round-m quorum needs majority-side round-m messages that were lost) —
``test_dropping_partition_strands_the_minority`` documents that this is
real, and the liveness tests use a *delaying* partition built on the
interceptor hook, which preserves reliability.
"""

import pytest

from repro.algorithms.ben_or import ben_or_template_consensus
from repro.algorithms.chandra_toueg import run_chandra_toueg
from repro.algorithms.multi_paxos import run_paxos
from repro.algorithms.multi_paxos.messages import PaxChain
from repro.algorithms.raft import run_raft_consensus
from repro.algorithms.replica import ballot_counter
from repro.core.properties import check_agreement, check_all_rounds, check_termination
from repro.sim.async_runtime import AsyncRuntime
from repro.sim.network import DEFER, NetworkConfig, Partition, UniformDelay


def delaying_partition(start, end, group_a, group_b):
    """An interceptor holding cross-group messages until the cut heals."""
    group_a, group_b = set(group_a), set(group_b)

    def interceptor(payload, src, dst, now):
        if start <= now < end and (
            (src in group_a and dst in group_b)
            or (src in group_b and dst in group_a)
        ):
            return (end - now) + 1.0  # deliver shortly after healing
        return DEFER

    return interceptor


class TestBenOrUnderPartitions:
    @pytest.mark.parametrize("seed", range(4))
    def test_delaying_partition_preserves_everything(self, seed):
        network = NetworkConfig(
            delay_model=UniformDelay(0.5, 1.5),
            interceptor=delaying_partition(2.0, 30.0, [0, 1], [2, 3, 4]),
        )
        runtime = AsyncRuntime(
            [ben_or_template_consensus() for _ in range(5)],
            init_values=[0, 1, 0, 1, 1],
            t=2,
            seed=seed,
            network=network,
            max_time=50_000.0,
        )
        result = runtime.run()
        check_agreement(result.decisions)
        check_termination(result.decisions, range(5))
        check_all_rounds(result.trace, "vac")

    def test_dropping_partition_strands_the_minority(self):
        """With *lossy* partitions Ben-Or's minority can never finish its
        cut-era rounds: its quorum needs round-m messages that were dropped.
        Safety holds; termination holds only for the majority side."""
        network = NetworkConfig(
            delay_model=UniformDelay(0.5, 1.5),
            partitions=[Partition(2.0, 30.0, [[0, 1], [2, 3, 4]])],
        )
        runtime = AsyncRuntime(
            [ben_or_template_consensus() for _ in range(5)],
            init_values=[0, 1, 0, 1, 1],
            t=2,
            seed=1,
            network=network,
            max_time=300.0,  # bounded: the minority will never decide
            stop_when="all_alive_decided",
        )
        result = runtime.run()
        check_agreement(result.decisions)
        majority_decided = [pid for pid in (2, 3, 4) if pid in result.decisions]
        assert len(majority_decided) == 3
        assert 0 not in result.decisions and 1 not in result.decisions


class TestRaftHostileNetworks:
    @pytest.mark.parametrize("seed", range(3))
    def test_fifo_plus_drops(self, seed):
        network = NetworkConfig(
            delay_model=UniformDelay(0.5, 1.5), fifo=True, drop_rate=0.1
        )
        result = run_raft_consensus([1, 2, 3], seed=seed, network=network)
        check_agreement(result.decisions)
        check_termination(result.decisions, range(3))

    def test_repeated_leader_isolation(self):
        # Cut a different node out in consecutive windows: leadership churns
        # but safety and (after the last window) liveness hold — Raft
        # retransmits, so dropping partitions are the faithful model here.
        network = NetworkConfig(
            delay_model=UniformDelay(0.5, 1.5),
            partitions=[
                Partition(5.0, 35.0, [[0], [1, 2, 3, 4]]),
                Partition(40.0, 70.0, [[1], [0, 2, 3, 4]]),
                Partition(75.0, 105.0, [[2], [0, 1, 3, 4]]),
            ],
        )
        result = run_raft_consensus([1, 2, 3, 4, 5], seed=2, network=network)
        check_agreement(result.decisions)
        check_termination(result.decisions, range(5))


class TestPaxosTargetedAttacks:
    @pytest.mark.parametrize("seed", range(3))
    def test_dropping_all_accepts_of_low_ballots(self, seed):
        """An interceptor that destroys every phase-2a stream (``PaxChain``)
        of the first three ballot counters: early ballots can never
        choose, later ones must."""

        def drop_early_chains(payload, src, dst, now):
            if isinstance(payload, PaxChain) and ballot_counter(payload.term) <= 3:
                return None
            return DEFER

        network = NetworkConfig(
            delay_model=UniformDelay(0.5, 1.5), interceptor=drop_early_chains
        )
        result = run_paxos(
            [1, 2, 3, 4, 5], seed=seed, network=network, max_time=10_000.0
        )
        check_agreement(result.decisions)
        check_termination(result.decisions, range(5))
        # The decision must come from a ballot above the attacked range.
        from repro.core.confidence import COMMIT

        commit_ballots = [
            ballot
            for _p, _t, (ballot, conf, _v) in result.trace.annotations("vac")
            if conf is COMMIT
        ]
        assert ballot_counter(min(commit_ballots)) > 3


class TestChandraTouegHostileTiming:
    @pytest.mark.parametrize("seed", range(3))
    def test_partition_around_early_coordinators(self, seed):
        # CT retransmits nothing either, so use the delaying partition.
        network = NetworkConfig(
            delay_model=UniformDelay(0.5, 1.5),
            interceptor=delaying_partition(1.0, 25.0, [0, 1], [2, 3, 4]),
        )
        result = run_chandra_toueg(
            [1, 2, 3, 4, 5], seed=seed, network=network, max_time=20_000.0
        )
        check_agreement(result.decisions)
        check_termination(result.decisions, range(5))

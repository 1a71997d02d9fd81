"""Targeted unit tests for protocol branches the end-to-end runs exercise
only incidentally: Raft's NextIndex backoff, the ballot rule's phase 1
(Paxos' value-choice rule, slot-wise), and Ben-Or's crash-model boundary."""

import random

import pytest

from repro.sim.ops import Send
from repro.sim.process import ProcessAPI


def make_api(pid=0, n=3, t=1):
    return ProcessAPI(pid, n, t, f"v{pid}", random.Random(0))


def drain(gen):
    return list(gen)


class TestRaftNextIndexRepair:
    def make_leader(self, api, terms):
        from repro.algorithms.raft import RaftNode
        from repro.algorithms.raft.log import Entry
        from repro.algorithms.raft.node import LEADER
        from repro.algorithms.raft.state_machine import DecideAndStop

        node = RaftNode()
        for term in terms:
            node.log.append_new(Entry(term, DecideAndStop("x")))
        node.current_term = terms[-1]
        node.state = LEADER
        node.next_index = {1: node.log.last_index + 1, 2: node.log.last_index + 1}
        node.match_index = {1: 0, 2: 0}
        return node

    @staticmethod
    def reject(node, api, hint):
        """A follower's refusal carrying the repair hint ``hint``."""
        from repro.algorithms.raft.messages import AppendEntriesReply

        reply = AppendEntriesReply(
            term=2, success=False, follower_id=1, match_index=hint
        )
        return [op for op in drain(node._on_append_entries_reply(api, reply))
                if isinstance(op, Send)]

    def test_false_ack_decrements_and_resends(self):
        # A term conflict at prev 3 hints 2: the floor drops to 3 and the
        # resend is an empty probe at prev 2, not the suffix.
        from repro.algorithms.raft.messages import AppendEntries

        api = make_api()
        node = self.make_leader(api, [1, 1, 2])
        sends = self.reject(node, api, hint=2)
        assert node.next_index[1] == 3
        assert sends and isinstance(sends[0].payload, AppendEntries)
        probe = sends[0].payload
        assert probe.prev_log_index == 2
        assert probe.entries == ()

    def test_repeated_false_acks_walk_back_to_the_start(self):
        from repro.algorithms.raft.messages import AppendEntriesReply

        api = make_api()
        node = self.make_leader(api, [1, 1, 2])
        # Conflicts found one index further back each time walk the floor
        # down with empty probes; a hint that does not lower it is dropped.
        for hint in (2, 1, 0):
            (probe,) = self.reject(node, api, hint=hint)
            assert probe.payload.prev_log_index == hint
            assert probe.payload.entries == ()
            assert self.reject(node, api, hint=hint) == []
        # The follower accepts the probe at prev 0: the full log ships once.
        ops = drain(
            node._on_append_entries_reply(
                api,
                AppendEntriesReply(term=2, success=True, follower_id=1, match_index=0),
            )
        )
        resend = next(op.payload for op in ops if isinstance(op, Send) and op.dst == 1)
        assert resend.prev_log_index == 0
        assert len(resend.entries) == 3

    def test_success_updates_match_and_advances_commit(self):
        from repro.algorithms.raft.messages import AppendEntriesReply

        api = make_api()
        node = self.make_leader(api, [1, 2, 2])
        node.commit_index = 0
        node.last_applied = 0
        drain(
            node._on_append_entries_reply(
                api,
                AppendEntriesReply(term=2, success=True, follower_id=1, match_index=3),
            )
        )
        assert node.match_index[1] == 3
        assert node.next_index[1] == 4
        # Majority (leader + follower 1) matches index 3 with a current-term
        # entry: the commit rule fires.
        assert node.commit_index == 3

    def test_old_term_entries_do_not_commit_by_counting(self):
        """The log[N].term == currentTerm guard: a leader of term 3 must not
        commit term-2 entries by replication count alone."""
        from repro.algorithms.raft.messages import AppendEntriesReply

        api = make_api()
        node = self.make_leader(api, [1, 2, 2])
        node.current_term = 3  # re-elected later, no term-3 entry yet
        drain(
            node._on_append_entries_reply(
                api,
                AppendEntriesReply(term=3, success=True, follower_id=1, match_index=3),
            )
        )
        assert node.commit_index == 0


def ballot(counter, pid):
    from repro.algorithms.replica import make_ballot

    return make_ballot(counter, pid)


def decide(value):
    from repro.algorithms.raft.state_machine import DecideAndStop

    return DecideAndStop(value)


class TestBallotPhaseOne:
    """The ballot rule's phase 1 and acceptor side (``replica.py``), one
    message at a time, on the family and trigger of the ``paxos`` engine."""

    @staticmethod
    def make_node(**kwargs):
        from repro.algorithms.multi_paxos.messages import PAX_FAMILY
        from repro.algorithms.replica import BallotReplicaNode
        from repro.algorithms.trigger import TimerTrigger

        return BallotReplicaNode(family=PAX_FAMILY, trigger=TimerTrigger(), **kwargs)

    @staticmethod
    def promise(b, voter, from_index=1, entries=()):
        from repro.algorithms.multi_paxos.messages import PaxPromise

        return PaxPromise(b, voter, 0, 0, None, from_index, tuple(entries))

    def campaign(self, node, api, seen=0):
        """Open a ballot above ``seen``; returns it (the node prepares)."""
        from repro.algorithms.replica import PREPARING

        node._max_ballot_seen = seen
        drain(node.campaign(api))
        assert node.state is PREPARING
        return node.promised

    def test_prepare_below_promise_is_nacked(self):
        from repro.algorithms.multi_paxos.messages import (
            PaxPrepare,
            PaxPrepareNack,
            PaxPromise,
        )

        api = make_api()
        node = self.make_node()
        ops = drain(node._on_prepare(api, PaxPrepare(ballot(5, 1), 1, 1)))
        sends = [op for op in ops if isinstance(op, Send)]
        assert isinstance(sends[0].payload, PaxPromise)
        assert node.promised == ballot(5, 1)
        ops = drain(node._on_prepare(api, PaxPrepare(ballot(3, 2), 1, 2)))
        assert ops == [Send(2, PaxPrepareNack(ballot(3, 2), ballot(5, 1), 0))]
        assert node.promised == ballot(5, 1)

    def test_sticky_window_nacks_a_challenger_without_promising(self):
        from repro.algorithms.multi_paxos.messages import (
            PaxPrepare,
            PaxPrepareNack,
            PaxPromise,
        )
        from repro.algorithms.readpath import ReadConfig

        api = make_api()
        node = self.make_node(read_config=ReadConfig(lease_duration=1.0))
        node.promised = ballot(2, 1)
        node.leader_hint = 1
        node.reads.note_leader_contact(0.0)
        api.now = 0.5
        ops = drain(node._on_prepare(api, PaxPrepare(ballot(3, 2), 1, 2)))
        assert ops == [Send(2, PaxPrepareNack(ballot(3, 2), ballot(2, 1), 0))]
        assert node.promised == ballot(2, 1)
        # The leader it hears from may still move to a higher ballot.
        ops = drain(node._on_prepare(api, PaxPrepare(ballot(3, 1), 1, 1)))
        assert isinstance(ops[-1].payload, PaxPromise)
        assert node.promised == ballot(3, 1)

    def test_merge_keeps_the_highest_ballots_value_retagged(self):
        from repro.algorithms.raft.log import Entry
        from repro.algorithms.raft.replication import LEADER

        api = make_api(pid=0, n=5, t=2)
        node = self.make_node()
        b = self.campaign(node, api, seen=ballot(3, 4))
        assert b == ballot(4, 0)
        newer = Entry(ballot(2, 3), decide("newer"))
        older = Entry(ballot(1, 1), decide("older"))
        drain(node._on_promise(api, self.promise(b, 1, entries=[newer])))
        drain(node._on_promise(api, self.promise(b, 2, entries=[older])))
        assert node.state is LEADER
        assert node.log.last_index == 1
        assert node.log.entry_at(1) == Entry(b, decide("newer"))

    def test_suffix_above_the_local_end_is_filled_with_noops(self):
        from repro.algorithms.raft.log import Entry
        from repro.algorithms.replica import Noop

        api = make_api(pid=0, n=3)
        node = self.make_node()
        b = self.campaign(node, api)
        reported = Entry(ballot(1, 2), decide("far"))
        drain(node._on_promise(api, self.promise(b, 1, 3, [reported])))
        assert [node.log.entry_at(i) for i in (1, 2, 3)] == [
            Entry(b, Noop()),
            Entry(b, Noop()),
            Entry(b, decide("far")),
        ]

    def test_promise_for_another_ballot_is_ignored(self):
        from repro.algorithms.replica import PREPARING

        api = make_api(pid=0, n=3)
        node = self.make_node()
        b = self.campaign(node, api, seen=ballot(4, 2))
        ops = drain(node._on_promise(api, self.promise(b - 1, 1)))
        assert ops == []
        assert node.state is PREPARING
        assert list(node._promises) == [0]

    def test_late_promise_after_winning_neither_remerges_nor_appends(self):
        from repro.algorithms.raft.log import Entry
        from repro.algorithms.raft.replication import LEADER

        api = make_api(pid=0, n=3)
        node = self.make_node(propose_on_leadership=True)
        b = self.campaign(node, api)
        drain(node._on_promise(api, self.promise(b, 1)))
        assert node.state is LEADER
        log = node.log.entries_from(1)
        stale = Entry(ballot(0, 2), decide("stale"))
        late = drain(node._on_promise(api, self.promise(b, 2, entries=[stale])))
        assert late == []
        assert node.log.entries_from(1) == log

    def test_nack_for_the_current_ballot_demotes(self):
        from repro.algorithms.multi_paxos.messages import PaxPrepareNack
        from repro.algorithms.raft.replication import FOLLOWER
        from repro.algorithms.replica import PREPARING, ballot_counter
        from repro.sim.ops import SetTimer

        api = make_api(pid=0, n=3)
        node = self.make_node()
        b = self.campaign(node, api)
        # A nack for a ballot this node is not running changes nothing.
        assert drain(node._on_prepare_nack(api, PaxPrepareNack(b - 1, b, 1))) == []
        assert node.state is PREPARING
        ops = drain(node._on_prepare_nack(api, PaxPrepareNack(b, ballot(9, 2), 1)))
        assert node.state is FOLLOWER
        assert node._promises == {}
        assert any(isinstance(op, SetTimer) for op in ops)  # the trigger re-arms
        drain(node.campaign(api))
        assert ballot_counter(node.promised) == 10  # next campaign opens above

    def test_fresh_leader_with_an_empty_log_proposes_its_input(self):
        from repro.algorithms.raft.log import Entry

        api = make_api(pid=0, n=3)
        node = self.make_node(propose_on_leadership=True)
        b = self.campaign(node, api)
        drain(node._on_promise(api, self.promise(b, 1)))
        assert node.log.entries_from(1) == (Entry(b, decide(api.init_value)),)

    def test_chain_below_the_promise_is_refused(self):
        from repro.algorithms.multi_paxos.messages import (
            PaxChain,
            PaxChainAck,
            PaxPrepare,
        )
        from repro.algorithms.raft.log import Entry

        api = make_api()
        node = self.make_node()
        drain(node._on_prepare(api, PaxPrepare(ballot(5, 1), 1, 1)))
        low = ballot(4, 2)
        chain = PaxChain(low, 2, 0, 0, (Entry(low, decide("v")),), 0)
        ops = drain(node._on_append_entries(api, chain))
        assert ops == [Send(2, PaxChainAck(ballot(5, 1), False, 0))]
        assert node.log.last_index == 0

    def test_chain_at_the_promise_is_accepted_and_acked(self):
        from repro.algorithms.multi_paxos.messages import PaxChain, PaxPrepare
        from repro.algorithms.raft.log import Entry

        api = make_api()
        node = self.make_node()
        b = ballot(5, 1)
        drain(node._on_prepare(api, PaxPrepare(b, 1, 1)))
        chain = PaxChain(b, 1, 0, 0, (Entry(b, decide("v")),), 0)
        ops = drain(node._on_append_entries(api, chain))
        assert node.log.entries_from(1) == (Entry(b, decide("v")),)
        (ack,) = [op.payload for op in ops if isinstance(op, Send)]
        assert ack.success and ack.match_index == 1

    def test_election_timeout_validation(self):
        from repro.algorithms.trigger import TimerTrigger

        with pytest.raises(ValueError):
            TimerTrigger((0.0, 5.0))


class TestBenOrModelBoundary:
    def test_distinct_ratified_values_are_detected(self):
        """Two different ratified values cannot occur under crash faults;
        if a Byzantine-ish peer forges them anyway, the VAC fails loudly
        rather than returning an incoherent outcome — documenting the
        algorithm's crash-only model boundary."""
        from repro.algorithms.ben_or.messages import Ratify, Report
        from repro.algorithms.ben_or.vac import BenOrVac
        from repro.sim.async_runtime import AsyncRuntime
        from repro.sim.ops import Receive
        from repro.sim.process import FunctionProcess

        from tests.helpers import OneShotDetector

        def forger(api):
            # Participate in exchange 1 honestly (value 0, which the victim
            # will see as the majority and ratify), then forge a
            # ratification of the *other* value.
            yield Send(0, Report(1, 0))
            yield Send(0, Ratify(1, 1))
            while True:
                yield Receive(count=1)

        def silent(api):
            # Sends nothing: the victim's ratify quorum must pair its own
            # ratification (of 0) with the forged one (of 1).
            while True:
                yield Receive(count=1)

        victim = OneShotDetector(BenOrVac())
        runtime = AsyncRuntime(
            [victim, FunctionProcess(forger), FunctionProcess(silent)],
            init_values=[0, 0, 0],
            t=1,
            seed=0,
            stop_when="all_halted",
            max_time=100.0,
        )
        with pytest.raises(AssertionError, match="distinct ratified values"):
            runtime.run()

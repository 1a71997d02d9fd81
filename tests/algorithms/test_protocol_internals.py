"""Targeted unit tests for protocol branches the end-to-end runs exercise
only incidentally: Raft's NextIndex backoff, Paxos' value-choice rule, and
Ben-Or's crash-model boundary."""

import random

import pytest

from repro.sim.ops import Broadcast, Send
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


class TestPaxosValueChoice:
    def prime_proposer(self, api, ballot):
        from repro.algorithms.paxos import PaxosNode

        node = PaxosNode()
        node._proposing = ballot
        node._promises = {}
        return node

    def test_highest_accepted_ballot_wins(self):
        from repro.algorithms.paxos.messages import Accept, Promise

        api = make_api(pid=0, n=3)
        ballot = (5, 0)
        node = self.prime_proposer(api, ballot)
        drain(node._on_promise(api, Promise(ballot, (2, 1), "older", voter=1)))
        ops = drain(node._on_promise(api, Promise(ballot, (3, 2), "newer", voter=2)))
        accepts = [
            op.payload
            for op in ops
            if isinstance(op, Broadcast) and isinstance(op.payload, Accept)
        ]
        assert accepts and accepts[0].value == "newer"

    def test_own_value_used_when_no_promise_carries_one(self):
        from repro.algorithms.paxos.messages import Accept, Promise

        api = make_api(pid=0, n=3)
        ballot = (5, 0)
        node = self.prime_proposer(api, ballot)
        drain(node._on_promise(api, Promise(ballot, None, None, voter=1)))
        ops = drain(node._on_promise(api, Promise(ballot, None, None, voter=2)))
        accepts = [
            op.payload
            for op in ops
            if isinstance(op, Broadcast) and isinstance(op.payload, Accept)
        ]
        assert accepts and accepts[0].value == api.init_value

    def test_promises_for_other_ballots_ignored(self):
        from repro.algorithms.paxos.messages import Promise

        api = make_api(pid=0, n=3)
        node = self.prime_proposer(api, (5, 0))
        ops = drain(node._on_promise(api, Promise((4, 0), None, None, voter=1)))
        assert ops == []
        assert node._promises == {}

    def test_extra_promises_beyond_majority_do_not_repropose(self):
        from repro.algorithms.paxos.messages import Promise

        api = make_api(pid=0, n=3)
        ballot = (5, 0)
        node = self.prime_proposer(api, ballot)
        drain(node._on_promise(api, Promise(ballot, None, None, voter=1)))
        drain(node._on_promise(api, Promise(ballot, None, None, voter=2)))
        late = drain(node._on_promise(api, Promise(ballot, None, None, voter=0)))
        assert not any(isinstance(op, Broadcast) for op in late)


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

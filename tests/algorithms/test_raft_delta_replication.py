"""Delta replication: per-follower cursors keep appends linear.

The leader tracks two cursors per follower: ``next_index`` (the confirmed
repair floor, as in the Raft paper) and ``sent_index`` (the optimistic
pipeline cursor — the highest index already shipped, acknowledged or not).
Each AppendEntries carries only the suffix beyond ``sent_index``, so
pipelining K proposals costs O(K) replicated entries instead of the
O(K^2) a full-suffix resend per proposal would.  Repair is linear too: a
rejection carries the follower's hint, the leader drops the floor there
and probes with empty appends until an ack, then ships one suffix.
"""

import random
from collections import deque

import pytest

from repro.algorithms.raft import LEADER, Put
from repro.algorithms.raft.log import Entry
from repro.algorithms.raft.messages import AppendEntries
from repro.algorithms.raft.replication import HEARTBEAT
from repro.algorithms.raft.state_machine import KeyValueStateMachine
from repro.algorithms.readpath import ReadBarrier
from repro.live.engine import ENGINES
from repro.sim import trace as tr
from repro.sim.failures import CrashPlan
from repro.sim.messages import Envelope
from repro.sim.network import ConstantDelay, NetworkConfig
from repro.sim.ops import Annotate, Send, TimerFired

from tests.algorithms.test_raft_replication import run_replication

#: An epoch every engine accepts: a Raft term that is also pid 0's first
#: ballot.
TERM = 4096


class FakeAPI:
    def __init__(self, pid=0, n=3):
        self.pid = pid
        self.n = n
        self.now = 0.0
        self.rng = random.Random(0)


@pytest.fixture(params=list(ENGINES))
def build(request):
    """Builds one engine's node through the engine seam.  The cursor, ack
    and coalescing logic is the shared core's
    (repro.algorithms.raft.replication): every engine must behave alike."""
    return lambda n=3: ENGINES[request.param].build_node(
        shard_id=0,
        shard_count=1,
        pid=0,
        n=n,
        election_timeout=(1000.0, 2000.0),
        heartbeat_interval=2.0,
        state_machine_factory=KeyValueStateMachine,
        snapshot_threshold=None,
        storage=None,
    )


def leader_node(build, log_len=0, n=3):
    """A node hand-placed into LEADER state with ``log_len`` entries."""
    node = build(n)
    node.current_term = TERM
    node.state = LEADER
    for i in range(1, log_len + 1):
        node.log.append_new(Entry(TERM, Put(f"k{i}", i)))
    followers = range(1, n)
    node.next_index = {pid: 1 for pid in followers}
    node.match_index = {pid: 0 for pid in followers}
    node.sent_index = {pid: 0 for pid in followers}
    return node


def sent_appends(ops, dst=None):
    return [
        op.payload
        for op in ops
        if isinstance(op, Send) and (dst is None or op.dst == dst)
    ]


class TestCursorMechanics:
    def test_first_send_carries_whole_suffix(self, build):
        node = leader_node(build, log_len=3)
        (msg,) = sent_appends(node._send_append_entries(FakeAPI(), 1))
        assert type(msg) is node.family.append
        assert msg.prev_log_index == 0
        assert [e.command.key for e in msg.entries] == ["k1", "k2", "k3"]
        assert node.sent_index[1] == 3

    def test_pipelined_send_carries_only_the_delta(self, build):
        # No ack has arrived (next_index still 1), yet the second send must
        # start past sent_index — this is the quadratic-resend fix.
        node = leader_node(build, log_len=3)
        list(node._send_append_entries(FakeAPI(), 1))
        node.log.append_new(Entry(TERM, Put("k4", 4)))
        (msg,) = sent_appends(node._send_append_entries(FakeAPI(), 1))
        assert msg.prev_log_index == 3
        assert [e.command.key for e in msg.entries] == ["k4"]
        assert node.sent_index[1] == 4

    def test_nothing_new_sends_empty_heartbeat(self, build):
        node = leader_node(build, log_len=2)
        list(node._send_append_entries(FakeAPI(), 1))
        (msg,) = sent_appends(node._send_append_entries(FakeAPI(), 1))
        assert msg.entries == ()
        assert msg.prev_log_index == 2

    def test_rejection_rewinds_pipeline_cursor_to_floor(self, build):
        node = leader_node(build, log_len=3)
        node.next_index[1] = 4  # stale optimism from a previous incarnation
        node.sent_index[1] = 3
        node.match_index[1] = 3
        reply = node.family.append_reply(TERM, False, 1, match_index=2)
        (msg,) = sent_appends(node._on_append_entries_reply(FakeAPI(), reply))
        assert node.next_index[1] == 3  # the hint + 1
        assert node.sent_index[1] == 2  # frozen at the floor while probing
        assert node.match_index[1] == 2  # it lost index 3: stop counting it
        assert msg.prev_log_index == 2 and msg.entries == ()  # an empty probe

    def test_repair_walks_back_to_follower_prefix(self, build):
        # Rejections walk next_index down to the follower's hints with
        # empty probes; only the accepted probe releases the suffix.
        node = leader_node(build, log_len=3)
        node.next_index[1] = 4
        node.sent_index[1] = 3
        api = FakeAPI()
        for hint in (2, 1, 0):
            (msg,) = sent_appends(
                node._on_append_entries_reply(
                    api, node.family.append_reply(TERM, False, 1, match_index=hint)
                )
            )
            assert node.next_index[1] == hint + 1
            assert msg.prev_log_index == hint and msg.entries == ()
        # The probe at prev 0 is accepted: the full log ships once.
        (msg,) = sent_appends(
            node._on_append_entries_reply(
                api, node.family.append_reply(TERM, True, 1, match_index=0)
            ),
            dst=1,
        )
        assert msg.prev_log_index == 0
        assert len(msg.entries) == 3
        assert node.sent_index[1] == 3

    def test_success_ack_advances_both_cursors(self, build):
        node = leader_node(build, log_len=3)
        list(node._send_append_entries(FakeAPI(), 1))
        reply = node.family.append_reply(TERM, True, 1, match_index=3)
        ops = list(node._on_append_entries_reply(FakeAPI(), reply))
        assert node.match_index[1] == 3
        assert node.next_index[1] == 4
        assert node.sent_index[1] == 3
        # The ack reached a majority, so commit advances and the commit
        # index is broadcast — but nothing is resent to the acked
        # follower (the broadcast may ship the delta to the *other* one).
        assert node.commit_index == 3
        assert all(msg.entries == () for msg in sent_appends(ops, dst=1))

    def test_stale_ack_does_not_rewind_cursors(self, build):
        node = leader_node(build, log_len=3)
        list(node._send_append_entries(FakeAPI(), 1))
        list(node._on_append_entries_reply(
            FakeAPI(), node.family.append_reply(TERM, True, 1, match_index=3)
        ))
        # A reordered older ack arrives late.
        list(node._on_append_entries_reply(
            FakeAPI(), node.family.append_reply(TERM, True, 1, match_index=1)
        ))
        assert node.match_index[1] == 3
        assert node.next_index[1] == 4
        assert node.sent_index[1] == 3

    def test_ack_for_older_entries_triggers_delta_resend(self, build):
        node = leader_node(build, log_len=2)
        list(node._send_append_entries(FakeAPI(), 1))
        node.log.append_new(Entry(TERM, Put("k3", 3)))
        reply = node.family.append_reply(TERM, True, 1, match_index=2)
        with_entries = [
            msg
            for msg in sent_appends(
                node._on_append_entries_reply(FakeAPI(), reply), dst=1
            )
            if msg.entries
        ]
        (msg,) = with_entries
        assert msg.prev_log_index == 2
        assert [e.command.key for e in msg.entries] == ["k3"]

    def test_higher_epoch_ack_deposes_the_leader_and_clears_its_hint(self, build):
        # The one step-down: a deposed leader that kept naming itself
        # would redirect clients to itself (and wedge an Ω-driven
        # election rule, which never campaigns against "its own" lease).
        node = leader_node(build, log_len=1)
        node.leader_hint = 0
        reply = node.family.append_reply(2 * TERM + 1, False, 1)
        assert sent_appends(node._on_append_entries_reply(FakeAPI(), reply)) == []
        assert node.state is not LEADER
        assert node.current_term == 2 * TERM + 1
        assert node.leader_hint is None


def fresh_leader(build, log_len):
    """A leader that just won with ``log_len`` entries: every follower's
    cursors sit at the optimistic end of the log."""
    node = leader_node(build, log_len=log_len)
    for pid in node.next_index:
        node.next_index[pid] = log_len + 1
        node.sent_index[pid] = log_len
    return node


def exchange(leader, follower, in_flight):
    """Deliver messages FIFO between ``leader`` (pid 0) and ``follower``
    (pid 1) until both are quiet; traffic to pid 2 is dropped.  Returns
    the appends the leader sent to the follower meanwhile."""
    queue = deque(in_flight)
    shipped = []
    while queue:
        dst, payload = queue.popleft()
        if dst == 1:
            ops = list(follower._on_append_entries(FakeAPI(pid=1), payload))
        else:
            ops = list(leader._on_append_entries_reply(FakeAPI(), payload))
        for op in ops:
            if isinstance(op, Send) and op.dst in (0, 1):
                if op.dst == 1:
                    shipped.append(op.payload)
                queue.append((op.dst, op.payload))
    return shipped


class TestLinearRepair:
    """Repair ships O(K) entries to a follower K behind, over every engine."""

    def test_empty_follower_catches_up_in_linear_entries(self, build):
        leader = fresh_leader(build, log_len=300)
        follower = build()
        start = [(1, m) for m in sent_appends(leader._send_append_entries(FakeAPI(), 1))]
        shipped = exchange(leader, follower, start)
        assert follower.log.last_index == 300
        assert leader.match_index[1] == 300
        # Decrement-by-one with a whole-suffix resend per step ships
        # 300 * 301 / 2 entries here.
        assert sum(len(m.entries) for m in shipped) <= 600

    def test_replayed_stale_rejections_cause_no_suffix_resend(self, build):
        # Deltas queued for the follower while it was down are replayed to
        # it, emptied, on reconnect: 50 rejections, all hinting index 0.
        leader = fresh_leader(build, log_len=300)
        follower = build()
        stale = [
            (1, leader.family.append(
                term=TERM, leader_id=0, prev_log_index=prev, prev_log_term=TERM,
                entries=(leader.log.entry_at(prev + 1),), leader_commit=0,
            ))
            for prev in range(249, 299)
        ]
        shipped = exchange(leader, follower, stale)
        assert [len(m.entries) for m in shipped if m.entries] == [300]
        assert follower.log.last_index == 300

    def test_lost_probe_is_resent_on_the_next_heartbeat(self, build):
        leader = fresh_leader(build, log_len=10)
        reject = leader.family.append_reply(TERM, False, 1, match_index=4)
        (probe,) = sent_appends(leader._on_append_entries_reply(FakeAPI(), reject))
        assert probe.prev_log_index == 4 and probe.entries == ()
        # The probe is lost.  Nothing else is sent until the heartbeat.
        ops = list(leader._on_replication(FakeAPI(), TimerFired(HEARTBEAT)))
        assert sent_appends(ops, dst=1) == [probe]


class TestAckCoalescing:
    def heartbeat(self, node, commit=0):
        return node.family.append(
            term=TERM,
            leader_id=0,
            prev_log_index=0,
            prev_log_term=0,
            entries=(),
            leader_commit=commit,
        )

    def acks(self, node, msg):
        return sent_appends(node._on_append_entries(FakeAPI(pid=1), msg), dst=0)

    def test_redundant_heartbeat_acks_are_suppressed_with_a_backstop(self, build):
        node = build()
        beat = self.heartbeat(node)
        (first,) = self.acks(node, beat)
        assert first.success and first.match_index == 0
        # The same state again carries no information: skipped, but only
        # ACK_REACK_EVERY times in a row, so a lost ack is retransmitted.
        for _ in range(node.ACK_REACK_EVERY):
            assert self.acks(node, beat) == []
        (again,) = self.acks(node, beat)
        assert again == first
        assert self.acks(node, beat) == []

    def test_new_information_is_never_suppressed(self, build):
        node = build()
        self.acks(node, self.heartbeat(node))
        with_entry = node.family.append(
            term=TERM,
            leader_id=0,
            prev_log_index=0,
            prev_log_term=0,
            entries=(Entry(TERM, Put("k", 1)),),
            leader_commit=0,
        )
        (ack,) = self.acks(node, with_entry)
        assert ack.match_index == 1
        # An empty heartbeat that moves the commit index changes the ack
        # state too, so it is answered.
        beat = node.family.append(
            term=TERM,
            leader_id=0,
            prev_log_index=1,
            prev_log_term=TERM,
            entries=(),
            leader_commit=1,
        )
        (ack,) = self.acks(node, beat)
        assert ack.success and node.commit_index == 1
        assert self.acks(node, beat) == []

    def test_idle_leader_confirms_a_barrier_in_one_round_trip(self, build):
        # Followers that already acknowledged the leader's state coalesce
        # its heartbeats away.  A barrier's append repeats that state
        # except for the read sequence, so only a coalescing key that
        # includes the sequence gets it answered — and an idle shard
        # confirms a read in one round trip instead of never.
        nodes = {0: fresh_leader(build, log_len=1), 1: build(), 2: build()}
        leader = nodes[0]

        def hop(messages):
            """Deliver one hop; returns the next hop and the annotations."""
            sends, notes = [], []
            for dst, payload in messages:
                for op in nodes[dst]._on_replication(FakeAPI(pid=dst), payload):
                    if isinstance(op, Send):
                        sends.append((op.dst, op.payload))
                    elif isinstance(op, Annotate):
                        notes.append((op.key, op.value))
            return sends, notes

        in_flight, _ = hop([(0, TimerFired(HEARTBEAT))])
        while in_flight:  # repair, replicate and commit the entry
            in_flight, _ = hop(in_flight)
        assert leader.commit_index == 1
        beats, _ = hop([(0, TimerFired(HEARTBEAT))])
        assert hop(beats)[0] == []  # the followers coalesce the heartbeat

        appends, notes = hop([(0, ReadBarrier(("b", 1)))])
        assert sorted(dst for dst, _ in appends) == [1, 2] and notes == []
        replies, _ = hop(appends)
        assert len(replies) == 2
        _, notes = hop(replies[:1])  # one follower plus the leader: a majority
        assert ("read_ready", (("b", 1), 1, True)) in notes


def entries_shipped_per_follower(result):
    """Total AppendEntries entries each pid received, from the trace."""
    totals = {}
    for event in result.trace.events:
        if event.kind != tr.SEND or not isinstance(event.detail, Envelope):
            continue
        payload = event.detail.payload
        if isinstance(payload, AppendEntries):
            totals[event.detail.dst] = (
                totals.get(event.detail.dst, 0) + len(payload.entries)
            )
    return totals


class TestLinearReplicationTraffic:
    @pytest.mark.parametrize("seed", range(3))
    def test_entries_shipped_stay_linear_in_log_length(self, seed):
        # 8 staggered proposals, stable leader, no losses: each follower
        # should receive each entry about once.  The pre-cursor behaviour
        # (full suffix per proposal) ships Theta(K^2) — 36+ entries per
        # follower here — so the 2K bound cleanly separates the two.
        commands = [Put(f"key-{i}", i) for i in range(8)]
        nodes, result = run_replication(
            3,
            commands,
            seed=seed,
            staggered=True,
            network=NetworkConfig(delay_model=ConstantDelay(1.0)),
            max_time=900.0,
        )
        for node in nodes:
            assert node.machine.data == {f"key-{i}": i for i in range(8)}
        shipped = entries_shipped_per_follower(result)
        for pid, total in shipped.items():
            assert total <= 2 * len(commands), (pid, total, shipped)

    def test_restarted_follower_repaired_from_next_index(self, seed=5):
        # After the follower restarts with an empty log, the leader walks
        # next_index back and re-ships the prefix once; afterwards the
        # cursors agree with the follower's actual log.
        commands = [Put(f"key-{i}", i) for i in range(4)]
        nodes, result = run_replication(
            3,
            commands,
            seed=seed,
            crash_plans=[CrashPlan(1, at_time=2.0, restart_at=80.0)],
            max_time=900.0,
        )
        assert nodes[1].machine.data == {f"key-{i}": i for i in range(4)}
        leaders = [n for n in nodes if n.state is LEADER]
        assert leaders, "no leader at end of run"
        leader = leaders[-1]
        for pid in leader.next_index:
            assert leader.next_index[pid] <= leader.log.last_index + 1
            assert leader.sent_index[pid] <= leader.log.last_index
            assert leader.sent_index[pid] >= leader.next_index[pid] - 1

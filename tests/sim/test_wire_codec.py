"""Round-trip tests for the tagged-JSON reference codec (`tests.wire_json`).

Every algorithm message dataclass that `repro.live.codec` registers must
survive ``wire_loads(wire_dumps(msg)) == msg`` — including nested entries,
tuples, unicode strings and enum members — because the binary codec that
ships them between live nodes is checked against this one
(`tests/sim/test_binary_codec.py`).
"""

import enum
from dataclasses import dataclass

import pytest

import repro.live.codec  # noqa: F401  (registers the algorithm messages)
from repro.algorithms.ben_or.messages import Ratify, Report
from repro.algorithms.chandra_toueg.messages import (
    Ack,
    CoordinatorProposal,
    CtDecide,
    Estimate,
)
from repro.algorithms.chandra_toueg.messages import Nack as CtNack
from repro.algorithms.chandra_toueg.replicated import (
    CtChain,
    CtChainAck,
    CtPrepare,
    CtPrepareNack,
    CtPromise,
    CtSnapshot,
    CtSnapshotAck,
)
from repro.algorithms.multi_paxos.messages import (
    PaxChain,
    PaxChainAck,
    PaxPrepare,
    PaxPrepareNack,
    PaxPromise,
    PaxSnapshot,
    PaxSnapshotAck,
)
from repro.algorithms.replica import Noop
from repro.algorithms.raft.log import Entry
from repro.algorithms.raft.messages import (
    AppendEntries,
    AppendEntriesReply,
    ClientPropose,
    InstallSnapshot,
    InstallSnapshotReply,
    RequestVote,
    RequestVoteReply,
)
from repro.algorithms.raft.state_machine import DecideAndStop, Put
from repro.algorithms.shared_coin.conciliator import ConcInput
from repro.core.confidence import ADOPT, COMMIT, Confidence
from repro.live.detector import FdHeartbeat
from repro.live.kv import KvBatch, TaggedPut
from repro.sim.ops import TimerFired
from repro.sim.serialize import WireError, register_wire_type
from tests.wire_json import from_wire, to_wire, wire_dumps, wire_loads

SAMPLE_MESSAGES = [
    # Ben-Or exchanges, including a hashable-but-composite round tag.
    Report(3, 1),
    Report(("phase", 2), 0),
    Ratify(3, 1),
    Ratify(4, None),
    # Chandra-Toueg.
    Estimate(2, "估计值", 1, 4),
    CoordinatorProposal(2, 40),
    Ack(2, 0),
    CtNack(2, 3),
    CtDecide("décidé"),
    # Raft, with nested entries carrying commands.
    RequestVote(7, 1, 12, 6),
    RequestVoteReply(7, True, 2),
    AppendEntries(7, 1, 12, 6, (), 10),
    AppendEntries(
        7, 1, 12, 6,
        (Entry(6, DecideAndStop("vérité")), Entry(7, Put("clé", "значение"))),
        11,
    ),
    AppendEntriesReply(7, False, 2, 0),
    AppendEntriesReply(7, True, 2, 13),
    InstallSnapshot(8, 1, 20, 7, {"x": 1, "y": [True, None]}),
    InstallSnapshotReply(8, 2, 20),
    ClientPropose(Put("k", "v")),
    ClientPropose(DecideAndStop(0)),
    Entry(3, Put("键", b"\x00\xffbytes")),
    DecideAndStop(1),
    Put("unicode-κλειδί", "🎯"),
    # Multi-Paxos engine (ballots are stride-encoded ints).
    PaxPrepare(8193, 4, 1),
    PaxPromise(8193, 2, 0, 0, None, 4, ()),
    PaxPromise(
        8193, 2, 3, 4097, ({"k": "v"}, 3), 4,
        (Entry(4097, Put("clé", "значение")),),
    ),
    PaxPrepareNack(8193, 12290, 0),
    PaxChain(8193, 1, 4, 4097, (Entry(8193, Put("a", 1)),), 3),
    PaxChain(8193, 1, 0, 0, (), 0),
    PaxChainAck(8193, True, 2, 5),
    PaxChainAck(8193, False, 2, 0),
    PaxSnapshot(8193, 1, 10, 4097, ({"x": [1, 2]}, 10)),
    PaxSnapshotAck(8193, 0, 10),
    # One single-decree Paxos ballot (5, pid 2) = 20482: an empty and a
    # value-carrying promise, phase 2a with a nested value, its ack, a nack.
    PaxPrepare(20482, 1, 2),
    PaxPromise(20482, 0, 0, 0, None, 1, ()),
    PaxPromise(20482, 3, 0, 0, None, 1, (Entry(16385, DecideAndStop("värde")),)),
    PaxChain(20482, 2, 0, 0, (Entry(20482, DecideAndStop({"k": [1, 2, 3]})),), 0),
    PaxChainAck(20482, True, 1, 1),
    PaxPrepareNack(20482, 36868, 4),
    # Chandra-Toueg engine (same mixer shapes, disjoint wire names).
    CtPrepare(12290, 1, 2),
    CtPromise(12290, 0, 0, 0, None, 1, (Entry(8193, Put("k", "v")),)),
    CtPrepareNack(12290, 16387, 1),
    CtChain(12290, 2, 1, 8193, (Entry(12290, DecideAndStop("done")),), 1),
    CtChainAck(12290, True, 0, 2),
    CtSnapshot(12290, 2, 7, 8193, ({"s": True}, 7)),
    CtSnapshotAck(12290, 1, 7),
    # Failure-detector beacon + the mixer's gap filler.
    FdHeartbeat(3, 41),
    Noop(),
    Noop("leadership"),
    Entry(8193, Noop()),
    # KV service commands.
    TaggedPut("k", "v", "op-7"),
    KvBatch((TaggedPut("a", 1, "op-1"), TaggedPut("b", 2, "op-2")), (0, 5)),
    KvBatch((), ("barrier", 2, 9)),
    # Shared coin and timers.
    ConcInput(1, 0),
    TimerFired("election"),
]


class TestMessageRoundTrips:
    @pytest.mark.parametrize(
        "message", SAMPLE_MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_round_trip_is_equal_and_same_type(self, message):
        data = wire_dumps(message)
        assert isinstance(data, bytes)
        back = wire_loads(data)
        assert type(back) is type(message)
        assert back == message

    def test_nested_entries_recover_command_types(self):
        msg = AppendEntries(
            2, 0, 0, 0, (Entry(1, Put("k", (1, 2))), Entry(2, DecideAndStop(9))), 0
        )
        back = wire_loads(wire_dumps(msg))
        assert isinstance(back.entries, tuple)
        assert isinstance(back.entries[0].command, Put)
        assert back.entries[0].command.value == (1, 2)
        assert isinstance(back.entries[1].command, DecideAndStop)

    def test_confidence_enum_round_trips(self):
        for member in Confidence:
            assert wire_loads(wire_dumps(member)) is member
        payload = {"vac": (3, ADOPT, 1), "other": COMMIT}
        assert wire_loads(wire_dumps(payload)) == payload


class TestContainerEncoding:
    def test_scalars(self):
        for value in (None, True, False, 0, -17, 3.5, "plain", "日本語 🚀"):
            assert wire_loads(wire_dumps(value)) == value

    def test_tuple_list_distinction_survives(self):
        value = {"t": (1, 2), "l": [1, 2]}
        back = wire_loads(wire_dumps(value))
        assert isinstance(back["t"], tuple)
        assert isinstance(back["l"], list)

    def test_non_string_dict_keys(self):
        value = {(1, 2): "pair", 7: "int", "s": "str"}
        assert wire_loads(wire_dumps(value)) == value

    def test_bytes(self):
        value = bytes(range(256))
        assert wire_loads(wire_dumps(value)) == value

    def test_deep_nesting(self):
        value = [((("deep",),), {"k": [Put("a", (None, b"\x01"))]})]
        assert wire_loads(wire_dumps(value)) == value


class TestRegistryErrors:
    def test_unregistered_dataclass_rejected(self):
        @dataclass(frozen=True)
        class Unregistered:
            x: int

        with pytest.raises(WireError, match="not wire-registered"):
            to_wire(Unregistered(1))

    def test_unregistered_enum_rejected(self):
        class Color(enum.Enum):
            RED = 1

        with pytest.raises(WireError, match="not wire-registered"):
            to_wire(Color.RED)

    def test_reregistering_same_class_is_noop(self):
        assert register_wire_type(Report) is Report

    def test_conflicting_name_rejected(self):
        @dataclass(frozen=True)
        class Impostor:
            round_no: int
            value: int

        with pytest.raises(WireError, match="already registered"):
            register_wire_type(
                Impostor, name="repro.algorithms.ben_or.messages:Report"
            )

    def test_non_dataclass_rejected(self):
        with pytest.raises(WireError):
            register_wire_type(int)

    def test_unknown_wire_tag_rejected(self):
        with pytest.raises(WireError, match="malformed"):
            from_wire({"!": "zz", "v": 1})

    def test_unknown_type_name_rejected(self):
        with pytest.raises(WireError, match="unknown wire dataclass"):
            from_wire({"!": "c", "t": "nowhere:Nothing", "f": {}})

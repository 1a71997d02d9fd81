"""The binary wire codec: round-trips, malformed-frame fuzz, JSON agreement.

The binary codec (`binary_dumps`/`binary_loads`) is the only encoding on
live connections.  It must be lossless over the exact value model of the
JSON reference codec (`tests.wire_json`) — every registered
message dataclass, every container shape, every scalar edge.  Decoding
is also the trust boundary of a live node: any byte
string, however mangled, must either decode or raise ``WireError``, never
escape with an arbitrary exception or wrong value.
"""

import enum
import random
from dataclasses import dataclass

import pytest

import repro.live.codec  # noqa: F401  (registers the algorithm messages)
from repro.algorithms.raft.log import Entry
from repro.algorithms.raft.messages import AppendEntries, AppendEntriesReply
from repro.algorithms.raft.state_machine import Put
from repro.core.confidence import ADOPT, Confidence
from repro.live.kv import KvBatch, TaggedPut
from repro.sim.serialize import (
    WireError,
    binary_dumps,
    binary_loads,
    register_wire_type,
)
from tests.sim.test_wire_codec import SAMPLE_MESSAGES
from tests.wire_json import wire_dumps, wire_loads


class TestMessageRoundTrips:
    @pytest.mark.parametrize(
        "message", SAMPLE_MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_every_registered_message_round_trips(self, message):
        data = binary_dumps(message)
        assert isinstance(data, bytes)
        back = binary_loads(data)
        assert type(back) is type(message)
        assert back == message

    def test_binary_frames_are_self_describing(self):
        # Binary tags stay below 0x20, so a JSON body sent to a live port
        # fails on its first byte instead of decoding as something else.
        for message in SAMPLE_MESSAGES:
            assert binary_dumps(message)[0] < 0x20
            assert wire_dumps(message)[0] >= 0x20

    def test_interned_names_paid_once(self):
        # A batch of N entries must not embed the class name N times.
        def frame(entries):
            return binary_dumps(
                AppendEntries(7, 1, 0, 0, tuple(entries), 0)
            )

        one = frame([Entry(7, Put("k", "v"))])
        eight = frame([Entry(7, Put(f"k{i}", "v")) for i in range(8)])
        per_entry = (len(eight) - len(one)) / 7
        assert per_entry < len(Entry.__module__) + len(Put.__module__)

    def test_nested_entries_recover_command_types(self):
        msg = AppendEntries(
            2, 0, 0, 0, (Entry(1, Put("k", (1, 2))), Entry(2, Put("j", 9))), 0
        )
        back = binary_loads(binary_dumps(msg))
        assert isinstance(back.entries, tuple)
        assert isinstance(back.entries[0].command, Put)
        assert back.entries[0].command.value == (1, 2)

    def test_enum_round_trips(self):
        for member in Confidence:
            assert binary_loads(binary_dumps(member)) is member
        payload = {"vac": (3, ADOPT, 1)}
        assert binary_loads(binary_dumps(payload)) == payload


class TestValueModelEdges:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            127,
            -128,
            128,
            -129,
            2**63 - 1,
            -(2**63),
            2**63,
            -(2**63) - 1,
            2**200,
            -(2**200),
            0.0,
            -2.5,
            1e300,
            "",
            "plain",
            "日本語 🚀",
            "x" * 300,
            b"",
            b"\x00\xff",
            bytes(range(256)) * 2,
            [],
            (),
            {},
            list(range(300)),
            tuple(range(300)),
            {i: str(i) for i in range(300)},
            {(1, 2): "pair", 7: "int", "s": "str"},
            [((("deep",),), {"k": [Put("a", (None, b"\x01"))]})],
        ],
        ids=lambda v: repr(v)[:32],
    )
    def test_round_trip(self, value):
        back = binary_loads(binary_dumps(value))
        assert back == value
        assert type(back) is type(value)

    def test_bool_int_distinction_survives(self):
        back = binary_loads(binary_dumps([True, 1, False, 0]))
        assert [type(v) for v in back] == [bool, int, bool, int]

    def test_unregistered_dataclass_rejected(self):
        @dataclass(frozen=True)
        class Unregistered:
            x: int

        with pytest.raises(WireError, match="not wire-registered"):
            binary_dumps(Unregistered(1))

    def test_unregistered_enum_rejected(self):
        class Color(enum.Enum):
            RED = 1

        with pytest.raises(WireError, match="not wire-registered"):
            binary_dumps(Color.RED)


class TestMalformedFrames:
    """Any mangled byte string raises WireError — nothing else escapes."""

    def test_empty_frame(self):
        with pytest.raises(WireError, match="empty"):
            binary_loads(b"")

    def test_unassigned_tags(self):
        assigned = {binary_dumps(v)[0] for v in (None, True, 0, "")}
        for tag in range(0x20):
            if tag in assigned:
                continue
            try:
                binary_loads(bytes([tag]))
            except WireError:
                continue
            except Exception as exc:  # pragma: no cover - diagnostic
                pytest.fail(f"tag 0x{tag:02x} raised {exc!r}")

    @pytest.mark.parametrize(
        "message", SAMPLE_MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_every_truncation_rejected(self, message):
        data = binary_dumps(message)
        for cut in range(len(data)):
            with pytest.raises(WireError):
                binary_loads(data[:cut])

    @pytest.mark.parametrize(
        "message", SAMPLE_MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_trailing_bytes_rejected(self, message):
        with pytest.raises(WireError, match="trailing"):
            binary_loads(binary_dumps(message) + b"\x00")

    def test_invalid_utf8_string_rejected(self):
        good = binary_dumps("ab")
        bad = good[:-2] + b"\xff\xfe"  # same length, invalid UTF-8 body
        with pytest.raises(WireError, match="UTF-8"):
            binary_loads(bad)

    def test_unknown_dataclass_name_rejected(self):
        data = binary_dumps(AppendEntriesReply(1, True, 2, 3))
        name = type(AppendEntriesReply(1, True, 2, 3)).__module__
        mangled = data.replace(name.encode(), name.upper().encode())
        assert mangled != data
        with pytest.raises(WireError, match="unknown wire dataclass"):
            binary_loads(mangled)

    def test_byte_flip_fuzz_never_escapes(self):
        # Flip every byte of real frames through several values: decoding
        # must produce a value or WireError, never another exception.
        corpus = [binary_dumps(m) for m in SAMPLE_MESSAGES]
        for data in corpus:
            for i in range(len(data)):
                for flip in (0x00, 0x01, 0x1F, 0x7F, 0xFF):
                    mangled = data[:i] + bytes([data[i] ^ flip]) + data[i + 1:]
                    try:
                        binary_loads(mangled)
                    except WireError:
                        pass

    def test_random_bytes_fuzz_never_escapes(self):
        rng = random.Random(0xC0DEC)
        for _ in range(3000):
            data = bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 48))
            )
            try:
                binary_loads(data)
            except WireError:
                pass


class TestShardTaggedFrameFuzz:
    """Shard-tagged peer frames survive the same hostility as plain ones."""

    @staticmethod
    def _frames():
        from repro.live.wire import encode_peer_frame

        message = AppendEntries(3, 0, 2, 1, (Entry(2, Put("k", "v")),), 1)
        return [
            # Body only; the length prefix is the stream's job.
            encode_peer_frame("msg", payload=message, ts=0.25, shard=shard)[4:]
            for shard in (0, 1, 5, 200)
        ]

    def test_tagged_frames_round_trip(self):
        from repro.live.wire import decode_body, parse_peer_frame

        for body in self._frames():
            kind, payload, ts, shard = parse_peer_frame(decode_body(body))
            assert kind == "msg"
            assert isinstance(payload, AppendEntries)
            assert ts == 0.25
            assert isinstance(shard, int) and shard >= 0

    def test_byte_flip_fuzz_never_escapes_or_misroutes(self):
        # Decoding a mangled tagged frame must yield WireError or a parse
        # that either rejects the frame (kind None) or reports a sane
        # shard — never an exception, never a negative/typed-wrong shard.
        from repro.live.wire import decode_body, parse_peer_frame

        for body in self._frames():
            for i in range(len(body)):
                for flip in (0x01, 0x1F, 0xFF):
                    mangled = body[:i] + bytes([body[i] ^ flip]) + body[i + 1:]
                    try:
                        frame = decode_body(mangled)
                    except WireError:
                        continue
                    kind, _payload, _ts, shard = parse_peer_frame(frame)
                    assert isinstance(shard, int) and not isinstance(shard, bool)
                    assert shard >= 0
                    assert kind in (None, "msg", "ping", "hello")

    def test_random_bytes_fuzz_never_escapes(self):
        from repro.live.wire import parse_peer_frame
        from repro.sim.serialize import binary_loads as loads

        rng = random.Random(0x5A4D)
        for _ in range(2000):
            data = bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 48))
            )
            try:
                frame = loads(data)
            except WireError:
                continue
            kind, _payload, _ts, shard = parse_peer_frame(frame)
            assert isinstance(shard, int) and shard >= 0
            assert kind in (None, "msg", "ping", "hello")


class TestJsonInterop:
    """The JSON reference codec shares the registry and the value model."""

    @pytest.mark.parametrize(
        "message", SAMPLE_MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_cross_codec_agreement(self, message):
        via_binary = binary_loads(binary_dumps(message))
        via_json = wire_loads(wire_dumps(message))
        assert via_binary == via_json == message

    def test_binary_is_smaller_on_message_traffic(self):
        binary = sum(len(binary_dumps(m)) for m in SAMPLE_MESSAGES)
        text = sum(len(wire_dumps(m)) for m in SAMPLE_MESSAGES)
        assert binary < text

    def test_frame_decoder_rejects_json_bodies(self):
        from repro.live.wire import decode_body

        message = AppendEntriesReply(7, True, 2, 13)
        assert decode_body(binary_dumps(message)) == message
        with pytest.raises(WireError):
            decode_body(wire_dumps(message))

    def test_registration_serves_both_codecs(self):
        @dataclass(frozen=True)
        class BothWays:
            tag: str
            seq: int

        register_wire_type(BothWays)
        value = BothWays("x", 4)
        assert binary_loads(binary_dumps(value)) == value
        assert wire_loads(wire_dumps(value)) == value

"""Wire objects carry no per-instance ``__dict__``.

Every log entry a node retains is a decoded wire object, so a registered
class that keeps a ``__dict__`` costs its size again on every entry of
every replica.  The library's wire types are slotted dataclasses (or empty
``__slots__`` subclasses of one), and the binary codec's generated decoder
fills their slots directly.  A class with a ``__post_init__``, or one
without slots, decodes through its constructor instead.
"""

from dataclasses import dataclass

import pytest

import repro.algorithms.readpath  # noqa: F401  (registers ReadBarrier)
import repro.live.codec  # noqa: F401  (registers the algorithm messages)
import repro.live.kv  # noqa: F401  (registers the KV commands)
import repro.storage.wal  # noqa: F401  (registers the WAL records)
from repro.algorithms.raft.log import Entry
from repro.algorithms.raft.messages import AppendEntries
from repro.live.kv import KvBatch, KvRead, TaggedPut
from repro.sim import serialize
from repro.sim.serialize import binary_dumps, binary_loads, register_wire_type


def library_wire_classes():
    # Tests register throwaway classes of their own; only the library's
    # types are held to the rule.
    return [
        pytest.param(cls, id=name)
        for name, cls in sorted(serialize._WIRE_DATACLASSES.items())
        if cls.__module__.startswith("repro.")
    ]


class TestRegistryIsSlotted:
    def test_registry_covers_every_wire_module(self):
        modules = {param.values[0].__module__ for param in library_wire_classes()}
        assert {
            "repro.algorithms.readpath",
            "repro.algorithms.raft.log",
            "repro.algorithms.chandra_toueg.replicated",
            "repro.algorithms.multi_paxos.messages",
            "repro.live.kv",
            "repro.storage.wal",
        } <= modules

    @pytest.mark.parametrize("cls", library_wire_classes())
    def test_no_registered_class_has_a_dict(self, cls):
        holders = [k.__qualname__ for k in cls.__mro__ if "__dict__" in k.__dict__]
        assert holders == [], f"__dict__ from {holders}"

    def test_decoded_batch_ops_have_no_dict(self):
        ops = tuple(TaggedPut(f"k{i}", "v" * 64, f"c1:{i}") for i in range(16))
        batch = KvBatch(ops + (KvRead("k0", "c1:r"),), ("c1", 7))
        frame = AppendEntries(3, 0, 5, 2, (Entry(3, batch),), 5)
        back = binary_loads(binary_dumps(frame))
        assert back == frame
        decoded = back.entries[0].command
        for obj in (back, back.entries[0], decoded, *decoded.ops):
            assert not hasattr(obj, "__dict__"), type(obj).__name__


@dataclass(frozen=True, slots=True)
class SlottedProbe:
    tag: str
    seq: int
    extra: tuple = ()


POST_INIT_CALLS = []


@dataclass(frozen=True, slots=True)
class CheckedProbe:
    seq: int

    def __post_init__(self):
        POST_INIT_CALLS.append(self.seq)


@dataclass(frozen=True)
class PlainProbe:
    tag: str
    seq: int = 0


register_wire_type(SlottedProbe)
register_wire_type(CheckedProbe)
register_wire_type(PlainProbe)


class TestDecoderPaths:
    def test_slotted_class_decodes_without_init(self, monkeypatch):
        value = SlottedProbe("x", 4, (1, "two"))
        data = binary_dumps(value)

        def refuse(self, *args, **kwargs):
            raise AssertionError("decoder called __init__")

        monkeypatch.setattr(SlottedProbe, "__init__", refuse)
        back = binary_loads(data)
        assert type(back) is SlottedProbe
        assert back == value
        assert hash(back) == hash(value)
        assert not hasattr(back, "__dict__")

    def test_post_init_class_decodes_through_constructor(self):
        value = CheckedProbe(11)
        data = binary_dumps(value)
        del POST_INIT_CALLS[:]
        back = binary_loads(data)
        assert POST_INIT_CALLS == [11]
        assert back == value

    def test_unslotted_class_still_round_trips(self):
        for value in (PlainProbe("y"), PlainProbe("z", -300)):
            back = binary_loads(binary_dumps(value))
            assert type(back) is PlainProbe
            assert back == value
            assert back.__dict__ == {"tag": value.tag, "seq": value.seq}

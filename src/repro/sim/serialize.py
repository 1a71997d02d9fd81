"""The lossless binary wire codec.

:func:`binary_dumps` and :func:`binary_loads` are a struct-packed
encoding of algorithm message payloads, used by :mod:`repro.live` to
ship the exact dataclasses the simulators pass by reference over real
TCP connections (and by :mod:`repro.storage.wal` for its frames).
Dataclass and enum types must be registered (:func:`register_wire_type`,
:func:`register_wire_enum`); the built-in algorithm message types are
registered by importing :mod:`repro.live.codec`.  Scalars, lists,
tuples, dicts (with arbitrary hashable encodable keys) and bytes
round-trip exactly, so a payload decoded on the receiving node is ``==``
to the one that was sent and ``isinstance`` predicates keep working.
Every value is a one-byte type tag followed by packed payload bytes;
registered dataclass/enum *names* are interned per frame (sent once,
referenced by a one-byte slot afterwards) and dataclass fields travel
positionally in declaration order, so an ``AppendEntries`` full of log
entries pays for the class name exactly once.  Binary tags are all
``< 0x20``, so a frame body that starts with printable ASCII (a JSON
body) is refused on its first byte.
"""

from __future__ import annotations

import enum
import operator
import struct
import types
from dataclasses import fields, is_dataclass
from typing import Any, Dict, List, Optional, Tuple, Type

# ----------------------------------------------------------------------
# The wire type registry (used by repro.live)
# ----------------------------------------------------------------------

_WIRE_DATACLASSES: Dict[str, type] = {}
_WIRE_ENUMS: Dict[str, Type[enum.Enum]] = {}
#: Reverse maps and per-class field caches, maintained by the register
#: functions.  ``fields()`` is surprisingly slow, and the binary codec
#: sends fields positionally, so both directions need the cached tuple.
_WIRE_CLASS_NAMES: Dict[type, str] = {}
_WIRE_CLASS_FIELDS: Dict[type, Tuple[str, ...]] = {}
_WIRE_ENUM_NAMES: Dict[type, str] = {}
#: UTF-8 name caches for the binary codec: registered names are written
#: into every frame's first def record, so both directions keep the raw
#: bytes to skip a per-message encode/decode of a ~50-char module path.
_WIRE_CLASS_NAMEB: Dict[type, bytes] = {}
_WIRE_ENUM_NAMEB: Dict[type, bytes] = {}
_WIRE_DATACLASSES_B: Dict[bytes, type] = {}
_WIRE_ENUMS_B: Dict[bytes, type] = {}
#: Per-class generated field decoder (see :func:`_make_field_decoder`).
_WIRE_CLASS_DEC: Dict[type, Any] = {}
#: Per-class C-level field reader (``attrgetter`` over all fields at once)
#: and the pre-built ``<name_len><name>`` suffix of a DC_DEF record.
_WIRE_CLASS_GET: Dict[type, Any] = {}
_WIRE_CLASS_DEFB: Dict[type, bytes] = {}


def _make_field_getter(field_names: Tuple[str, ...]):
    if not field_names:
        return lambda value: ()
    getter = operator.attrgetter(*field_names)
    if len(field_names) == 1:
        return lambda value: (getter(value),)
    return getter


def _make_field_decoder(cls: type, field_names: Tuple[str, ...]):
    """Compile a straight-line field decoder for one registered class.

    Decoding dataclass fields is the binary codec's hottest loop, so each
    registered class gets a generated function that unrolls it: inline
    scalar cases (mirroring the container item loop), no values list, and
    direct construction — via ``object.__new__`` + one slot descriptor
    ``__set__`` per field where that is observationally equivalent to
    ``__init__`` (no ``__post_init__``, all fields ``init=True``, every
    field a slot), via a positional call otherwise.  Registration-time
    codegen; runs only after the module is fully loaded.
    """
    setters = [getattr(cls, name, None) for name in field_names]
    slotted = (
        not hasattr(cls, "__post_init__")
        and all(f.init for f in fields(cls))
        and all(isinstance(d, types.MemberDescriptorType) for d in setters)
    )
    lines = ["def _dec(data, pos, slots):"]
    for i in range(len(field_names)):
        v = f"v{i}"
        lines += [
            "    tag = data[pos]",
            f"    if tag == {_B_INT8}:",
            f"        {v} = data[pos + 1]",
            f"        if {v} >= 128:",
            f"            {v} -= 256",
            "        pos += 2",
            f"    elif tag == {_B_STR8}:",
            "        size = data[pos + 1]",
            "        start = pos + 2",
            "        pos = start + size",
            "        raw = data[start:pos]",
            "        if len(raw) != size:",
            "            raise _err('truncated binary frame (string body)')",
            "        try:",
            f"            {v} = raw.decode('utf-8')",
            "        except UnicodeDecodeError:",
            "            raise _err('malformed binary frame (invalid UTF-8)')",
            f"    elif tag == {_B_TRUE}:",
            f"        {v} = True",
            "        pos += 1",
            f"    elif tag == {_B_FALSE}:",
            f"        {v} = False",
            "        pos += 1",
            f"    elif tag == {_B_NONE}:",
            f"        {v} = None",
            "        pos += 1",
            f"    elif tag == {_B_INT64}:",
            f"        {v} = _unpack_q(data, pos + 1)[0]",
            "        pos += 9",
            "    else:",
            f"        {v}, pos = _decode(data, pos, slots)",
        ]
    namespace = {
        "_cls": cls,
        "_new": object.__new__,
        "_decode": _bin_decode,
        "_unpack_q": _S_Q.unpack_from,
        "_err": WireError,
    }
    if slotted:
        lines.append("    obj = _new(_cls)")
        for i, setter in enumerate(setters):
            namespace[f"_set{i}"] = setter.__set__
            lines.append(f"    _set{i}(obj, v{i})")
        lines.append("    return obj, pos")
    else:
        args = ", ".join(f"v{i}" for i in range(len(field_names)))
        lines.append(f"    return _cls({args}), pos")
    exec("\n".join(lines), namespace)
    return namespace["_dec"]


class WireError(ValueError):
    """An object cannot be encoded to (or decoded from) the wire format."""


def _wire_name(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def register_wire_type(cls: type, name: Optional[str] = None) -> type:
    """Register a dataclass for lossless wire encoding.

    The registered name defaults to ``module:QualName`` — stable across
    processes as long as both ends import the same code.  Usable as a class
    decorator.  Re-registering the same class is a no-op; registering a
    *different* class under an existing name raises.
    """
    if not is_dataclass(cls) or not isinstance(cls, type):
        raise WireError(f"{cls!r} is not a dataclass type")
    key = name or _wire_name(cls)
    existing = _WIRE_DATACLASSES.get(key)
    if existing is not None and existing is not cls:
        raise WireError(f"wire name {key!r} already registered to {existing!r}")
    _WIRE_DATACLASSES[key] = cls
    _WIRE_DATACLASSES_B[key.encode("utf-8")] = cls
    _WIRE_CLASS_NAMES.setdefault(cls, key)
    _WIRE_CLASS_NAMEB.setdefault(cls, _WIRE_CLASS_NAMES[cls].encode("utf-8"))
    _WIRE_CLASS_FIELDS[cls] = tuple(f.name for f in fields(cls))
    _WIRE_CLASS_DEC[cls] = _make_field_decoder(cls, _WIRE_CLASS_FIELDS[cls])
    _WIRE_CLASS_GET[cls] = _make_field_getter(_WIRE_CLASS_FIELDS[cls])
    nameb = _WIRE_CLASS_NAMEB[cls]
    _WIRE_CLASS_DEFB[cls] = bytes((len(nameb),)) + nameb
    return cls


def register_wire_enum(cls: Type[enum.Enum], name: Optional[str] = None) -> type:
    """Register an enum for lossless wire encoding (by member name)."""
    if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
        raise WireError(f"{cls!r} is not an Enum type")
    key = name or _wire_name(cls)
    existing = _WIRE_ENUMS.get(key)
    if existing is not None and existing is not cls:
        raise WireError(f"wire name {key!r} already registered to {existing!r}")
    _WIRE_ENUMS[key] = cls
    _WIRE_ENUMS_B[key.encode("utf-8")] = cls
    _WIRE_ENUM_NAMES.setdefault(cls, key)
    _WIRE_ENUM_NAMEB.setdefault(cls, _WIRE_ENUM_NAMES[cls].encode("utf-8"))
    return cls


# ----------------------------------------------------------------------
# The binary wire codec (struct-packed frames)
# ----------------------------------------------------------------------
#
# value := tag byte + payload.  All tags are < 0x20 so the first byte of a
# frame body distinguishes binary from JSON (JSON starts >= 0x20).
#
#   0x00 None        0x01 True         0x02 False
#   0x03 int8        0x04 int64        0x05 bigint  (u32 len + signed BE)
#   0x06 float64
#   0x07 str8        0x08 str32        (len + UTF-8)
#   0x09 bytes8      0x0A bytes32
#   0x0B list8       0x0C list32       (count + items)
#   0x0D tuple8      0x0E tuple32
#   0x0F dict8       0x10 dict32       (count + alternating key, value)
#   0x11 dc-def      (u8 slot + str8 name + fields, positional)
#   0x12 dc-ref      (u8 slot + fields)
#   0x13 enum-def    (u8 slot + str8 name + str8 member)
#   0x14 enum-ref    (u8 slot + str8 member)
#
# Slots intern registered type *names* within one frame: the first
# occurrence defines slot k (def), later occurrences reference it (ref).
# Slot 0xFF means "don't intern" (more than 255 distinct types in one
# frame); a frame is decoded statelessly, so connections need no codec
# handshake or reset logic.

_B_NONE, _B_TRUE, _B_FALSE = 0x00, 0x01, 0x02
_B_INT8, _B_INT64, _B_INTBIG, _B_FLOAT = 0x03, 0x04, 0x05, 0x06
_B_STR8, _B_STR32, _B_BYTES8, _B_BYTES32 = 0x07, 0x08, 0x09, 0x0A
_B_LIST8, _B_LIST32, _B_TUPLE8, _B_TUPLE32 = 0x0B, 0x0C, 0x0D, 0x0E
_B_DICT8, _B_DICT32 = 0x0F, 0x10
_B_DC_DEF, _B_DC_REF, _B_ENUM_DEF, _B_ENUM_REF = 0x11, 0x12, 0x13, 0x14
_NO_SLOT = 0xFF

_S_INT8 = struct.Struct(">Bb")
_S_INT64 = struct.Struct(">Bq")
_S_FLOAT = struct.Struct(">Bd")
_S_U8 = struct.Struct(">BB")
_S_U32 = struct.Struct(">BI")
_S_Q = struct.Struct(">q")
_S_D = struct.Struct(">d")
_S_LEN32 = struct.Struct(">I")


def _encode_sized(out: bytearray, tag8: int, tag32: int, data: bytes) -> None:
    size = len(data)
    if size < 0x100:
        out += _S_U8.pack(tag8, size)
    else:
        out += _S_U32.pack(tag32, size)
    out += data


def _bin_encode(value: Any, out: bytearray, slots: Dict[type, int]) -> None:
    if value is None:
        out.append(_B_NONE)
        return
    cls = type(value)
    if cls is bool:
        out.append(_B_TRUE if value else _B_FALSE)
        return
    if cls is int:
        if -128 <= value < 128:
            out += _S_INT8.pack(_B_INT8, value)
        elif -(2**63) <= value < 2**63:
            out += _S_INT64.pack(_B_INT64, value)
        else:
            data = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            out += _S_U32.pack(_B_INTBIG, len(data))
            out += data
        return
    if cls is float:
        out += _S_FLOAT.pack(_B_FLOAT, value)
        return
    if cls is str:
        _encode_sized(out, _B_STR8, _B_STR32, value.encode("utf-8"))
        return
    if cls is bytes:
        _encode_sized(out, _B_BYTES8, _B_BYTES32, value)
        return
    if cls is list or cls is tuple:
        count = len(value)
        if cls is list:
            tag8, tag32 = _B_LIST8, _B_LIST32
        else:
            tag8, tag32 = _B_TUPLE8, _B_TUPLE32
        if count < 0x100:
            out += _S_U8.pack(tag8, count)
        else:
            out += _S_U32.pack(tag32, count)
        for item in value:
            icls = type(item)
            if icls is int:
                if -128 <= item < 128:
                    out += _S_INT8.pack(_B_INT8, item)
                    continue
            elif icls is str:
                data = item.encode("utf-8")
                if len(data) < 0x100:
                    out += _S_U8.pack(_B_STR8, len(data))
                    out += data
                    continue
            _bin_encode(item, out, slots)
        return
    if cls is dict:
        count = len(value)
        if count < 0x100:
            out += _S_U8.pack(_B_DICT8, count)
        else:
            out += _S_U32.pack(_B_DICT32, count)
        for key, item in value.items():
            _bin_encode(key, out, slots)
            _bin_encode(item, out, slots)
        return
    getter = _WIRE_CLASS_GET.get(cls)
    if getter is not None:
        slot = slots.get(cls)
        if slot is None:
            slot = len(slots) if len(slots) < _NO_SLOT else _NO_SLOT
            if slot != _NO_SLOT:
                slots[cls] = slot
            out += _S_U8.pack(_B_DC_DEF, slot)
            out += _WIRE_CLASS_DEFB[cls]
        else:
            out += _S_U8.pack(_B_DC_REF, slot)
        # Inline the scalar cases: protocol fields are mostly small ints,
        # short strings and bools, and skipping the recursive call for
        # them is most of the encode win on message-dense traffic.
        for item in getter(value):
            icls = type(item)
            if icls is int:
                if -128 <= item < 128:
                    out += _S_INT8.pack(_B_INT8, item)
                    continue
            elif icls is str:
                data = item.encode("utf-8")
                if len(data) < 0x100:
                    out += _S_U8.pack(_B_STR8, len(data))
                    out += data
                    continue
            elif icls is bool:
                out.append(_B_TRUE if item else _B_FALSE)
                continue
            elif item is None:
                out.append(_B_NONE)
                continue
            _bin_encode(item, out, slots)
        return
    if isinstance(value, enum.Enum):
        enum_cls = type(value)
        name_key = _WIRE_ENUM_NAMES.get(enum_cls)
        if name_key is None:
            raise WireError(
                f"enum {_wire_name(enum_cls)!r} is not wire-registered"
            )
        slot = slots.get(enum_cls)
        member = value.name.encode("utf-8")
        if slot is None:
            slot = len(slots) if len(slots) < _NO_SLOT else _NO_SLOT
            if slot != _NO_SLOT:
                slots[enum_cls] = slot
            name = _WIRE_ENUM_NAMEB[enum_cls]
            out += _S_U8.pack(_B_ENUM_DEF, slot)
            out.append(len(name))
            out += name
        else:
            out += _S_U8.pack(_B_ENUM_REF, slot)
        out.append(len(member))
        out += member
        return
    # Slow path: dataclass/enum/list/tuple/dict subclasses and unregistered
    # types get a diagnostic instead of a silently lossy encoding.
    if is_dataclass(value) and not isinstance(value, type):
        raise WireError(
            f"dataclass {_wire_name(cls)!r} is not wire-registered; call "
            f"register_wire_type (repro.live.codec registers the "
            f"built-in algorithm messages)"
        )
    if isinstance(value, (list, tuple, dict, str, bytes, int, float)):
        raise WireError(
            f"cannot binary-encode {cls.__name__} subclass: {value!r}"
        )
    raise WireError(f"cannot wire-encode {cls.__name__}: {value!r}")


def binary_dumps(value: Any) -> bytes:
    """Encode ``value`` to struct-packed binary bytes (the frame body).

    Lossless over the value model in the module docstring: scalars,
    containers, bytes and registered dataclasses and enums.
    """
    out = bytearray()
    _bin_encode(value, out, {})
    return bytes(out)


def binary_dumps_into(value: Any, out: bytearray) -> int:
    """Append the binary encoding of ``value`` to ``out``; returns the
    number of bytes appended.

    The vectored-write building block: callers (the WAL's frame writer,
    the transport's coalescing pump) reserve a length-prefix hole in a
    shared buffer, encode straight into it, and patch the prefix — no
    per-frame ``bytes`` materialization or join.  The appended bytes are
    identical to :func:`binary_dumps`.
    """
    start = len(out)
    _bin_encode(value, out, {})
    return len(out) - start


# Decoding dispatches through a 256-entry handler table — one dict/list
# index instead of a tag comparison chain per value, which is most of the
# decode cost on message-dense frames.  Handlers receive ``pos`` already
# past the tag byte and may assume the dispatcher converts stray
# ``IndexError``/``struct.error`` into truncation ``WireError``s.

def _dec_none(data, pos, slots):
    return None, pos


def _dec_true(data, pos, slots):
    return True, pos


def _dec_false(data, pos, slots):
    return False, pos


def _dec_int8(data, pos, slots):
    value = data[pos]
    return (value - 256 if value >= 128 else value), pos + 1


def _dec_int64(data, pos, slots):
    return _S_Q.unpack_from(data, pos)[0], pos + 8


def _dec_intbig(data, pos, slots):
    (size,) = _S_LEN32.unpack_from(data, pos)
    pos += 4
    raw = data[pos : pos + size]
    if len(raw) != size:
        raise WireError("truncated binary frame (bigint body)")
    return int.from_bytes(raw, "big", signed=True), pos + size


def _dec_float(data, pos, slots):
    return _S_D.unpack_from(data, pos)[0], pos + 8


def _dec_str(data, pos, size):
    raw = data[pos : pos + size]
    if len(raw) != size:
        raise WireError("truncated binary frame (string body)")
    try:
        return raw.decode("utf-8"), pos + size
    except UnicodeDecodeError:
        raise WireError("malformed binary frame (invalid UTF-8)")


def _dec_str8(data, pos, slots):
    return _dec_str(data, pos + 1, data[pos])


def _dec_str32(data, pos, slots):
    return _dec_str(data, pos + 4, _S_LEN32.unpack_from(data, pos)[0])


def _dec_bytes(data, pos, size):
    raw = data[pos : pos + size]
    if len(raw) != size:
        raise WireError("truncated binary frame (bytes body)")
    return bytes(raw), pos + size


def _dec_bytes8(data, pos, slots):
    return _dec_bytes(data, pos + 1, data[pos])


def _dec_bytes32(data, pos, slots):
    return _dec_bytes(data, pos + 4, _S_LEN32.unpack_from(data, pos)[0])


# The two decode loops below (container items, dataclass fields) inline
# the str8/int8/none cases instead of going through the dispatcher: short
# strings and small ints make up most values in protocol traffic, and the
# duplication removes two function calls per value on that fast path.

def _dec_items(data, pos, slots, count):
    items = []
    append = items.append
    decode = _bin_decode
    for _ in range(count):
        tag = data[pos]
        if tag == _B_STR8:
            size = data[pos + 1]
            start = pos + 2
            pos = start + size
            raw = data[start:pos]
            if len(raw) != size:
                raise WireError("truncated binary frame (string body)")
            try:
                append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                raise WireError("malformed binary frame (invalid UTF-8)")
            continue
        if tag == _B_INT8:
            value = data[pos + 1]
            append(value - 256 if value >= 128 else value)
            pos += 2
            continue
        if tag == _B_NONE:
            append(None)
            pos += 1
            continue
        if tag == _B_INT64:
            append(_S_Q.unpack_from(data, pos + 1)[0])
            pos += 9
            continue
        item, pos = decode(data, pos, slots)
        append(item)
    return items, pos


def _dec_list8(data, pos, slots):
    return _dec_items(data, pos + 1, slots, data[pos])


def _dec_list32(data, pos, slots):
    return _dec_items(data, pos + 4, slots, _S_LEN32.unpack_from(data, pos)[0])


def _dec_tuple8(data, pos, slots):
    items, pos = _dec_items(data, pos + 1, slots, data[pos])
    return tuple(items), pos


def _dec_tuple32(data, pos, slots):
    items, pos = _dec_items(data, pos + 4, slots, _S_LEN32.unpack_from(data, pos)[0])
    return tuple(items), pos


def _dec_pairs(data, pos, slots, count):
    pairs = {}
    decode = _bin_decode
    for _ in range(count):
        key, pos = decode(data, pos, slots)
        item, pos = decode(data, pos, slots)
        try:
            pairs[key] = item
        except TypeError:
            # A corrupt frame can decode an unhashable value into key
            # position; that is malformed input, not a crash.
            raise WireError(f"unhashable dict key of type {type(key).__name__}")
    return pairs, pos


def _dec_dict8(data, pos, slots):
    return _dec_pairs(data, pos + 1, slots, data[pos])


def _dec_dict32(data, pos, slots):
    return _dec_pairs(data, pos + 4, slots, _S_LEN32.unpack_from(data, pos)[0])


def _dec_dc_def(data, pos, slots):
    slot = data[pos]
    name_len = data[pos + 1]
    pos += 2
    cls = _WIRE_DATACLASSES_B.get(data[pos : pos + name_len])
    pos += name_len
    if cls is None:
        name = data[pos - name_len : pos].decode("utf-8", "replace")
        raise WireError(f"unknown wire dataclass {name!r}")
    if slot != _NO_SLOT:
        if slot == len(slots):  # encoders assign slots in order
            slots.append(cls)
        else:
            while len(slots) <= slot:
                slots.append(None)
            slots[slot] = cls
    return _WIRE_CLASS_DEC[cls](data, pos, slots)


def _dec_dc_ref(data, pos, slots):
    slot = data[pos]
    try:
        dec = _WIRE_CLASS_DEC[slots[slot]]
    except (IndexError, KeyError):  # missing slot, or one holding an enum
        raise WireError(f"binary frame references undefined slot {slot}")
    return dec(data, pos + 1, slots)


def _dec_enum_member(data, pos, cls):
    member_len = data[pos]
    pos += 1
    member = data[pos : pos + member_len].decode("utf-8")
    pos += member_len
    try:
        return cls[member], pos
    except KeyError:
        raise WireError(f"unknown member {member!r} of {cls!r}")


def _dec_enum_def(data, pos, slots):
    slot = data[pos]
    name_len = data[pos + 1]
    pos += 2
    cls = _WIRE_ENUMS_B.get(data[pos : pos + name_len])
    pos += name_len
    if cls is None:
        name = data[pos - name_len : pos].decode("utf-8", "replace")
        raise WireError(f"unknown wire enum {name!r}")
    if slot != _NO_SLOT:
        while len(slots) <= slot:
            slots.append(None)
        slots[slot] = cls
    return _dec_enum_member(data, pos, cls)


def _dec_enum_ref(data, pos, slots):
    slot = data[pos]
    try:
        cls = slots[slot]
    except IndexError:
        cls = None
    if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
        raise WireError(f"binary frame references undefined slot {slot}")
    return _dec_enum_member(data, pos + 1, cls)


_B_DECODERS: List[Any] = [None] * 256
for _tag, _handler in {
    _B_NONE: _dec_none,
    _B_TRUE: _dec_true,
    _B_FALSE: _dec_false,
    _B_INT8: _dec_int8,
    _B_INT64: _dec_int64,
    _B_INTBIG: _dec_intbig,
    _B_FLOAT: _dec_float,
    _B_STR8: _dec_str8,
    _B_STR32: _dec_str32,
    _B_BYTES8: _dec_bytes8,
    _B_BYTES32: _dec_bytes32,
    _B_LIST8: _dec_list8,
    _B_LIST32: _dec_list32,
    _B_TUPLE8: _dec_tuple8,
    _B_TUPLE32: _dec_tuple32,
    _B_DICT8: _dec_dict8,
    _B_DICT32: _dec_dict32,
    _B_DC_DEF: _dec_dc_def,
    _B_DC_REF: _dec_dc_ref,
    _B_ENUM_DEF: _dec_enum_def,
    _B_ENUM_REF: _dec_enum_ref,
}.items():
    _B_DECODERS[_tag] = _handler
del _tag, _handler


def _bin_decode(data: bytes, pos: int, slots: List[Any]) -> Tuple[Any, int]:
    try:
        handler = _B_DECODERS[data[pos]]
    except IndexError:
        raise WireError("truncated binary frame (missing tag)")
    if handler is None:
        raise WireError(f"malformed binary frame (tag 0x{data[pos]:02x})")
    try:
        return handler(data, pos + 1, slots)
    except (struct.error, IndexError):
        raise WireError("truncated binary frame")


def binary_loads(data: bytes) -> Any:
    """Decode frame-body bytes produced by :func:`binary_dumps`."""
    if not data:
        raise WireError("empty binary frame")
    # Inline the top-level dispatch (one call saved per frame; frames on
    # the peer links are mostly single small messages).
    handler = _B_DECODERS[data[0]]
    if handler is None:
        raise WireError(f"malformed binary frame (tag 0x{data[0]:02x})")
    try:
        value, pos = handler(data, 1, [])
    except (struct.error, IndexError):
        raise WireError("truncated binary frame")
    if pos != len(data):
        raise WireError(f"binary frame has {len(data) - pos} trailing bytes")
    return value

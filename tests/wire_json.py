"""The tagged-JSON reference codec for the wire type registry.

A *lossless* JSON encoding of exactly the value model the binary codec
(:func:`repro.sim.serialize.binary_dumps`) ships between live nodes: the
codec tests use it as an independent second implementation to check the
binary codec against, and as a source of well-formed frames a live port
must refuse (JSON bodies start with printable ASCII, binary tags are all
``< 0x20``).  Registered dataclasses decode through their constructor.

Encoded forms ("!" is the type tag, reserved at the top level of every
encoded dict):

  scalars                  -> themselves (None, bool, int, float, str)
  list                     -> JSON array of encoded items
  tuple                    -> {"!": "t", "v": [...]}
  dict                     -> {"!": "d", "v": [[key, value], ...]}
  bytes                    -> {"!": "b", "v": "<base64>"}
  registered dataclass     -> {"!": "c", "t": "<name>", "f": {field: ...}}
  registered enum member   -> {"!": "e", "t": "<name>", "v": "<member>"}
"""

from __future__ import annotations

import base64
import enum
import json
from dataclasses import fields, is_dataclass
from typing import Any

from repro.sim.serialize import _WIRE_DATACLASSES, _WIRE_ENUMS, WireError, _wire_name


def to_wire(value: Any) -> Any:
    """Encode ``value`` into the JSON-safe wire form (lossless)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [to_wire(v) for v in value]
    if isinstance(value, tuple):
        return {"!": "t", "v": [to_wire(v) for v in value]}
    if isinstance(value, dict):
        return {"!": "d", "v": [[to_wire(k), to_wire(v)] for k, v in value.items()]}
    if isinstance(value, bytes):
        return {"!": "b", "v": base64.b64encode(value).decode("ascii")}
    if isinstance(value, enum.Enum):
        key = _wire_name(type(value))
        if key not in _WIRE_ENUMS:
            raise WireError(f"enum {key!r} is not wire-registered")
        return {"!": "e", "t": key, "v": value.name}
    if is_dataclass(value) and not isinstance(value, type):
        key = _wire_name(type(value))
        if key not in _WIRE_DATACLASSES:
            raise WireError(f"dataclass {key!r} is not wire-registered")
        return {
            "!": "c",
            "t": key,
            "f": {f.name: to_wire(getattr(value, f.name)) for f in fields(value)},
        }
    raise WireError(f"cannot wire-encode {type(value).__name__}: {value!r}")


def from_wire(value: Any) -> Any:
    """Decode the wire form produced by :func:`to_wire`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [from_wire(v) for v in value]
    if isinstance(value, dict):
        tag = value.get("!")
        if tag == "t":
            return tuple(from_wire(v) for v in value["v"])
        if tag == "d":
            return {from_wire(k): from_wire(v) for k, v in value["v"]}
        if tag == "b":
            return base64.b64decode(value["v"])
        if tag == "e":
            cls = _WIRE_ENUMS.get(value["t"])
            if cls is None:
                raise WireError(f"unknown wire enum {value['t']!r}")
            return cls[value["v"]]
        if tag == "c":
            dc = _WIRE_DATACLASSES.get(value["t"])
            if dc is None:
                raise WireError(f"unknown wire dataclass {value['t']!r}")
            return dc(**{k: from_wire(v) for k, v in value["f"].items()})
        raise WireError(f"malformed wire dict (tag {tag!r}): {value!r}")
    raise WireError(f"cannot wire-decode {type(value).__name__}: {value!r}")


def wire_dumps(value: Any) -> bytes:
    """Encode ``value`` to compact UTF-8 JSON bytes."""
    return json.dumps(to_wire(value), separators=(",", ":")).encode("utf-8")


def wire_loads(data: bytes) -> Any:
    """Decode bytes produced by :func:`wire_dumps`.

    Any malformed input — invalid UTF-8 or JSON, a structurally broken
    wire dict (missing ``v``/``t``/``f`` slots, bad base64, wrong field
    names) — raises :class:`WireError`, matching the binary codec.
    """
    try:
        return from_wire(json.loads(data.decode("utf-8")))
    except WireError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and bad base64 alike.
        raise WireError(f"malformed JSON frame: {exc}") from None

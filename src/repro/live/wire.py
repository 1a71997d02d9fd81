"""Length-prefixed framing over asyncio streams, in one binary encoding.

Every frame on a live connection — peer protocol traffic and KV client
requests alike — is a 4-byte big-endian length followed by that many bytes
of frame body: the struct-packed, type-tagged encoding of
:func:`~repro.sim.serialize.binary_dumps`.  A body that does not decode
raises :class:`~repro.sim.serialize.WireError`, and the receiver drops the
connection that sent it.  Frames are size-capped so a corrupt or
malicious length prefix cannot make a node allocate unbounded memory.

Peer links carry three kinds of frame (:func:`encode_peer_frame` /
:func:`parse_peer_frame`), each a short tuple tagged by its first
element: ``("h", pid)`` opens a connection, ``("p",)`` keeps an idle one
alive, and ``("m", ts, payload, shard)`` carries one message for the
consensus group ``shard`` — a sharded node multiplexes all its groups
over one connection per peer.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Any, Optional, Tuple

from repro.sim.serialize import binary_dumps, binary_dumps_into, binary_loads

#: Hard cap on one frame's body (a full InstallSnapshot fits comfortably).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")

#: Length-prefix hole reserved in a shared buffer and patched once the
#: body is encoded in place (see :func:`frame_bytes_into`).
_LEN_PAD = b"\x00" * _LEN.size

#: The name of the one frame-body encoding.
CODEC = "binary"

#: Decode one frame body; raises :class:`~repro.sim.serialize.WireError`
#: on anything that is not one.
decode_body = binary_loads


class FrameError(ConnectionError):
    """The stream violated the framing protocol (oversized or truncated)."""


def get_codec(name: Optional[str] = None) -> str:
    """The frame encoding, :data:`CODEC`; there is no other.

    ``bench/micro.py`` still resolves a codec here and hands it to
    :func:`encode_peer_frame`, which ignores it.
    """
    if name not in (None, CODEC):
        raise ValueError(f"unknown wire codec {name!r} (the only one is {CODEC!r})")
    return CODEC


def enable_nodelay(writer: asyncio.StreamWriter) -> None:
    """Disable Nagle on the connection carrying ``writer``.

    Frames here are small request/response pairs; leaving Nagle on lets
    it interact with delayed ACKs into multi-ms stalls per round trip,
    which dominates commit latency on a LAN.
    """
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (OSError, ValueError):  # pragma: no cover - exotic transports
            pass


def frame_bytes(value: Any) -> bytes:
    """Encode ``value`` into one complete frame (length prefix included).

    This is the building block for coalesced writes: callers concatenate
    several frames and hand the transport one buffer.
    """
    body = binary_dumps(value)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(body)) + body


def frame_bytes_into(out: bytearray, value: Any) -> int:
    """Append one complete frame to ``out``; returns its byte length.

    The vectored-write path: a pre-sized length-prefix hole is reserved
    in the shared buffer, the body is encoded straight into it, and the
    prefix is patched — so a coalescing loop builds one contiguous write
    buffer with no per-frame ``bytes`` allocation or join.
    """
    at = len(out)
    out += _LEN_PAD
    binary_dumps_into(value, out)
    size = len(out) - at - _LEN.size
    if size > MAX_FRAME_BYTES:
        del out[at:]
        raise FrameError(f"frame of {size} bytes exceeds {MAX_FRAME_BYTES}")
    _LEN.pack_into(out, at, size)
    return _LEN.size + size


async def write_frame(writer: asyncio.StreamWriter, value: Any) -> None:
    """Encode ``value`` and write one frame, draining the transport."""
    writer.write(frame_bytes(value))
    await writer.drain()


async def read_frame_bytes(reader: asyncio.StreamReader) -> bytes:
    """Read one raw frame body (length-validated, not decoded)."""
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})")
    return await reader.readexactly(length)


async def read_frame(reader: asyncio.StreamReader) -> Any:
    """Read one frame and decode it.

    Raises :class:`asyncio.IncompleteReadError` on clean EOF between frames
    (connection closed), :class:`FrameError` on protocol violations and
    :class:`~repro.sim.serialize.WireError` on a body that does not decode.
    """
    return decode_body(await read_frame_bytes(reader))


# ----------------------------------------------------------------------
# Peer frames
# ----------------------------------------------------------------------

_UNRECOGNIZED: Tuple[None, None, None, int] = (None, None, None, 0)


def _peer_frame_value(
    kind: str, payload: Any, ts: Optional[float], pid: Optional[int], shard: int
) -> Any:
    """The frame value for one peer-link frame (``hello``/``msg``/``ping``)."""
    if kind == "msg":
        return ("m", ts, payload, shard)
    if kind == "ping":
        return ("p",)
    if kind == "hello":
        return ("h", pid)
    raise ValueError(f"unknown peer frame kind {kind!r}")


def encode_peer_frame(
    kind: str,
    _codec: Any = None,
    *,
    payload: Any = None,
    ts: Optional[float] = None,
    pid: Optional[int] = None,
    shard: int = 0,
) -> bytes:
    """One complete peer-link frame as standalone bytes (``_codec`` is
    ignored; see :func:`get_codec`)."""
    return frame_bytes(_peer_frame_value(kind, payload, ts, pid, shard))


def encode_peer_frame_into(
    out: bytearray,
    kind: str,
    *,
    payload: Any = None,
    ts: Optional[float] = None,
    pid: Optional[int] = None,
    shard: int = 0,
) -> int:
    """Append one peer-link frame to a shared write buffer; returns its
    byte length (see :func:`frame_bytes_into`)."""
    return frame_bytes_into(out, _peer_frame_value(kind, payload, ts, pid, shard))


def parse_peer_frame(frame: Any) -> Tuple[Optional[str], Any, Any, int]:
    """Normalize a decoded peer frame to ``(kind, field, field, shard)``.

    Returns ``("msg", payload, ts, shard)``, ``("ping", None, None, 0)``,
    ``("hello", pid, None, 0)``, or ``(None, None, None, 0)`` for anything
    unrecognized (the transport skips those, tolerating future kinds).  A
    malformed shard tag (non-int or negative) marks the whole frame
    unrecognized rather than misrouting it.
    """
    if isinstance(frame, tuple) and frame:
        tag = frame[0]
        if tag == "m" and len(frame) == 4:
            shard = frame[3]
            if isinstance(shard, int) and not isinstance(shard, bool) and shard >= 0:
                return "msg", frame[2], frame[1], shard
        elif tag == "p":
            return "ping", None, None, 0
        elif tag == "h" and len(frame) == 2:
            return "hello", frame[1], None, 0
    return _UNRECOGNIZED

"""Wire formats for the push-delivery front-end (stdlib only).

Three small protocols share this module; all of them move JSON:

**Length-framed ingest** — the batch protocol ``repro push`` and shard
routers speak over TCP.  A frame is a 4-byte big-endian length followed
by that many bytes of UTF-8 JSON.  Client frames::

    {"type": "hello", "proto": 1}
    {"type": "batch", "seq": 3, "events": [{"ts": 1, "eid": "e1",
                                            "attrs": {"L": "C"}}, ...]}
    {"type": "ping"}      {"type": "bye"}

Server frames::

    {"type": "hello", "proto": 1, "server": "repro-push/1"}
    {"type": "ack", "seq": 3, "accepted": 128, "queue_depth": 2}
    {"type": "slow_down", "seq": 3, "retry_after_ms": 250, ...}
    {"type": "draining"}  {"type": "pong"}  {"type": "error", "error": ...}

``slow_down`` is the framed twin of HTTP 429: the batch was **not**
enqueued and must be retried after the hinted delay (explicit
backpressure — the server never buffers beyond its bounded queue).

**Server-sent events** — match fan-out for ``GET /subscribe``.  Every
delivered match is one SSE event whose ``id:`` is the subscriber's
monotonic cursor, so the standard ``Last-Event-ID`` reconnect header is
the resume token.  Non-match notices use named event types (``gap``,
``aggregates``, ``drain``, heartbeat comments).

**WebSocket** — the same payloads as one JSON text frame per delivery,
for subscribers behind proxies that buffer SSE.  Only the server side
of RFC 6455 is implemented (plus the masked client frames the tests and
``repro tail --ws`` need): text/ping/pong/close, no fragmentation, no
extensions.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
from math import isfinite
from typing import Any, Dict, Iterable, List, Optional

from ..core.events import Event

__all__ = [
    "PROTO_VERSION", "MAX_FRAME_BYTES",
    "event_to_json", "event_from_json", "events_from_json",
    "encode_frame", "decode_frames", "FrameDecoder", "FrameError",
    "sse_format", "sse_frame", "parse_sse_stream",
    "ws_accept_key", "ws_encode", "ws_decode", "WSFrame",
]

#: Ingest protocol version spoken by both ends' ``hello`` frames.
PROTO_VERSION = 1

#: Hard ceiling on one frame's JSON body — a malformed length prefix
#: must not make the server allocate gigabytes.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: RFC 6455 §1.3 handshake GUID.
_WS_GUID = b"258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


class FrameError(ValueError):
    """A malformed ingest frame (bad length, bad JSON, over the cap)."""


# ----------------------------------------------------------------------
# Event JSON codec
# ----------------------------------------------------------------------
def event_to_json(event: Event) -> Dict[str, Any]:
    """One event as the protocol's JSON object."""
    return {"ts": event.ts, "eid": event.eid,
            "attrs": dict(event.attributes)}


def event_from_json(obj: Dict[str, Any]) -> Event:
    """Rebuild an :class:`Event` from its JSON object.

    This is the door: a timestamp the matcher cannot order or subtract
    (a string, ``null``, a boolean, ``NaN``, ``Infinity``) would start
    an instance that never expires and fails every later batch of every
    producer, so it is refused here with a :class:`FrameError`.
    """
    if not isinstance(obj, dict) or "ts" not in obj:
        raise FrameError(f"event object needs a 'ts' field: {obj!r}")
    ts = obj["ts"]
    attrs = obj.get("attrs")
    # type(), not isinstance(): True and False are ints.
    if type(ts) is not int and not (type(ts) is float and isfinite(ts)):
        raise FrameError(f"event 'ts' must be a finite number: {obj!r}")
    if attrs is not None and type(attrs) is not dict:
        raise FrameError(f"event 'attrs' must be an object: {obj!r}")
    try:
        return Event(ts=ts, attrs=attrs, eid=obj.get("eid"))
    except (TypeError, ValueError) as exc:  # unhashable value, reserved 'T'
        raise FrameError(f"unusable event {obj!r}: {exc}") from exc


def events_from_json(objs: Any) -> List[Event]:
    """Decode the ``events`` field of a batch: a list of event objects,
    anything else is a :class:`FrameError`."""
    if type(objs) is not list:
        raise FrameError(f"'events' must be a list, got {objs!r}")
    return [event_from_json(obj) for obj in objs]


# ----------------------------------------------------------------------
# Length-framed JSON (ingest TCP protocol)
# ----------------------------------------------------------------------
def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialise one frame: 4-byte big-endian length + JSON body."""
    body = json.dumps(payload, separators=(",", ":"),
                      default=str).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte cap")
    return _LENGTH.pack(len(body)) + body


class FrameDecoder:
    """Incremental decoder: feed bytes, collect complete frames.

    Transport-agnostic — the asyncio server feeds it from
    ``StreamReader.read`` chunks, the blocking client from
    ``socket.recv``.
    """

    __slots__ = ("_buffer", "max_frame_bytes")

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self._buffer = bytearray()
        self.max_frame_bytes = max_frame_bytes

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Consume ``data``; return every frame completed by it."""
        self._buffer.extend(data)
        frames: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return frames
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                raise FrameError(
                    f"announced frame of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte cap")
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return frames
            body = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise FrameError(f"undecodable frame body: {exc}") from exc
            if not isinstance(payload, dict) or "type" not in payload:
                raise FrameError(f"frame is not a typed object: {payload!r}")
            frames.append(payload)


def decode_frames(data: bytes) -> List[Dict[str, Any]]:
    """Decode a byte string holding zero or more complete frames."""
    return FrameDecoder().feed(data)


# ----------------------------------------------------------------------
# Server-sent events
# ----------------------------------------------------------------------
def sse_format(data: Dict[str, Any], event_id: Optional[int] = None,
               event: Optional[str] = None) -> bytes:
    """One SSE event block: optional ``id:``/``event:``, JSON ``data:``."""
    return sse_frame(json.dumps(data, separators=(",", ":"), default=str),
                     event_id, event)


def sse_frame(body: str, event_id: Optional[int] = None,
              event: Optional[str] = None) -> bytes:
    """:func:`sse_format` around JSON text that is already rendered
    (one line: JSON escapes every newline)."""
    lines = []
    if event is not None:
        lines.append(f"event: {event}")
    if event_id is not None:
        lines.append(f"id: {event_id}")
    lines.append(f"data: {body}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def parse_sse_stream(lines: Iterable[str]):
    """Yield ``(event_type, event_id, data_dict)`` from SSE text lines.

    ``event_type`` defaults to ``"message"``; comment lines (``:``
    heartbeats) are skipped; ``event_id`` is ``None`` until the stream
    sets one.  The iterator ends with the underlying line source.
    """
    event_type = "message"
    event_id: Optional[str] = None
    data_lines: List[str] = []
    for raw in lines:
        line = raw.rstrip("\r\n")
        if line.startswith(":"):
            continue
        if not line:
            if data_lines:
                try:
                    payload = json.loads("\n".join(data_lines))
                except json.JSONDecodeError:
                    payload = {"raw": "\n".join(data_lines)}
                yield event_type, event_id, payload
            event_type, data_lines = "message", []
            continue
        field, _, value = line.partition(":")
        value = value[1:] if value.startswith(" ") else value
        if field == "event":
            event_type = value
        elif field == "id":
            event_id = value
        elif field == "data":
            data_lines.append(value)


# ----------------------------------------------------------------------
# WebSocket (RFC 6455, server side + test client)
# ----------------------------------------------------------------------
class WSFrame:
    """One decoded WebSocket frame."""

    __slots__ = ("opcode", "payload")

    TEXT, CLOSE, PING, PONG = 0x1, 0x8, 0x9, 0xA

    def __init__(self, opcode: int, payload: bytes):
        self.opcode = opcode
        self.payload = payload

    def __repr__(self) -> str:
        return f"WSFrame(opcode=0x{self.opcode:x}, {len(self.payload)}B)"


def ws_accept_key(client_key: str) -> str:
    """``Sec-WebSocket-Accept`` for a handshake's ``Sec-WebSocket-Key``."""
    digest = hashlib.sha1(client_key.strip().encode("ascii")
                          + _WS_GUID).digest()
    return base64.b64encode(digest).decode("ascii")


def ws_encode(payload: bytes, opcode: int = WSFrame.TEXT,
              mask: bool = False) -> bytes:
    """Encode one unfragmented frame (masked for client→server)."""
    header = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header.extend(struct.pack(">H", length))
    else:
        header.append(mask_bit | 127)
        header.extend(struct.pack(">Q", length))
    if mask:
        key = b"\x00\x11\x22\x33"  # deterministic; fine for loopback tests
        header.extend(key)
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(header) + payload


def ws_decode(buffer: bytearray) -> Optional[WSFrame]:
    """Pop one complete frame off ``buffer`` (``None`` if incomplete)."""
    if len(buffer) < 2:
        return None
    opcode = buffer[0] & 0x0F
    masked = bool(buffer[1] & 0x80)
    length = buffer[1] & 0x7F
    offset = 2
    if length == 126:
        if len(buffer) < 4:
            return None
        (length,) = struct.unpack_from(">H", buffer, 2)
        offset = 4
    elif length == 127:
        if len(buffer) < 10:
            return None
        (length,) = struct.unpack_from(">Q", buffer, 2)
        offset = 10
    key = b""
    if masked:
        if len(buffer) < offset + 4:
            return None
        key = bytes(buffer[offset:offset + 4])
        offset += 4
    if len(buffer) < offset + length:
        return None
    payload = bytes(buffer[offset:offset + length])
    del buffer[:offset + length]
    if masked:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return WSFrame(opcode, payload)

"""Wire formats for the push-delivery front-end (stdlib only).

Two small protocols share this module, one each way; both move JSON:

**Length-framed ingest** — the one way events come in: the batch
protocol ``repro push`` and shard routers speak over TCP.  A frame is
a 4-byte big-endian length followed by that many bytes of UTF-8 JSON.
Client frames::

    {"type": "hello", "proto": 1}
    {"type": "batch", "seq": 3, "events": [{"ts": 1, "eid": "e1",
                                            "attrs": {"L": "C"}}, ...]}
    {"type": "ping"}      {"type": "bye"}

Server frames::

    {"type": "hello", "proto": 1, "server": "repro-push/1"}
    {"type": "ack", "seq": 3, "accepted": 128, "queue_depth": 2}
    {"type": "slow_down", "seq": 3, "retry_after_ms": 250, ...}
    {"type": "draining"}  {"type": "pong"}  {"type": "error", "error": ...}

``slow_down`` means the batch was **not** enqueued and must be retried
after the hinted delay (explicit backpressure — the server never
buffers beyond its bounded queue).

**Server-sent events** — the one way matches go out: the fan-out for
``GET /subscribe``.  Every delivered match is one SSE event whose
``id:`` is the subscriber's monotonic cursor, so the standard
``Last-Event-ID`` reconnect header is the resume token.  Non-match notices use named event types (``gap``,
``aggregates``, ``drain``, heartbeat comments).
"""

from __future__ import annotations

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
]

#: Ingest protocol version spoken by both ends' ``hello`` frames.
PROTO_VERSION = 1

#: Hard ceiling on one frame's JSON body — a malformed length prefix
#: must not make the server allocate gigabytes.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LENGTH = struct.Struct(">I")


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


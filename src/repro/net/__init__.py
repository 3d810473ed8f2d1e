"""Durable push delivery: backpressured ingest + resumable subscriptions.

``repro.net`` is the serving front-end around the streaming matchers:

* :mod:`~repro.net.protocol` — the wire formats, one each way
  (length-framed JSON ingest, SSE delivery);
* :mod:`~repro.net.hub` — :class:`SubscriptionHub`, the transport-
  agnostic fan-out core: monotonic per-subscriber cursors, a bounded
  replay ring spilling to the durable
  :class:`~repro.resilience.delivery.DeliveryLog`, match-id dedup for
  exactly-once redelivery, slow-consumer policies (``disconnect`` /
  ``shed`` / ``degrade``) and graceful drain with terminal resume
  tokens;
* :mod:`~repro.net.server` — :class:`PushServer`, the asyncio listener
  (framed TCP ingest with ``slow_down`` backpressure, ``GET /subscribe``
  SSE with ``Last-Event-ID`` resume, ``POST /quitquitquit``);
* :mod:`~repro.net.client` — the blocking clients behind ``repro push``
  and ``repro tail``.

See ``docs/serving.md`` for the protocol walk-through and the
delivered-or-persisted drain guarantees.
"""

from .client import (PushRejected, ServerDraining, push_events,
                     request_quit, subscribe_sse)
from .hub import (DEFAULT_QUEUE, DEFAULT_RING, POLICIES, DeliveredEntry,
                  Subscriber, SubscriptionHub)
from .protocol import (MAX_FRAME_BYTES, PROTO_VERSION, FrameDecoder,
                       FrameError, decode_frames, encode_frame,
                       event_from_json, event_to_json, events_from_json,
                       parse_sse_stream, sse_format)
from .server import PushServer

__all__ = [
    "SubscriptionHub", "Subscriber", "DeliveredEntry",
    "POLICIES", "DEFAULT_QUEUE", "DEFAULT_RING",
    "PushServer",
    "push_events", "subscribe_sse",
    "request_quit", "ServerDraining", "PushRejected",
    "PROTO_VERSION", "MAX_FRAME_BYTES",
    "FrameDecoder", "FrameError", "encode_frame", "decode_frames",
    "event_to_json", "event_from_json", "events_from_json",
    "sse_format", "parse_sse_stream",
]

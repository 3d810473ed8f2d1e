"""Blocking clients for the push front-end (``repro tail`` / ``repro push``).

Stdlib-only counterparts to :mod:`repro.net.server`:

* :func:`push_events` — the length-framed ingest client.  Sends event
  batches, honours ``slow_down`` backpressure by sleeping out the
  hinted delay and resending (bounded retries), and reports a draining
  server via :exc:`ServerDraining` so callers can fail over.
* :func:`subscribe_sse` — a resumable SSE tail.  Yields every delivered
  event and transparently reconnects with ``Last-Event-ID`` after
  connection loss, so a ``kill -9``'d and restarted server resumes the
  stream gap-free (the hub's match-id dedup makes redelivery safe).
* :func:`request_quit` — the one-shot graceful-drain request.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple
from urllib.parse import urlencode

from .protocol import (PROTO_VERSION, FrameDecoder, FrameError,
                       encode_frame, event_to_json, parse_sse_stream)

__all__ = ["push_events", "subscribe_sse", "request_quit",
           "ServerDraining", "PushRejected"]


class ServerDraining(RuntimeError):
    """The server refused the batch because it is draining."""


class PushRejected(RuntimeError):
    """The server kept answering ``slow_down`` past the retry budget."""


# ----------------------------------------------------------------------
# Framed ingest client
# ----------------------------------------------------------------------
def _next_frame(sock: socket.socket, decoder: FrameDecoder,
                pending: List[dict]) -> dict:
    while not pending:
        data = sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the ingest connection")
        pending.extend(decoder.feed(data))
    return pending.pop(0)


def push_events(host: str, port: int, events: Iterable, *,
                batch_size: int = 256, timeout: float = 10.0,
                max_retries: int = 60) -> int:
    """Send events over the framed protocol; returns events accepted.

    Each batch waits for the server's answer: ``ack`` advances,
    ``slow_down`` sleeps out ``retry_after_ms`` and resends (up to
    ``max_retries`` per batch — the producer side of backpressure),
    ``draining`` raises :exc:`ServerDraining`.  The client speaks first
    (the server sniffs HTTP vs framed from the opening bytes).
    """
    events = list(events)
    decoder = FrameDecoder()
    pending: List[dict] = []
    accepted = 0
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(encode_frame({"type": "hello", "proto": PROTO_VERSION}))
        hello = _next_frame(sock, decoder, pending)
        if hello.get("type") != "hello":
            raise FrameError(f"expected server hello, got {hello!r}")
        seq = 0
        for start in range(0, len(events), batch_size):
            batch = [event_to_json(e) for e in events[start:start + batch_size]]
            seq += 1
            frame = encode_frame({"type": "batch", "seq": seq,
                                  "events": batch})
            for attempt in range(max_retries + 1):
                sock.sendall(frame)
                reply = _next_frame(sock, decoder, pending)
                kind = reply.get("type")
                if kind == "ack":
                    accepted += reply.get("accepted", len(batch))
                    break
                if kind == "slow_down":
                    time.sleep(reply.get("retry_after_ms", 250) / 1000.0)
                    continue
                if kind == "draining":
                    raise ServerDraining(
                        f"server draining after {accepted} events")
                raise FrameError(f"unexpected reply {reply!r}")
            else:
                raise PushRejected(
                    f"batch {seq} refused {max_retries} times")
        sock.sendall(encode_frame({"type": "bye"}))
    return accepted


def request_quit(host: str, port: int, timeout: float = 5.0) -> Dict[str, Any]:
    """``POST /quitquitquit`` — ask the server to drain gracefully."""
    status, _, payload = _http_request(host, port, "POST", "/quitquitquit",
                                       b"", timeout=timeout)
    if status != 200:
        raise RuntimeError(f"quit refused with HTTP {status}")
    return json.loads(payload.decode("utf-8") or "{}")


def _http_request(host: str, port: int, method: str, path: str,
                  body: bytes, timeout: float) -> Tuple[int, dict, bytes]:
    with socket.create_connection((host, port), timeout=timeout) as sock:
        head = (f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
        sock.sendall(head.encode("latin-1") + body)
        raw = bytearray()
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw.extend(chunk)
    head_bytes, _, payload = bytes(raw).partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload


# ----------------------------------------------------------------------
# SSE subscription client
# ----------------------------------------------------------------------
def subscribe_sse(host: str, port: int, *, resume: Optional[int] = None,
                  patterns: Iterable[str] = (), tenants: Iterable[str] = (),
                  subscriber_id: Optional[str] = None,
                  policy: Optional[str] = None,
                  queue_size: Optional[int] = None,
                  reconnect: bool = True, reconnect_delay: float = 0.2,
                  max_reconnects: int = 100, stop_on_drain: bool = True,
                  read_timeout: float = 60.0,
                  connect_timeout: float = 5.0
                  ) -> Iterator[Dict[str, Any]]:
    """Tail the match stream; yields ``{"event", "id", "data"}`` dicts.

    Maintains the resume cursor across reconnects: after any connection
    loss (server killed, idle disconnect, slow-consumer drop) the next
    attempt carries ``Last-Event-ID`` so no match is lost or repeated.
    Connection-refused attempts count against ``max_reconnects`` with
    ``reconnect_delay`` between them, riding out a supervisor restart.

    Terminal events: ``drain`` ends the generator when ``stop_on_drain``
    (the data carries the resume token); a ``disconnect`` notice
    triggers a resumed reconnect rather than ending the stream.
    """
    query = {key: value for key, value in (
        ("patterns", ",".join(patterns)), ("tenants", ",".join(tenants)),
        ("id", subscriber_id), ("policy", policy),
        ("queue", str(queue_size) if queue_size else None)) if value}
    target = "/subscribe" + ("?" + urlencode(query) if query else "")
    last_id: Optional[int] = resume
    failures = 0
    while True:
        try:
            sock = socket.create_connection((host, port),
                                            timeout=connect_timeout)
        except OSError:
            failures += 1
            if not reconnect or failures > max_reconnects:
                return
            time.sleep(reconnect_delay)
            continue
        try:
            sock.settimeout(read_timeout)
            head = (f"GET {target} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                    f"Accept: text/event-stream\r\n")
            if last_id is not None:
                head += f"Last-Event-ID: {last_id}\r\n"
            head += "Connection: close\r\n\r\n"
            sock.sendall(head.encode("latin-1"))
            stream = sock.makefile("r", encoding="utf-8", newline="\n")
            status_line = stream.readline()
            if "200" not in status_line.split(" ", 2)[1:2]:
                raise ConnectionError(f"subscribe refused: "
                                      f"{status_line.strip()!r}")
            while stream.readline().strip():
                pass  # drain response headers
            failures = 0
            for event_type, event_id, data in parse_sse_stream(stream):
                if event_id is not None:
                    last_id = int(event_id)
                yield {"event": event_type, "id": event_id, "data": data}
                if event_type == "drain":
                    if stop_on_drain:
                        return
                    break
        except (OSError, ConnectionError, ValueError):
            pass
        finally:
            try:
                sock.close()
            except OSError:
                pass
        failures += 1
        if not reconnect or failures > max_reconnects:
            return
        time.sleep(reconnect_delay)


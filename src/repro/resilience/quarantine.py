"""Poison-event quarantine: the dead-letter queue.

An event whose processing crashes a shard worker
:attr:`~repro.resilience.supervisor.Supervisor.quarantine_after` times
(default twice — once on first sight, once on replay after the restart)
is *poison*: deterministic input the matcher cannot survive.  Rather
than burning the whole restart budget on it, the supervisor removes the
event from the replay log and parks it here, together with the crash
evidence (the worker's flight-recorder dump, when one survived), and
the shard continues with the rest of the stream.

Entries serialise to JSON lines (``repro match --dead-letter out.jsonl``)
so poison events can be inspected, fixed and re-ingested offline.

Durability
----------
Dead-letter files are evidence — they must survive the very crashes
they document.  All appends go through :func:`atomic_append_jsonl_many`
(:func:`atomic_append_jsonl` is the one-record spelling):

* **line-atomic** — the records of one call are a single ``write()`` of
  complete lines followed by one ``flush()`` + ``fsync()``, so a crash
  mid-write can truncate at most the line being written, never
  interleave two records or leave earlier lines unflushed in a userspace
  buffer; an append that finds such a truncated tail starts on a fresh
  line, so the fragment costs no later record;
* **bounded** — when the file would grow past a byte cap (the
  ``REPRO_DLQ_MAX_BYTES`` environment knob, or an explicit
  ``max_bytes=``), it is rotated to ``<path>.1`` (replacing any
  previous rotation) instead of growing without bound.  Readers that
  want the full history read ``<path>.1`` then ``<path>``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from ..core.events import Event

__all__ = ["QuarantinedEvent", "DeadLetterQueue", "atomic_append_jsonl",
           "atomic_append_jsonl_many", "atomic_append_lines", "rotated_path",
           "DLQ_MAX_BYTES_ENV"]

#: Environment knob capping dead-letter (and other jsonl-log) growth in
#: bytes; unset or empty means unbounded.
DLQ_MAX_BYTES_ENV = "REPRO_DLQ_MAX_BYTES"


def _env_max_bytes() -> Optional[int]:
    raw = os.environ.get(DLQ_MAX_BYTES_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{DLQ_MAX_BYTES_ENV} must be an integer byte count, "
            f"got {raw!r}") from None
    return value if value > 0 else None


def rotated_path(path: Union[str, Path]) -> Path:
    """Where :func:`atomic_append_jsonl` rotates a full log to."""
    path = Path(path)
    return path.with_name(path.name + ".1")


def atomic_append_jsonl_many(path: Union[str, Path], records: Iterable[dict],
                             max_bytes: Optional[int] = None) -> Path:
    """Append ``records`` to a JSON-lines file as one durable write
    (:func:`atomic_append_lines` of their renderings).

    Non-JSON attribute values are stringified (``default=str``): these
    logs are for inspection and re-ingestion, not lossless pickling.
    """
    return atomic_append_lines(
        path, [json.dumps(record, default=str) for record in records],
        max_bytes=max_bytes)


def atomic_append_lines(path: Union[str, Path], lines: Iterable[str],
                        max_bytes: Optional[int] = None) -> Path:
    """Append ``lines`` (one JSON text each, no newline) as one durable
    write.

    All lines go out in a single ``write()`` call and are made durable
    with one ``flush()`` + ``fsync()`` before the handle closes — N
    records cost one sync, and a crash mid-write leaves a prefix of
    complete lines plus at most one torn one.  Every append starts on a
    line boundary: when the file ends in such a torn fragment (no
    trailing newline), the same write leads with ``"\\n"``, so the
    fragment stays one undecodable line of its own instead of swallowing
    the first new record.

    An append that raises (a failed ``write()`` or ``fsync()``) truncates
    the file back to its length before the call, so the lines of an
    append its caller saw fail are not read back as written.

    When ``max_bytes`` (default: the ``REPRO_DLQ_MAX_BYTES`` environment
    knob) is set and the append would push the file past the cap, the
    current file is first renamed to ``<path>.1`` — replacing any
    previous rotation — so the log pair never holds more than roughly
    ``2 * max_bytes``; the check is made once, so the lines of one
    call always share a file.  Returns the path written to.
    """
    path = Path(path)
    if max_bytes is None:
        max_bytes = _env_max_bytes()
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if not data:
        return path
    if max_bytes is not None:
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        if size and size + len(data) > max_bytes:
            os.replace(path, rotated_path(path))
    with open(path, "a+b") as handle:
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) != b"\n":
                data = b"\n" + data
        try:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        except BaseException:
            # Not durable, so not there: cut the file back to where the
            # append began, lest a reader count what the caller was told
            # failed.  A failed cut leaves the lines (the caller's error
            # stands either way).
            try:
                handle.truncate(size)
                handle.flush()
            except OSError:
                pass
            raise
    return path


def atomic_append_jsonl(path: Union[str, Path], record: dict,
                        max_bytes: Optional[int] = None) -> Path:
    """Append one ``record``: :func:`atomic_append_jsonl_many` of one."""
    return atomic_append_jsonl_many(path, [record], max_bytes=max_bytes)


class QuarantinedEvent:
    """One poison event plus the evidence of why it was quarantined."""

    __slots__ = ("shard", "seq", "event", "reason", "flight_dump", "crashes")

    def __init__(self, shard: int, seq: int, event: Optional[Event],
                 reason: str, flight_dump: Optional[dict] = None,
                 crashes: int = 0):
        self.shard = shard
        self.seq = seq
        self.event = event
        self.reason = reason
        self.flight_dump = flight_dump
        self.crashes = crashes

    def to_json(self) -> dict:
        """JSON-serialisable form (one dead-letter line)."""
        event = None
        if self.event is not None:
            event = {"ts": self.event.ts, "eid": self.event.eid,
                     "attrs": dict(self.event.attributes)}
        return {"shard": self.shard, "seq": self.seq, "event": event,
                "reason": self.reason, "crashes": self.crashes,
                "flight_dump": self.flight_dump}

    def __repr__(self) -> str:
        eid = self.event.eid if self.event is not None else None
        return (f"QuarantinedEvent(shard={self.shard}, seq={self.seq}, "
                f"eid={eid!r}, crashes={self.crashes})")


class DeadLetterQueue:
    """An append-only parking lot for quarantined events."""

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: List[QuarantinedEvent] = []

    def add(self, entry: QuarantinedEvent) -> None:
        self._entries.append(entry)

    @property
    def entries(self) -> List[QuarantinedEvent]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[QuarantinedEvent]:
        return iter(self._entries)

    def write_jsonl(self, path, max_bytes: Optional[int] = None) -> int:
        """Write one JSON line per entry; returns the number written.

        The file is rewritten from scratch (shutdown snapshot
        semantics: "exists and empty" is the scriptable signature of a
        clean run), each line in a single ``write()`` call, and the
        result fsynced before close so the evidence survives an
        immediately following crash.  ``max_bytes`` (default: the
        ``REPRO_DLQ_MAX_BYTES`` knob) caps the snapshot — when the cap
        would be crossed, the oldest entries are dropped and a
        ``truncated`` marker line leads the file.
        """
        if max_bytes is None:
            max_bytes = _env_max_bytes()
        lines = [json.dumps(entry.to_json(), default=str) + "\n"
                 for entry in self._entries]
        if max_bytes is not None:
            kept, budget = [], max_bytes
            for line in reversed(lines):
                if budget - len(line.encode("utf-8")) < 0:
                    break
                budget -= len(line.encode("utf-8"))
                kept.append(line)
            if len(kept) < len(lines):
                marker = json.dumps(
                    {"truncated": len(lines) - len(kept),
                     "reason": f"max_bytes={max_bytes}"}) + "\n"
                kept.append(marker)
            lines = list(reversed(kept))
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        return len(self._entries)

    def append_jsonl(self, path, entry: QuarantinedEvent,
                     max_bytes: Optional[int] = None) -> None:
        """Durably append one entry as it is quarantined (incremental
        spelling of :meth:`write_jsonl`, used by long-running serves)."""
        atomic_append_jsonl(path, entry.to_json(), max_bytes=max_bytes)

    def __repr__(self) -> str:
        return f"DeadLetterQueue({len(self._entries)} entries)"

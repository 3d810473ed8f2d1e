"""Durable delivery log: the WAL behind resumable match subscriptions.

The subscription hub (:mod:`repro.net.hub`) assigns every published
match a monotonic cursor and keeps a bounded in-memory replay ring.  The
ring alone cannot survive a process restart, and it cannot serve a
subscriber that reconnects after more matches than the ring holds — the
:class:`DeliveryLog` is the spill: the hub appends every batch of
published entries here (:meth:`DeliveryLog.append_many`, via
:func:`~repro.resilience.quarantine.atomic_append_lines` — all the
batch's lines in a single ``write()``, one ``flush()`` + ``fsync()``)
before delivering any of them, so

* a subscriber resuming from any cursor can be backfilled from disk
  (``entries_after``), however long it was away;
* a restarted server reloads the log, continues the cursor sequence
  where it stopped, and — because entries carry the content-derived
  :func:`~repro.obs.lineage.match_id` — suppresses re-publication of
  matches the pre-restart process already delivered (exactly-once
  across restarts).

A crash mid-append leaves a prefix of the batch's lines, the last one
possibly torn.  Readers skip the torn line, the complete ones count as
published (none of them reached a subscriber, and the restarted hub
replays them on resume and suppresses their re-publication), and the
next append starts on a fresh line, so the fragment never swallows a
later record.

Growth is bounded the same way the dead-letter queue is: past
``max_bytes`` (or the ``REPRO_DLQ_MAX_BYTES`` environment knob) the
file rotates to ``<path>.1`` — checked once per batch, so a batch never
straddles the two files; readers walk the rotation first, so a resume
spanning the rotation boundary still sees a gap-free sequence as long
as the cursor lies within the retained window.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Sequence, Union

from .quarantine import atomic_append_lines, rotated_path

__all__ = ["DeliveryLog"]


def _identity(stat: os.stat_result):
    return stat.st_dev, stat.st_ino


class DeliveryLog:
    """Append-only JSON-lines log of published matches, keyed by cursor.

    Records are plain dicts; the only required key is ``"seq"`` (the
    hub's monotonic cursor).  The log object itself is cheap — it holds
    no file handle between appends and re-reads the file on scans, so
    several processes may *read* it concurrently with one writer.
    """

    def __init__(self, path: Union[str, Path],
                 max_bytes: Optional[int] = None):
        self.path = Path(path)
        self.max_bytes = max_bytes

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append_many(self, records: Sequence[Dict]) -> None:
        """Durably append a batch of published-match records.

        One ``write()`` of all the lines, one ``flush()`` + ``fsync()``,
        one rotation check: when this returns, every record is on disk.
        A record that carries its own rendering as a ``line`` attribute
        (the hub's do: the match payload is rendered once for the log
        and the wire) is written as that text.
        """
        lines = []
        for record in records:
            if "seq" not in record:
                raise ValueError("delivery log records must carry a 'seq'")
            line = getattr(record, "line", None)
            lines.append(json.dumps(record, default=str) if line is None
                         else line)
        atomic_append_lines(self.path, lines, max_bytes=self.max_bytes)

    def append(self, record: Dict) -> None:
        """Durably append one record (a batch of one)."""
        self.append_many([record])

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _open(self) -> List[IO[str]]:
        """The rotation (when there is one) and the current file, opened
        as one view.

        An append in another thread or process may rotate the log
        between the two opens; the rotation slot then no longer names
        the file opened for it, and both are opened again — an old
        rotation is never paired with a new current file (which would
        skip the records in between).
        """
        rotation = rotated_path(self.path)
        while True:
            handles = []
            for path in (rotation, self.path):
                try:
                    handles.append(open(path, "r", encoding="utf-8"))
                except FileNotFoundError:
                    handles.append(None)
            opened = (None if handles[0] is None
                      else _identity(os.fstat(handles[0].fileno())))
            try:
                now = _identity(os.stat(rotation))
            except FileNotFoundError:
                now = None
            if opened == now:
                return [handle for handle in handles if handle is not None]
            for handle in handles:
                if handle is not None:
                    handle.close()

    def __iter__(self) -> Iterator[Dict]:
        """All retained records in cursor order (rotation first).

        A torn line — the signature of a crash mid-append, or of an
        append still being written — is skipped rather than raised:
        everything before it was fsynced, and appends made after a
        restart start on the line below it.
        """
        handles = self._open()
        try:
            for handle in handles:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        yield json.loads(line)
                    except json.JSONDecodeError:
                        continue
        finally:
            for handle in handles:
                handle.close()

    def load(self) -> List[Dict]:
        """All retained records as a list."""
        return list(self)

    def entries_after(self, cursor: int) -> List[Dict]:
        """Retained records with ``seq`` strictly above ``cursor``."""
        return [record for record in self
                if record.get("seq", -1) > cursor]

    def last_seq(self) -> int:
        """Highest cursor on disk (``-1`` for an empty/missing log)."""
        last = -1
        for record in self:
            seq = record.get("seq", -1)
            if seq > last:
                last = seq
        return last

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:
        return f"DeliveryLog({str(self.path)!r})"

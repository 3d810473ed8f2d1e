"""Persistent per-pattern runtime statistics (EXPLAIN's feedback loop).

:class:`StatsStore` accumulates *observed* quantities per pattern
fingerprint — condition pass rates, per-transition fan-out, prefilter
selectivity, run/event/match cardinalities — and persists them as a JSON
sidecar so later runs can consult what earlier runs measured:
``repro explain`` prints them, ``/varz``/``/metrics`` publish them and
:func:`~repro.explain.order.ordered_plan` reorders conditions by them.
The store is process-global like :class:`~repro.plan.cache.PlanCache`;
worker processes ship :meth:`StatsStore.snapshot` dicts across the
process boundary and the parent folds them back in with
:meth:`StatsStore.merge_snapshot`, the same wire-format idiom the
metrics registry uses.

Statistics are keyed by the *optimization-independent* pattern
fingerprint (:func:`stats_key`), so a pattern observed under one
optimization set informs plans compiled under another.

Environment knobs
-----------------
``REPRO_STATS_PATH``
    Path of the JSON sidecar.  When set, the global store loads it on
    first access and saves after every :meth:`StatsStore.observe`.
``REPRO_STATS_DISABLE``
    Any non-empty value makes :meth:`StatsStore.observe` a no-op on the
    global store (reads still work).

File format (also the :meth:`StatsStore.snapshot` wire format)::

    {
      "version": 1,
      "patterns": {
        "<fingerprint>": {
          "runs": 3, "events": 1200, "matches": 7,
          "filter_seen": 1200, "filter_admitted": 230,
          "conditions": {
            "c.L = 'C'": {"evaluations": 1200, "passes": 90}
          },
          "transitions": {
            "{} --c--> {c}": {
              "evaluations": 1200, "passes": 90, "seconds": 0.004,
              "conditions": {"c.L = 'C'": {"evaluations": 1200,
                                           "passes": 90}}
            }
          }
        }
      }
    }
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, Optional, Union

from ..plan.fingerprint import pattern_fingerprint

__all__ = ["StatsStore", "stats_key", "stats_store", "clear_stats_store",
           "set_stats_path", "STATS_FORMAT_VERSION"]

#: Version stamp of the sidecar / wire format.
STATS_FORMAT_VERSION = 1

#: Environment variable naming the JSON sidecar of the global store.
STATS_PATH_ENV = "REPRO_STATS_PATH"

#: Environment variable disabling observation on the global store.
STATS_DISABLE_ENV = "REPRO_STATS_DISABLE"


def stats_key(pattern) -> str:
    """The statistics key for ``pattern``: its canonical fingerprint
    computed *without* optimizations, so every compilation of an equal
    pattern shares one statistics record."""
    return pattern_fingerprint(pattern, ())


def _empty_record() -> dict:
    return {"runs": 0, "events": 0, "matches": 0,
            "filter_seen": 0, "filter_admitted": 0,
            "conditions": {}, "transitions": {}}


def _merge_counts(into: dict, incoming: dict) -> None:
    """Add ``{"evaluations", "passes"}`` counts into ``into`` in place."""
    into["evaluations"] = (into.get("evaluations", 0)
                           + int(incoming.get("evaluations", 0)))
    into["passes"] = into.get("passes", 0) + int(incoming.get("passes", 0))


def _merge_record(into: dict, incoming: dict) -> None:
    for field in ("runs", "events", "matches", "filter_seen",
                  "filter_admitted"):
        into[field] = into.get(field, 0) + int(incoming.get(field, 0))
    for text, counts in incoming.get("conditions", {}).items():
        _merge_counts(into["conditions"].setdefault(text, {}), counts)
    for label, t_record in incoming.get("transitions", {}).items():
        slot = into["transitions"].setdefault(
            label, {"evaluations": 0, "passes": 0, "seconds": 0.0,
                    "conditions": {}})
        _merge_counts(slot, t_record)
        slot["seconds"] = (slot.get("seconds", 0.0)
                           + float(t_record.get("seconds", 0.0)))
        for text, counts in t_record.get("conditions", {}).items():
            _merge_counts(slot["conditions"].setdefault(text, {}), counts)


def _pass_rate(counts: Optional[dict]) -> Optional[float]:
    if not counts:
        return None
    evaluations = counts.get("evaluations", 0)
    if not evaluations:
        return None
    return counts.get("passes", 0) / evaluations


class StatsStore:
    """Accumulated runtime statistics, keyed by pattern fingerprint.

    Thread-safe; every accessor copies, so callers never see a record
    mutate under them.  ``path`` (optional) names a JSON sidecar that is
    loaded on construction and re-saved after every :meth:`observe`.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None,
                 autosave: bool = True):
        self._lock = threading.RLock()
        self._patterns: Dict[str, dict] = {}
        self._path: Optional[Path] = None if path is None else Path(path)
        self._autosave = autosave
        self.disabled = False
        if self._path is not None and self._path.exists():
            self.load(self._path)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe(self, fingerprint: str, *, runs: int = 1, events: int = 0,
                matches: int = 0, filter_seen: int = 0,
                filter_admitted: int = 0,
                conditions: Optional[Dict[str, dict]] = None,
                transitions: Optional[Dict[str, dict]] = None) -> None:
        """Fold one run's observations into the record for
        ``fingerprint``.  ``conditions`` maps condition text to
        ``{"evaluations", "passes"}``; ``transitions`` maps transition
        labels to ``{"evaluations", "passes", "seconds", "conditions"}``.
        """
        if self.disabled:
            return
        incoming = {
            "runs": runs, "events": events, "matches": matches,
            "filter_seen": filter_seen, "filter_admitted": filter_admitted,
            "conditions": conditions or {},
            "transitions": transitions or {},
        }
        with self._lock:
            record = self._patterns.setdefault(fingerprint, _empty_record())
            _merge_record(record, incoming)
            if self._autosave and self._path is not None:
                self._save_locked(self._path)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[dict]:
        """A deep copy of the record for ``fingerprint``, or ``None``."""
        with self._lock:
            record = self._patterns.get(fingerprint)
            return None if record is None else json.loads(json.dumps(record))

    def fingerprints(self):
        """The recorded fingerprints, sorted."""
        with self._lock:
            return sorted(self._patterns)

    def condition_selectivity(self, fingerprint: str,
                              text: str) -> Optional[float]:
        """Observed pass rate of condition ``text`` (aggregated over all
        transitions), or ``None`` when never observed."""
        with self._lock:
            record = self._patterns.get(fingerprint)
            if record is None:
                return None
            return _pass_rate(record["conditions"].get(text))

    def transition_condition_selectivity(self, fingerprint: str, label: str,
                                         text: str) -> Optional[float]:
        """Observed pass rate of ``text`` on the transition ``label``,
        falling back to the pattern-wide aggregate."""
        with self._lock:
            record = self._patterns.get(fingerprint)
            if record is None:
                return None
            t_record = record["transitions"].get(label)
            if t_record is not None:
                rate = _pass_rate(t_record["conditions"].get(text))
                if rate is not None:
                    return rate
            return _pass_rate(record["conditions"].get(text))

    def prefilter_selectivity(self, fingerprint: str) -> Optional[float]:
        """Observed fraction of events the prefilter dropped."""
        with self._lock:
            record = self._patterns.get(fingerprint)
            if record is None or not record.get("filter_seen"):
                return None
            return 1.0 - record["filter_admitted"] / record["filter_seen"]

    def __len__(self) -> int:
        with self._lock:
            return len(self._patterns)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._patterns

    # ------------------------------------------------------------------
    # Wire format and persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The full store as a plain dict (wire and sidecar format)."""
        with self._lock:
            return {"version": STATS_FORMAT_VERSION,
                    "patterns": json.loads(json.dumps(self._patterns))}

    def merge_snapshot(self, snapshot: Optional[dict]) -> "StatsStore":
        """Fold a :meth:`snapshot` (from a worker process or an earlier
        run) into this store; unknown versions are rejected."""
        if not snapshot:
            return self
        version = snapshot.get("version", STATS_FORMAT_VERSION)
        if version != STATS_FORMAT_VERSION:
            raise ValueError(
                f"unknown stats snapshot version {version!r}; expected "
                f"{STATS_FORMAT_VERSION}")
        with self._lock:
            for fingerprint, incoming in snapshot.get("patterns",
                                                      {}).items():
                record = self._patterns.setdefault(fingerprint,
                                                   _empty_record())
                _merge_record(record, incoming)
        return self

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Write the sidecar (atomically) and return its path."""
        with self._lock:
            target = Path(path) if path is not None else self._path
            if target is None:
                raise ValueError("no sidecar path configured")
            return self._save_locked(target)

    def _save_locked(self, target: Path) -> Path:
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(json.dumps(self.snapshot_unlocked(), indent=2,
                                  sort_keys=True) + "\n", encoding="utf-8")
        tmp.replace(target)
        return target

    def snapshot_unlocked(self) -> dict:
        return {"version": STATS_FORMAT_VERSION,
                "patterns": self._patterns}

    def load(self, path: Union[str, Path]) -> "StatsStore":
        """Merge a sidecar file into this store (missing file is a no-op)."""
        path = Path(path)
        if not path.exists():
            return self
        return self.merge_snapshot(
            json.loads(path.read_text(encoding="utf-8")))

    def clear(self) -> None:
        """Drop every record (the sidecar is rewritten on next save)."""
        with self._lock:
            self._patterns.clear()

    def __repr__(self) -> str:
        with self._lock:
            return (f"StatsStore({len(self._patterns)} pattern(s), "
                    f"path={self._path})")


# ----------------------------------------------------------------------
# The process-global store
# ----------------------------------------------------------------------
_GLOBAL_STORE: Optional[StatsStore] = None
_GLOBAL_LOCK = threading.Lock()


def stats_store() -> StatsStore:
    """The process-global statistics store (sidecar from
    ``REPRO_STATS_PATH``, lazily created)."""
    global _GLOBAL_STORE
    with _GLOBAL_LOCK:
        if _GLOBAL_STORE is None:
            path = os.environ.get(STATS_PATH_ENV) or None
            _GLOBAL_STORE = StatsStore(path=path)
            _GLOBAL_STORE.disabled = bool(
                os.environ.get(STATS_DISABLE_ENV))
        return _GLOBAL_STORE


def clear_stats_store() -> None:
    """Reset the process-global store (drops records and the sidecar
    binding; the next :func:`stats_store` call re-reads the env knobs)."""
    global _GLOBAL_STORE
    with _GLOBAL_LOCK:
        _GLOBAL_STORE = None


def set_stats_path(path: Optional[Union[str, Path]],
                   autosave: bool = True) -> StatsStore:
    """Bind the global store to a sidecar at runtime (loads it if it
    exists; existing in-memory records are kept)."""
    store = stats_store()
    with store._lock:
        store._path = None if path is None else Path(path)
        store._autosave = autosave
        if store._path is not None and store._path.exists():
            store.load(store._path)
    return store

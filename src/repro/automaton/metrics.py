"""Execution statistics for SES automaton runs.

The paper's experiments measure the maximal number of simultaneously active
automaton instances (``|Ω|`` in Algorithm 1) and wall-clock execution time.
:class:`ExecutionStats` tracks those plus a few extra counters useful for
ablations (transitions fired, branchings, filtered events).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["ExecutionStats", "sparkline"]


@dataclass
class ExecutionStats:
    """Counters collected during one execution of a SES automaton."""

    #: Events read from the input relation.
    events_read: int = 0
    #: Events dropped by the Section 4.5 pre-filter.
    events_filtered: int = 0
    #: Events that reached the instance loop.
    events_processed: int = 0
    #: Automaton instances created (start instances + branchings).
    instances_created: int = 0
    #: Maximal number of simultaneously active instances (max |Ω|).
    max_simultaneous_instances: int = 0
    #: Transitions taken (bindings added to some buffer).
    transitions_fired: int = 0
    #: Extra instances spawned by nondeterministic branching.
    branchings: int = 0
    #: Instances dropped because their window expired.
    expired_instances: int = 0
    #: Buffers accepted (instance expired or flushed in the accepting state).
    accepted_buffers: int = 0
    #: Matches reported after result selection.
    matches: int = 0
    #: Optional per-event Ω population timeline (see :meth:`enable_history`).
    omega_history: Optional[List[Tuple[object, int]]] = field(
        default=None, repr=False)
    #: Timestamp the next observation will be recorded under.
    _current_ts: object = field(default=None, repr=False)
    #: History cap (``None`` = unbounded) and the downsampling stride.
    _history_cap: Optional[int] = field(default=None, repr=False)
    _history_stride: int = field(default=1, repr=False)
    _history_seen: int = field(default=0, repr=False)

    def merge(self, other: "ExecutionStats") -> "ExecutionStats":
        """Fold another run's counters into this record.

        Counters add; the instance peak takes the maximum, matching the
        semantics of per-partition execution where partitions run one
        after another (a parallel pool reports the same peak, not the
        true simultaneous one, so serial and pooled runs stay
        comparable).  History fields are not merged.
        Returns ``self`` for chaining.
        """
        self.events_read += other.events_read
        self.events_filtered += other.events_filtered
        self.events_processed += other.events_processed
        self.instances_created += other.instances_created
        self.transitions_fired += other.transitions_fired
        self.branchings += other.branchings
        self.expired_instances += other.expired_instances
        self.accepted_buffers += other.accepted_buffers
        self.matches += other.matches
        if other.max_simultaneous_instances > self.max_simultaneous_instances:
            self.max_simultaneous_instances = other.max_simultaneous_instances
        return self

    def enable_history(self, max_samples: Optional[int] = None) -> None:
        """Start recording ``(timestamp, |Ω|)`` samples.

        One sample is kept per observation; use
        :func:`sparkline` to render the timeline for humans.  Costs one
        list append per event — leave off for measurement runs.

        ``max_samples`` bounds retained memory on long streams: once the
        timeline exceeds the cap it is uniformly downsampled (every
        second sample dropped, recording stride doubled), so the history
        always spans the whole run at progressively coarser resolution
        and never holds more than ``max_samples`` entries.
        """
        if self.omega_history is None:
            self.omega_history = []
        if max_samples is not None:
            if max_samples < 2:
                raise ValueError("max_samples must be at least 2")
            self._history_cap = max_samples

    def observe_event(self, ts) -> None:
        """Tag subsequent Ω observations with the event timestamp."""
        self._current_ts = ts

    def observe_omega(self, size: int) -> None:
        """Record the current size of Ω."""
        if size > self.max_simultaneous_instances:
            self.max_simultaneous_instances = size
        history = self.omega_history
        if history is None:
            return
        seen = self._history_seen
        self._history_seen = seen + 1
        if seen % self._history_stride:
            return
        history.append((self._current_ts, size))
        cap = self._history_cap
        if cap is not None and len(history) > cap:
            # Uniform downsample: keep every other retained sample and
            # double the stride for future observations.
            del history[1::2]
            self._history_stride *= 2


#: Unicode block characters for :func:`sparkline`, lowest to highest.
_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(history: List[Tuple[object, int]], width: int = 60) -> str:
    """Render an Ω population timeline as a one-line text sparkline.

    ``history`` is ``stats.omega_history``; the samples are bucketed down
    to ``width`` columns (max per bucket) and scaled to eight levels.
    Histories shorter than ``width`` render one column per sample.
    """
    if width < 1:
        raise ValueError("sparkline width must be at least 1")
    if not history:
        return ""
    sizes = [s for _, s in history]
    if len(sizes) > width:
        # Integer bucket boundaries: each bucket takes len//width samples
        # and the last bucket absorbs the remainder, so trailing samples
        # are never dropped (float bucketing could round the tail away).
        base = len(sizes) // width
        sizes = [max(sizes[i * base:(i + 1) * base]) if i < width - 1
                 else max(sizes[i * base:])
                 for i in range(width)]
    peak = max(sizes) or 1
    levels = len(_BLOCKS) - 1
    return "".join(_BLOCKS[round(s / peak * levels)] for s in sizes)

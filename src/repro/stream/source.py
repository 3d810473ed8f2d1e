"""Synthetic event streams.

The paper's algorithm consumes one event at a time, which makes it a
natural fit for live streams (the setting of DejaVu, SASE+, Cayuga).  A
stream is any chronologically ordered iterable of events: a stored
relation replays as ``iter(relation)``; :func:`synthetic` generates one.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Optional, Sequence

from ..core.events import Event

__all__ = ["synthetic"]


def synthetic(kinds: Sequence[str],
              rate: float = 1.0,
              count: Optional[int] = None,
              seed: int = 0,
              attribute: str = "kind",
              make_attrs: Optional[Callable[[random.Random, str], dict]] = None
              ) -> Iterator[Event]:
    """Generate a synthetic stream of typed events.

    Parameters
    ----------
    kinds:
        Event type labels drawn uniformly at random.
    rate:
        Mean events per time unit (inter-arrival times are exponential,
        rounded to the discrete time domain).
    count:
        Number of events to generate; ``None`` streams forever.
    seed:
        Seed for determinism.
    attribute:
        Name of the attribute carrying the type label.
    make_attrs:
        Optional callback returning extra attributes per event.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(seed)
    ts = 0
    produced = 0
    while count is None or produced < count:
        ts += max(1, round(rng.expovariate(rate)))
        kind = rng.choice(list(kinds))
        attrs = {attribute: kind}
        if make_attrs is not None:
            attrs.update(make_attrs(rng, kind))
        produced += 1
        yield Event(ts=ts, eid=f"x{produced}", attrs=attrs)

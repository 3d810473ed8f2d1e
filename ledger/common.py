"""What harness and children share: paths, process plumbing, digests.

Imports nothing from ``repro`` — a batch child imports this before its
timed set-up, and anything heavy here would land in its peak RSS.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Seconds any single wait (child start-up, one match, the drain) may
#: take before the run is abandoned as failed.
WAIT_LIMIT = 60.0


def child_env() -> Dict[str, str]:
    """Environment of every system-under-test child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


@functools.lru_cache(maxsize=None)
def allowed_cpus() -> Tuple[int, ...]:
    """The CPUs this process was started on (read once: the harness
    narrows its own affinity afterwards)."""
    return tuple(sorted(os.sched_getaffinity(0)))


def split_cpus() -> Tuple[Optional[set], Optional[set]]:
    """``(generator cpus, child cpus)``: the child gets the last allowed
    CPU to itself when there are two or more, so generator and system
    under test never time-share a core; ``(None, None)`` on one CPU."""
    allowed = allowed_cpus()
    if len(allowed) < 2:
        return None, None
    return set(allowed[:-1]), {allowed[-1]}


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def digest(ids: Iterable[str]) -> str:
    """Order-free digest of a collection of match ids."""
    return hashlib.blake2b("\n".join(sorted(ids)).encode("ascii"),
                           digest_size=8).hexdigest()


#: The calibration kernel's time at the reference machine speed; every
#: timing the ledger reports is scaled to it (ledger.estimate).
REFERENCE_S = 0.010

_KERNEL_ROWS = [{"ts": i, "eid": f"e{i}",
                 "attrs": {"ID": i % 97, "L": "GLU", "V": i * 0.5,
                           "U": "lab"}} for i in range(3000)]


def calibrate(cpus: Optional[set] = None) -> float:
    """Seconds the calibration kernel takes right now (median of 3).

    The kernel is stdlib-only work of the kind the program does — JSON
    encode and decode of event objects, dict building, a keyed sort —
    and shares no code with ``repro``, so a change to the program cannot
    move it.  With ``cpus`` the calling thread runs it there (the
    system under test's CPU, while that is idle) and then returns to
    where it was.
    """
    previous = None
    if cpus is not None:
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
    try:
        samples = []
        for _ in range(3):
            began = time.perf_counter()
            index: Dict[int, list] = {}
            for row in json.loads(json.dumps(_KERNEL_ROWS)):
                index.setdefault(row["attrs"]["ID"], []).append(row["ts"])
            sorted(index, key=lambda key: -len(index[key]))
            samples.append(time.perf_counter() - began)
        return sorted(samples)[1]
    finally:
        if previous is not None:
            os.sched_setaffinity(0, previous)


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference the machine ran between two
    calibration probes; a duration measured between them, divided by
    this, is the duration at reference speed."""
    return (before + after) / 2 / REFERENCE_S

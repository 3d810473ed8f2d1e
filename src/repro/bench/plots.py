"""Plain-text charts for the experiment reports.

The paper presents Experiments 1–3 as figures; the harness renders the
same series as aligned text bar charts so ``python -m repro.bench``
output reads like the paper's plots without any plotting dependency.
``log=True`` uses a logarithmic bar length — Figure 11 is log-scale in
the paper too.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

__all__ = ["bar_chart", "series_chart"]

_BAR = "█"
_HALF = "▌"


def _bar(value: float, peak: float, width: int, log: bool,
         floor: float = 1.0) -> str:
    if value <= 0 or peak <= 0:
        return ""
    if log:
        # Map [floor, peak] to [~0.05, 1] logarithmically so the smallest
        # positive value still shows a stub (works for sub-second timings).
        if peak <= floor:
            scale = 1.0
        else:
            scale = 0.05 + 0.95 * (math.log10(value / floor)
                                   / math.log10(peak / floor))
        scale = max(0.0, min(scale, 1.0))
    else:
        scale = value / peak
    cells = scale * width
    full = int(cells)
    return _BAR * full + (_HALF if cells - full >= 0.5 else "")


def _positive_floor(values) -> float:
    positives = [v for v in values if v > 0]
    return min(positives) if positives else 1.0


def bar_chart(labels: Sequence[str], values: Sequence[float],
              title: str = "", width: int = 40, log: bool = False,
              unit: str = "") -> str:
    """One horizontal bar per (label, value), scaled to the maximum."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not labels:
        return title
    peak = max(values)
    floor = _positive_floor(values)
    label_width = max(len(str(label)) for label in labels)
    lines: List[str] = [title] if title else []
    for label, value in zip(labels, values):
        rendered = (f"{value:.3g}{unit}" if isinstance(value, float)
                    else f"{value}{unit}")
        lines.append(f"  {str(label).rjust(label_width)}  "
                     f"{_bar(value, peak, width, log, floor):<{width}} "
                     f"{rendered}")
    return "\n".join(lines)


def series_chart(x_labels: Sequence[str],
                 series: Sequence[Tuple[str, Sequence[float]]],
                 title: str = "", width: int = 40, log: bool = False,
                 unit: str = "") -> str:
    """Several named series over shared x labels, one block per series."""
    peak = max((max(values) for _, values in series if values), default=0)
    floor = _positive_floor([v for _, values in series for v in values])
    lines: List[str] = [title] if title else []
    label_width = max((len(str(x)) for x in x_labels), default=0)
    for name, values in series:
        lines.append(f"  {name}:")
        for x, value in zip(x_labels, values):
            rendered = f"{value:.3g}{unit}" if isinstance(value, float) \
                else f"{value}{unit}"
            lines.append(f"    {str(x).rjust(label_width)}  "
                         f"{_bar(value, peak, width, log, floor):<{width}} "
                         f"{rendered}")
    return "\n".join(lines)

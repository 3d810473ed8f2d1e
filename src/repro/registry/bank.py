"""Where :class:`PredicateBank` used to live.

The bank now serves the automaton's event alphabet and the plan's
prefilter as well as the registry, and ``repro.automaton`` cannot import
``repro.registry`` (``registry/__init__`` → ``registry.py`` →
``stream.runner`` → ``automaton.executor``), so the class sits below
all three, in :mod:`repro.core.predicates`.  This module keeps the old
import path alive for the benchmark harness (``ledger/layers.py``),
which a source PR may not edit.
"""

from ..core.predicates import PredicateBank, mask_bits

__all__ = ["PredicateBank", "mask_bits"]

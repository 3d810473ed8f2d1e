"""Multi-tenant pattern registry with cross-pattern plan sharing.

The production regime the ROADMAP names: thousands of *distinct* live
patterns over one event stream, with hot register/deregister against a
running ``repro serve`` process.  One shared admission pass — the
deduplicated :class:`PredicateBank` plus per-pattern bitmask
:class:`AdmissionSpec` algebra — feeds every registered
:class:`~repro.plan.plan.PatternPlan`, bit-identical to running each
pattern through its own matcher (match sets and counters alike).  See
``docs/registry.md``.
"""

from ..core.predicates import AdmissionSpec, PredicateBank
from .registry import (DuplicatePatternError, OutOfOrderError,
                       PatternRegistry, QuotaExceeded, RegistryError,
                       TenantQuota, UnknownPatternError)
from .service import RegistryHTTPAdapter

__all__ = [
    "AdmissionSpec",
    "DuplicatePatternError",
    "OutOfOrderError",
    "PatternRegistry",
    "PredicateBank",
    "QuotaExceeded",
    "RegistryError",
    "RegistryHTTPAdapter",
    "TenantQuota",
    "UnknownPatternError",
]

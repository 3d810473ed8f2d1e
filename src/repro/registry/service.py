"""HTTP surface of the pattern registry.

:class:`RegistryHTTPAdapter` translates the ``/patterns`` routes the
:class:`~repro.obs.live.ObsServer` exposes into registry calls and maps
registry errors onto HTTP statuses:

=============================== ======= ==============================
request                         status  body
=============================== ======= ==============================
``GET /patterns``               200     ``{"patterns": [...], ...}``
``POST /patterns``              201     ``{"id", "fingerprint", ...}``
  malformed body / bad query    400     ``{"error": ...}``
  duplicate id                  409     ``{"error": ...}``
  tenant over quota             429     ``{"error": ...}``
``DELETE /patterns/<id>``       200     the removed pattern's summary
  unknown id                    404     ``{"error": ...}``
=============================== ======= ==============================

The POST body is JSON: ``{"query": "<PERMUTE text>"}`` plus optional
``"id"`` and ``"tenant"`` keys.  The CLI client is
``repro registry add|rm|list --server URL``.
"""

from __future__ import annotations

from typing import Tuple

from ..lang import QueryError
from .registry import (DuplicatePatternError, PatternRegistry, QuotaExceeded,
                       UnknownPatternError)

__all__ = ["RegistryHTTPAdapter"]

#: ``(status, payload)`` returned to the HTTP handler.
Reply = Tuple[int, dict]


class RegistryHTTPAdapter:
    """Bridges the ObsServer ``/patterns`` routes to a registry."""

    def __init__(self, registry: PatternRegistry):
        self.registry = registry

    def list(self) -> Reply:
        """``GET /patterns``: summary rows plus sharing statistics."""
        registry = self.registry
        return 200, {
            "patterns": registry.describe(),
            "predicates": registry.predicate_count,
            "tenants": registry.tenant_stats(),
        }

    def add(self, payload) -> Reply:
        """``POST /patterns``: register the query in the JSON body."""
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            return 400, {"error": "missing 'query' (PERMUTE text)"}
        pattern_id = payload.get("id")
        if pattern_id is not None and not isinstance(pattern_id, str):
            return 400, {"error": "'id' must be a string"}
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str):
            return 400, {"error": "'tenant' must be a string"}
        registry = self.registry
        try:
            pattern_id = registry.register(query, pattern_id=pattern_id,
                                           tenant=tenant)
        except QueryError as exc:
            return 400, {"error": f"query error: {exc}"}
        except DuplicatePatternError as exc:
            return 409, {"error": str(exc)}
        except QuotaExceeded as exc:
            return 429, {"error": str(exc)}
        for row in registry.describe():
            if row["id"] == pattern_id:
                return 201, row
        return 201, {"id": pattern_id}

    def remove(self, pattern_id: str) -> Reply:
        """``DELETE /patterns/<id>``: deregister, returning the summary."""
        try:
            return 200, self.registry.deregister(pattern_id)
        except UnknownPatternError as exc:
            return 404, {"error": str(exc)}

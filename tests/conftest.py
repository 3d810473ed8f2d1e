"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import socket
from typing import Iterable, List, Sequence

import pytest

import repro
from repro import Event, EventRelation, SESPattern
from repro.data.paper_events import figure1_relation, query_q1


def match(pattern, relation, **options):
    """``repro.compile(pattern).match(relation, **options)`` in one call."""
    return repro.compile(pattern).match(relation, **options)


def raw_http(host: str, port: int, head: bytes, timeout: float = 5.0):
    """Send ``head`` as-is on a fresh connection, sending no body; read
    to the close and return the reply's ``(status, JSON body)``."""
    raw = b""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    assert raw, "connection closed with no reply"
    status_line, _, rest = raw.partition(b"\r\n")
    return int(status_line.split(b" ", 2)[1]), json.loads(
        rest.partition(b"\r\n\r\n")[2])


def ev(ts: int, kind: str = "A", eid: str = None, **attrs) -> Event:
    """Shorthand event constructor used throughout the tests."""
    attrs.setdefault("kind", kind)
    return Event(ts=ts, eid=eid or f"{kind.lower()}{ts}", **attrs)


def rel(*events: Event) -> EventRelation:
    """Build a relation from events (sorted automatically)."""
    return EventRelation(events)


def eids(substitution) -> frozenset:
    """The set of event ids bound by a substitution."""
    return frozenset(e.eid for e in substitution.events())


def bindings(substitution) -> frozenset:
    """Bindings as ``"v/eid"`` strings, order-independent."""
    return frozenset(f"{v!r}/{e.eid}" for v, e in substitution.bindings)


@pytest.fixture
def figure1():
    """The paper's Figure 1 relation."""
    return figure1_relation()


@pytest.fixture
def q1():
    """The paper's Query Q1 pattern."""
    return query_q1()


@pytest.fixture
def kind_pattern():
    """A simple two-set pattern over 'kind' attributes: {a, b} then {c}."""
    return SESPattern(
        sets=[["a", "b"], ["c"]],
        conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'"],
        tau=100,
    )


def reference_admits(pattern, mode, event) -> bool:
    """Section 4.5's filter from its definition, spelled with
    ``Condition.evaluate_events`` (a missing attribute and an
    incomparable value are false): ``"conjunctive"`` passes an event iff
    some variable's constant conditions all hold; ``"paper"`` iff any
    constant condition holds, unless a variable has none (then the
    filter is off)."""
    groups = [pattern.constant_conditions(variable)
              for variable in pattern.variables]
    if mode == "paper":
        return not all(groups) or any(
            condition.evaluate_events(event)
            for conditions in groups for condition in conditions)
    return any(all(condition.evaluate_events(event)
                   for condition in conditions) for conditions in groups)

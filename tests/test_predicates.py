"""One predicate bank: every consumer of "which conditions on the event
alone does this event satisfy" gives the definition's answer.

The definition is :meth:`Condition.evaluate_events` (a missing attribute
and an incomparable value are false).  :class:`PredicateBank` is the one
class that evaluates it in bulk; the plan's prefilter (scalar and
columnar, both filter modes), the registry's :class:`AdmissionSpec` and
the automaton's event alphabet all read a bank, so one property pins
them against the definition and against each other — and a source scan
keeps it one.
"""

import ast
import importlib
import inspect
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import Attr, Condition, Const, Event, SESPattern, var
from repro.automaton import executor as executor_module
from repro.core.predicates import AdmissionSpec, PredicateBank
from repro.plan import plan as plan_module
from repro.plan.prefilter import FILTER_MODES, popcount
from repro.registry import registry as registry_module

from conftest import reference_admits

KINDS = ("A", "B", "C")
#: One unhashable constant shared by every condition drawn on it (equal
#: only to itself for the bank, so the conditions share its slot) …
SHARED_TAGS = ["x", "y"]

#: Conditions on the event alone, as ``(attribute, op, right side)``
#: builders over a variable; few enough that variables repeat them.
_TEMPLATES = (
    [lambda v, k=kind: Condition(Attr(v, "kind"), "=", Const(k))
     for kind in KINDS]
    + [lambda v: Condition(Attr(v, "kind"), "!=", Const("A")),
       lambda v: Condition(Attr(v, "V"), "<", Const(5)),
       lambda v: Condition(Attr(v, "V"), ">=", Const(2)),
       lambda v: Condition(Attr(v, "tags"), "=", Const(SHARED_TAGS)),
       # … and a fresh one per condition: a slot each.
       lambda v: Condition(Attr(v, "tags"), "!=", Const(["x"])),
       lambda v: Condition(Attr(v, "V"), "<", Attr(v, "W")),
       lambda v: Condition(Attr(v, "W"), "=", Attr(v, "V"))])


@st.composite
def patterns(draw):
    """One to three variables, each with zero to three conditions on the
    event alone — so some carry no constant condition (only a self
    condition, or nothing) and most predicates recur across variables."""
    variables = [var(name) for name in "uvw"[:draw(st.integers(1, 3))]]
    conditions = [template(variable) for variable in variables
                  for template in draw(st.lists(
                      st.sampled_from(_TEMPLATES), max_size=3))]
    if len(variables) > 1 and draw(st.booleans()):
        conditions.append(Condition(Attr(variables[0], "ID"), "=",
                                    Attr(variables[1], "ID")))
    return SESPattern(sets=[[variable] for variable in variables],
                      conditions=conditions, tau=20)


@st.composite
def events(draw):
    """Events whose attributes are sometimes missing or of a type the
    constants do not compare with."""
    out = []
    for i in range(draw(st.integers(0, 10))):
        fields = {"ID": draw(st.integers(0, 1))}
        if draw(st.booleans()):
            fields["kind"] = draw(st.sampled_from(KINDS + (7,)))
        for name in ("V", "W"):
            value = draw(st.one_of(st.none(), st.integers(0, 6),
                                   st.just("not-a-number")))
            if value is not None:
                fields[name] = value
        if draw(st.booleans()):
            fields["tags"] = "x"
        out.append(Event(ts=i, eid=f"e{i}", **fields))
    return out


def answers(plan, relation):
    """Everything a plan says about each event of ``relation``."""
    out = {"classes": [plan.automaton.classify(e) for e in relation]}
    for mode in FILTER_MODES:
        prefilter = plan.prefilter(mode)
        out[mode] = ([prefilter.admits(e) for e in relation],
                     prefilter.admission_mask(relation))
    return out


class TestOneAnswer:
    @given(pattern=patterns(), relation=events())
    @settings(max_examples=200, deadline=None)
    def test_every_consumer_agrees_with_the_definition(self, pattern,
                                                       relation):
        plan = repro.compile(pattern, cache=False)
        n = len(relation)
        full = (1 << n) - 1

        # Section 4.5, both modes, scalar and columnar.
        for mode in FILTER_MODES:
            prefilter = plan.prefilter(mode)
            expected = [reference_admits(pattern, mode, e) for e in relation]
            assert [prefilter.admits(e) for e in relation] == expected
            mask = prefilter.admission_mask(relation)
            assert [bool(mask >> i & 1) for i in range(n)] == expected
            assert popcount(mask) == sum(expected)

        # The registry's spec over a bank other patterns filled first.
        bank = PredicateBank()
        bank.intern_const("kind", "=", "B")
        bank.intern_const("other", ">", 0)
        spec = AdmissionSpec(bank, pattern)
        expected = [reference_admits(pattern, "conjunctive", e)
                    for e in relation]
        assert [spec.admitted(bank.truth(e)) for e in relation] == expected
        assert (spec.admitted_mask(bank.truth_columns(relation), full)
                == plan.prefilter("conjunctive").admission_mask(relation))
        spec.release(bank)
        assert len(bank) == 2

        # The event alphabet: each letter is its readers' condition.
        automaton = plan.automaton
        for predicate in automaton.event_alphabet:
            assert predicate.readers
        for event in relation:
            cls = automaton.classify(event)
            for transition in automaton.transitions:
                for anchored in transition.event_checks:
                    right = (repr(anchored.right.value)
                             if anchored.is_constant
                             else anchored.right.attribute)
                    text = f"{anchored.left.attribute} {anchored.op} {right}"
                    # (Equal unhashable constants print alike, a slot each.)
                    letters = [predicate
                               for predicate in automaton.event_alphabet
                               if predicate.text == text
                               and transition in predicate.readers]
                    assert letters
                    holds = anchored.evaluate_events(event, event)
                    assert all(bool(cls & letter.bit) == holds
                               for letter in letters)

        # A plan and its automaton survive pickle with the same answers.
        shipped = pickle.loads(pickle.dumps(plan))
        assert answers(shipped, relation) == answers(plan, relation)

    def test_a_self_condition_is_keyed_without_its_variable(self):
        bank = PredicateBank()
        a, b = var("a"), var("b")
        first = bank.intern(Condition(Attr(a, "X"), "<", Attr(a, "Y")))
        again = bank.intern(Condition(Attr(b, "X"), "<", Attr(b, "Y")))
        other = bank.intern(Condition(Attr(b, "Y"), "<", Attr(b, "X")))
        assert first == again != other
        assert bank.refcount(first) == 2
        assert bank.text(first) == "X < Y"
        assert bank.truth(Event(ts=1, X=1, Y=2)) == 1 << first
        bank.release(first)
        bank.release(again)
        assert len(bank) == 1 and bank.truth(Event(ts=1, X=1, Y=2)) == 0

    def test_an_unhashable_constant_equals_only_itself(self):
        bank = PredicateBank()
        shared = bank.intern_const("tags", "=", SHARED_TAGS)
        assert bank.intern_const("tags", "=", SHARED_TAGS) == shared
        assert bank.intern_const("tags", "=", list(SHARED_TAGS)) != shared


class TestItStaysOne:
    """``OPERATORS`` is what evaluating a comparison takes, so who
    names it is who can evaluate one: its definition, the bank, and the
    binding rows of ``Θδ`` (two events, not one)."""

    SRC = Path(repro.__file__).parent

    def test_operators_is_imported_by_the_bank_and_the_binding_rows(self):
        importers = {
            str(path.relative_to(self.SRC))
            for path in self.SRC.rglob("*.py")
            if re.search(r"\bOPERATORS\b", path.read_text())}
        bank = Path(importlib.import_module(
            PredicateBank.__module__).__file__).relative_to(self.SRC)
        assert importers == {"core/conditions.py", str(bank),
                             "automaton/transitions.py"}

    def test_the_scalar_filter_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.automaton.filtering")
        assert not hasattr(repro, "EventFilter")
        assert not hasattr(repro.automaton, "EventFilter")


class TestOneAdmissionPath:
    """Admission has one path: every executor is handed the plan's
    :class:`~repro.plan.prefilter.VectorizedPrefilter` and asks its
    ``admits`` — no adapter in between, no second batch route."""

    SRC = Path(repro.__file__).parent

    def test_one_class_decides_admission(self):
        owners = set()
        for path in self.SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ClassDef):
                    continue
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name == "admits"
                            and [a.arg for a in item.args.args]
                            == ["self", "event"]):
                        owners.add(node.name)
        assert owners == {"VectorizedPrefilter"}

    def test_batch_runs_go_through_the_plan_executor(self):
        assert "SESExecutor(" not in inspect.getsource(
            plan_module.PatternPlan.match)
        assert "SESExecutor(" not in inspect.getsource(registry_module)
        assert inspect.getsource(plan_module).count("SESExecutor(") == 1

    def test_trim_is_the_only_optimization(self):
        assert plan_module.OPTIMIZATIONS == ("trim",)


class TestOneExecutor:
    """Algorithms 1–2 have one implementation and Ω one shape: no class
    under ``src/repro`` subclasses ``SESExecutor``, and every instance
    resting in Ω has bound an event, so the executor tests for no other
    kind."""

    SRC = Path(repro.__file__).parent

    def test_nothing_subclasses_the_executor(self):
        subclasses = []
        for path in self.SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef) and any(
                        ast.unparse(base).split(".")[-1] == "SESExecutor"
                        for base in node.bases):
                    subclasses.append(f"{path.name}:{node.name}")
        assert subclasses == []

    def test_the_pruning_executor_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.automaton.pruning")

    def test_the_executor_handles_no_unbound_resident(self):
        source = Path(executor_module.__file__).read_text()
        for seam in ("visits_every_instance", "is_start", "min_ts is None"):
            assert seam not in source, seam

    def test_plan_match_has_no_history_knobs(self):
        parameters = inspect.signature(plan_module.PatternPlan.match).parameters
        assert "record_history" not in parameters
        assert "history_max_samples" not in parameters


class TestOneStartDecision:
    """Whether an event's fresh start-state instance can fire is asked
    once, of the automaton's step table (its start row), by the
    executor: no caller passes the answer down, the registry keeps no
    start gate of its own, and what is left of ``StartGate`` only
    interns predicates."""

    SRC = Path(repro.__file__).parent

    def test_no_module_names_allow_start(self):
        naming = [str(path.relative_to(self.SRC))
                  for path in self.SRC.rglob("*.py")
                  if "allow_start" in path.read_text()]
        assert naming == []

    def test_the_registry_keeps_no_start_gate(self):
        assert "StartGate" not in Path(registry_module.__file__).read_text()
        assert not hasattr(registry_module.PatternRegistry,
                           "prefix_group_count")

    def test_the_start_gate_is_a_constructor_only(self):
        from repro.registry.admission import StartGate
        methods = [name for name, value in vars(StartGate).items()
                   if inspect.isfunction(value)
                   or isinstance(value, (staticmethod, classmethod,
                                         property))]
        assert methods == ["__init__"]


class TestOneHTTPServer:
    """HTTP has one implementation: both listeners serve through
    ``repro.net``'s request reader and response writer, so no module
    under ``src/repro`` imports ``http.server`` or ``socketserver``, the
    knobs that only the second stack needed are gone, and ``import
    repro`` loads no HTTP, mail, TLS or event-loop machinery."""

    SRC = Path(repro.__file__).parent

    def test_no_module_imports_the_stdlib_http_server(self):
        imports = []
        for path in self.SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module] + [f"{node.module}.{alias.name}"
                                             for alias in node.names]
                else:
                    continue
                imports += [f"{path.name}:{name}" for name in names
                            if name in ("http.server", "socketserver")]
        assert imports == []

    def test_the_second_stacks_knobs_are_gone(self):
        from repro.net import PushServer
        from repro.obs import ObsServer
        assert "handler_timeout" not in inspect.signature(
            ObsServer.__init__).parameters
        assert "retry_after_ms" not in inspect.signature(
            PushServer.__init__).parameters

    def test_import_repro_loads_no_server_machinery(self):
        heavy = ("http.server", "http.client", "email", "ssl", "asyncio")
        probe = ("import sys, repro; print(' '.join(m for m in "
                 f"{heavy!r} if m in sys.modules))")
        # -S: what repro imports, not what a site .pth file imports.
        loaded = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True,
            text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(self.SRC.parent)})
        assert loaded.stdout.split() == []

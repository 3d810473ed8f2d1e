"""Tests for EXPLAIN / EXPLAIN ANALYZE (repro.explain).

Covers the static report, the counting-automaton analysis and its exact
reconciliation with executor metrics under serial, pooled and sharded
execution, the three renderers, the CLI surface, and the analyze-off
overhead gate (the production hot path must not pay for the explain
machinery).
"""

import json
import multiprocessing

import pytest

import repro
from repro import Event, EventRelation, SESPattern
from repro.automaton.transitions import Transition
from repro.explain import (CountingTransition, clear_stats_store,
                           counting_automaton, explain, explain_analyze,
                           stats_store)
from repro.explain.stats import stats_key
from repro.obs import Observability

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Every variable equi-joins on ID, so the pattern partitions/shards.
JOINED = SESPattern(
    sets=[["a", "b"], ["c"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'",
                "a.ID = b.ID", "a.ID = c.ID", "b.ID = c.ID"],
    tau=50,
)


def make_events(n_keys=6, reps=2):
    events = []
    ts = 0
    for _ in range(reps):
        for key in range(n_keys):
            for kind in ("A", "B", "C"):
                ts += 1
                events.append(Event(ts=ts, eid=f"e{ts}", kind=kind, ID=key))
    return events


@pytest.fixture
def relation():
    return EventRelation(make_events())


@pytest.fixture(autouse=True)
def fresh_stats(monkeypatch):
    """Isolate the process-global statistics store per test."""
    monkeypatch.delenv("REPRO_STATS_PATH", raising=False)
    monkeypatch.delenv("REPRO_STATS_DISABLE", raising=False)
    clear_stats_store()
    yield
    clear_stats_store()


def passes_sum(report):
    return sum(t["passes"] for t in report.analysis["transitions"])


class TestStaticExplain:
    def test_report_sections(self, q1):
        report = explain(q1)
        data = report.to_dict()
        for section in ("fingerprint", "pattern", "automaton", "transitions",
                        "prefilter", "complexity", "cache"):
            assert section in data, section
        assert data["automaton"]["states"] >= 2
        assert data["transitions"], "no transition entries"

    def test_prefilter_predicates_listed(self, q1):
        report = explain(q1)
        conjunctive = report.prefilter["conjunctive"]
        assert conjunctive["predicates"], "Q1 has constant conditions"

    def test_no_side_effects_on_production_plan(self, q1):
        explain(q1)
        plan = repro.compile(q1)
        for transition in plan.automaton.transitions:
            assert not isinstance(transition, CountingTransition)

    def test_cache_provenance(self, q1):
        repro.compile(q1)
        report = explain(q1)
        assert report.cache["cached"] is True

    def test_says_which_states_are_looked_up_by_join_value(self, q1):
        """The paper's Q1 joins ``d`` and ``p+`` on ``c.ID``: ``{c}``,
        ``{c, d}`` and ``{c, p+}`` are indexed by it.  ``{d}``, ``{p+}``
        and ``{d, p+}`` have a transition with nothing to compare yet,
        and ``{c, d, p+}`` compares ``p+`` with ``c.ID`` but ``b`` with
        ``d.ID``: those four are walked."""
        report = explain(q1)
        probes = {t["label"]: t["probe"] for t in report.transitions}
        assert probes["c --d--> cd"] == "c.ID"
        assert probes["cp+ --p--> cp+"] == "c.ID"
        assert probes["d --c--> cd"] is None
        assert probes["cdp+ --b--> bcdp+"] is None
        assert probes["∅ --c--> c"] is None
        gaps = {gap["state"]: gap["reason"]
                for gap in report.automaton["unindexed"]}
        assert sorted(gaps) == ["cdp+", "d", "dp+", "p+"]
        assert gaps["d"] == ("transition `p+` has no equality check "
                             "against a bound variable")
        assert gaps["cdp+"] == ("its transitions share no equality check "
                                "against one bound attribute")
        text = report.to_text()
        assert "4 resting state(s) walked whole" in text
        assert "{d}: transition `p+` has no equality check" in text
        assert "c --d--> cd  probe: c.ID" in text
        assert "d --c--> cd  probe: none" in text
        assert 'tooltip="probe: c.ID"' in report.to_dot()
        assert json.loads(report.to_json())["transitions"][0]["probe"] is None


class TestEventAlphabet:
    def test_explain_lists_each_distinct_predicate_with_its_readers(self, q1):
        report = explain(q1)
        alphabet = report.automaton["alphabet"]
        plan = repro.compile(q1)
        assert [letter["predicate"] for letter in alphabet] == [
            predicate.text for predicate in plan.automaton.event_alphabet]
        # One predicate per label however many transitions test it ...
        assert len(alphabet) == len({
            repr(c.right) for c in q1.conditions if c.is_constant})
        readers = [label for letter in alphabet
                   for label in letter["readers"]]
        # ... and every transition reads exactly its own variable's.
        assert sorted(readers) == sorted(
            entry["label"] for entry in report.transitions)
        text = report.to_text()
        assert (f"event alphabet: {len(alphabet)} predicate(s), each "
                f"evaluated once per event") in text
        first = alphabet[0]
        assert (f"      {first['predicate']}  read by: "
                + "; ".join(first["readers"])) in text
        assert json.loads(report.to_json())["automaton"]["alphabet"] \
            == alphabet

    def test_analyze_counts_decisions_not_table_construction(self, relation):
        """The shadow automaton memoises no rows, so an event-only
        condition is charged once per (occupied state, event) however
        often an event class repeats; the plan's own automaton keeps its
        table out of it."""
        plan = repro.compile(JOINED)
        shadow, _ = counting_automaton(plan.automaton)
        assert shadow.step_table_cap == 0 < plan.automaton.step_table_cap
        report = explain_analyze(JOINED, relation)
        start = [t for t in report.analysis["transitions"]
                 if t["source"] == "∅"]
        # The first start transition's constant condition is decided for
        # every processed event (each gets a fresh start instance), far
        # more often than there are event classes to build rows for.
        processed = report.analysis["events_processed"]
        assert start[0]["conditions"][0]["evaluations"] == processed
        assert processed > 2 ** len(plan.automaton.event_alphabet)


class TestCountingAutomaton:
    def test_shadow_counts_production_does_not(self, q1):
        plan = repro.compile(q1)
        shadow, counting = counting_automaton(plan.automaton)
        assert counting and all(isinstance(t, CountingTransition)
                                for t in counting)
        # the original automaton's transitions are untouched
        for transition in plan.automaton.transitions:
            assert not isinstance(transition, CountingTransition)

    def test_base_admits_is_uninstrumented(self):
        """The production ``Transition`` admission halves must not
        reference any counting state."""
        names = (Transition.admits_event.__code__.co_names
                 + Transition.admits_bindings.__code__.co_names)
        for counter in ("evaluations", "passes", "seconds",
                        "condition_evaluations", "condition_passes"):
            assert counter not in names


class TestAnalyzeReconciliation:
    def test_serial(self, relation):
        report = explain_analyze(JOINED, relation)
        analysis = report.analysis
        assert analysis["reconciles"] is True
        assert passes_sum(report) == analysis["transitions_fired"]
        assert analysis["transition_passes"] == analysis["transitions_fired"]
        # ... and with the live executor metric of an ordinary run
        obs = Observability()
        repro.compile(JOINED).match(relation, observability=obs)
        fired = obs.registry.snapshot()["ses_transitions_fired_total"]
        assert passes_sum(report) == fired["value"]

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_pool_workers(self, relation):
        from repro.parallel import ParallelPartitionedMatcher
        report = explain_analyze(JOINED, relation)
        obs = Observability()
        ParallelPartitionedMatcher(JOINED, workers=2,
                                   observability=obs).run(relation)
        fired = obs.registry.snapshot()["ses_transitions_fired_total"]
        assert passes_sum(report) == fired["value"]

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_sharded_stream(self, relation):
        from repro.parallel import ShardedStreamMatcher
        report = explain_analyze(JOINED, relation)
        obs = Observability()
        matcher = ShardedStreamMatcher(JOINED, workers=2, observability=obs)
        for event in relation:
            matcher.push(event)
        matcher.close()
        fired = obs.registry.snapshot()["ses_transitions_fired_total"]
        assert passes_sum(report) == fired["value"]

    def test_analysis_event_accounting(self, relation):
        report = explain_analyze(JOINED, relation)
        analysis = report.analysis
        assert analysis["events"] == len(relation)
        assert (analysis["events_processed"]
                == analysis["events"] - analysis["events_filtered"])

    def test_records_into_stats_store(self, relation):
        explain_analyze(JOINED, relation)
        record = stats_store().get(stats_key(JOINED))
        assert record is not None
        assert record["runs"] == 1
        assert record["events"] == len(relation)
        assert record["conditions"], "condition tallies missing"

    def test_record_stats_opt_out(self, relation):
        explain_analyze(JOINED, relation, record_stats=False)
        assert stats_store().get(stats_key(JOINED)) is None


class TestRenderers:
    @pytest.fixture
    def analyzed(self, relation):
        return explain_analyze(JOINED, relation)

    def test_text(self, analyzed):
        text = analyzed.to_text()
        assert text.startswith("EXPLAIN ANALYZE")
        assert "reconciled with executor counters" in text
        assert "prefilter" in text

    def test_static_text_is_plain_explain(self, q1):
        assert explain(q1).to_text().startswith("EXPLAIN plan")

    def test_json_round_trips(self, analyzed):
        data = json.loads(analyzed.to_json())
        assert data["analysis"]["reconciles"] is True

    def test_dot_is_graphviz_with_hotness(self, analyzed):
        dot = analyzed.to_dot()
        assert dot.startswith("digraph EXPLAIN {")
        assert dot.rstrip().endswith("}")
        assert "penwidth=" in dot and "color=" in dot

    def test_static_dot_has_no_hotness(self, q1):
        dot = explain(q1).to_dot()
        assert dot.startswith("digraph EXPLAIN {")
        assert "penwidth=" not in dot

    def test_render_rejects_unknown_format(self, analyzed):
        with pytest.raises(ValueError):
            analyzed.render("yaml")


class TestCli:
    QUERY = ("PATTERN PERMUTE(a, b) THEN c "
             "WHERE a.kind = 'A' AND b.kind = 'B' AND c.kind = 'C' "
             "AND a.ID = b.ID AND a.ID = c.ID WITHIN 50")

    @pytest.fixture
    def csv_path(self, tmp_path, relation):
        from repro.storage import save_relation
        path = tmp_path / "events.csv"
        save_relation(relation, path)
        return path

    def test_explain_static(self, capsys):
        from repro.cli import main
        assert main(["explain", "--query", self.QUERY]) == 0
        assert "EXPLAIN plan" in capsys.readouterr().out

    def test_explain_analyze_json(self, csv_path, capsys):
        from repro.cli import main
        code = main(["explain", "--query", self.QUERY, "--analyze",
                     "--data", str(csv_path), "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["analysis"]["reconciles"] is True
        assert data["analysis"]["events"] == 36

    def test_explain_dot_to_file(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "plan.dot"
        assert main(["explain", "--query", self.QUERY, "--dot",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("digraph EXPLAIN {")

    def test_analyze_requires_data(self, capsys):
        from repro.cli import main
        assert main(["explain", "--query", self.QUERY, "--analyze"]) != 0


class TestAnalyzeOffOverhead:
    def test_plan_uninstrumented_after_analyze(self):
        """The counting automaton is a *shadow*: running an analysis
        leaves the shared compiled plan uninstrumented.  (What the
        analyze-off path costs is measured end to end by the ledger
        workloads, ``python3 -m ledger``, not by a timing assertion.)"""
        from repro.data import experiment1_pattern, generate_chemo
        relation = EventRelation(generate_chemo(patients=5, cycles=2,
                                                seed=7))
        pattern = experiment1_pattern(4, exclusive=True)
        plan = repro.compile(pattern)
        explain_analyze(pattern, relation)
        for transition in plan.automaton.transitions:
            assert not isinstance(transition, CountingTransition)

"""Match provenance and causal tracing: the lineage layer.

Covers the trace-context identity scheme, deterministic sampling,
provenance reconciliation against every delivery surface (serial batch,
pool workers, sharded streaming, supervised chaos restarts, the
registry), the Hypothesis replay property (a match's recorded event ids
reproduce it when replayed alone), the zero-cost disabled path, and the
rendering/export surfaces (text/json/dot, Chrome trace, OTLP spans,
``/debug/lineage``, ``repro trace``).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import Event, EventRelation, SESPattern
from repro.obs import (LineageRecorder, Observability, TraceConfig,
                       TraceContext, match_id, sampled,
                       to_chrome_trace, to_otel_spans, to_prometheus,
                       trace_id_for, TRACE_MAX_ENV, TRACE_SAMPLE_ENV,
                       TRACE_SLOW_MS_ENV)
from repro.parallel.codec import (attach_trace_ctx, decode_event,
                                  encode_event, event_trace_ctx)

from repro.resilience.checkpoint import restore_state, snapshot_state

from conftest import bindings

#: Two-variable pattern over labelled events — one match per (A, B) pair
#: inside the window.
AB = SESPattern(
    sets=[["a"], ["b"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'"],
    tau=20,
)

#: Every variable equi-joins on ID: partitionable/shardable.
JOINED = SESPattern(
    sets=[["a", "b"], ["c"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'",
                "a.ID = b.ID", "a.ID = c.ID", "b.ID = c.ID"],
    tau=50,
)


def ab_events(pairs=3, gap=3):
    events = []
    ts = 0
    for _ in range(pairs):
        ts += 1
        events.append(Event(ts=ts, eid=f"a{ts}", kind="A"))
        ts += gap
        events.append(Event(ts=ts, eid=f"b{ts}", kind="B"))
        ts += 20  # separate the pairs past tau
    return events


def keyed_events(n_keys=6, reps=1):
    events = []
    ts = 0
    for _ in range(reps):
        for key in range(n_keys):
            for kind in ("A", "B", "C"):
                ts += 1
                events.append(Event(ts=ts, eid=f"e{ts}", kind=kind, ID=key))
    return events


def traced_obs(rate=1.0, **config):
    return Observability(
        lineage=LineageRecorder(TraceConfig(sample_rate=rate, **config)))


# ----------------------------------------------------------------------
# Identity and sampling
# ----------------------------------------------------------------------
class TestIdentity:
    def test_trace_id_is_deterministic_and_content_derived(self):
        a = Event(ts=1, eid="x", kind="A")
        b = Event(ts=1, eid="x", kind="A")
        assert trace_id_for(a) == trace_id_for(b)
        assert len(trace_id_for(a)) == 16
        assert trace_id_for(a) != trace_id_for(Event(ts=2, eid="x"))

    def test_anonymous_events_diverge_on_attributes(self):
        assert (trace_id_for(Event(ts=1, kind="A"))
                != trace_id_for(Event(ts=1, kind="B")))

    def test_match_id_is_stable_across_recomputation(self):
        matches = repro.query(AB, ab_events(pairs=2)).substitutions
        assert len(matches) == 2
        ids = [match_id(s) for s in matches]
        assert ids == [match_id(s) for s in matches]
        assert len(set(ids)) == 2

    def test_sampling_is_deterministic_with_fast_paths(self):
        tid = trace_id_for(Event(ts=1, eid="x"))
        assert sampled(tid, 1.0) and not sampled(tid, 0.0)
        assert all(sampled(t, 0.5) == sampled(t, 0.5)
                   for t in (trace_id_for(Event(ts=i, eid=f"e{i}"))
                             for i in range(64)))

    def test_half_rate_samples_roughly_half(self):
        ids = [trace_id_for(Event(ts=i, eid=f"e{i}")) for i in range(400)]
        kept = sum(sampled(t, 0.5) for t in ids)
        assert 120 < kept < 280


class TestTraceConfig:
    def test_defaults_are_off(self):
        config = TraceConfig()
        assert not config.enabled
        assert config.slow_seconds == 0.1 and config.max_traces == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(sample_rate=1.5)
        with pytest.raises(ValueError):
            TraceConfig(sample_rate=0.5, max_traces=0)

    def test_from_env_reads_and_clamps(self):
        config = TraceConfig.from_env({TRACE_SAMPLE_ENV: "2.0",
                                       TRACE_SLOW_MS_ENV: "250",
                                       TRACE_MAX_ENV: "16"})
        assert config.sample_rate == 1.0
        assert config.slow_seconds == 0.25
        assert config.max_traces == 16

    def test_from_env_malformed_values_fall_back(self):
        config = TraceConfig.from_env({TRACE_SAMPLE_ENV: "lots",
                                       TRACE_MAX_ENV: "-3"})
        assert config.sample_rate == 0.0
        assert config.max_traces == 1

    def test_env_knob_creates_the_recorder(self, monkeypatch):
        monkeypatch.delenv(TRACE_SAMPLE_ENV, raising=False)
        assert Observability().lineage is None
        monkeypatch.setenv(TRACE_SAMPLE_ENV, "1")
        obs = Observability()
        assert obs.lineage is not None
        assert obs.lineage.config.sample_rate == 1.0


class TestWireFormat:
    def test_traced_wire_roundtrip(self):
        event = Event(ts=3, eid="e3", kind="A")
        ctx = TraceContext.for_event(event)
        wire = attach_trace_ctx(encode_event(event), ctx.to_wire())
        assert event_trace_ctx(wire) == ctx.to_wire()
        assert decode_event(wire) == event
        assert event_trace_ctx(encode_event(event)) is None

    def test_context_wire_roundtrip_preserves_hops(self):
        ctx = TraceContext.for_event(Event(ts=1, eid="x"))
        ctx.hop("shard:1", "recv")
        back = TraceContext.from_wire(ctx.to_wire())
        assert back.trace_id == ctx.trace_id
        assert back.hops == ctx.hops


# ----------------------------------------------------------------------
# Serial batch delivery
# ----------------------------------------------------------------------
class TestSerialLineage:
    def test_every_match_carries_provenance(self):
        obs = traced_obs()
        result = repro.query(AB, ab_events(pairs=3), observability=obs)
        matches = list(result)
        assert len(matches) == 3
        for match in matches:
            record = match.provenance
            assert record is not None
            assert record.delivered == 1
            assert record.delivered_by == "serial"
            assert record.event_ids == tuple(
                e.eid for e in match.substitution.events())
            assert record.path == ("a", "b")
            assert record.latency() is not None and record.latency() >= 0.0

    def test_reconciliation_is_exact(self):
        obs = traced_obs()
        result = repro.query(AB, ab_events(pairs=3), observability=obs)
        report = obs.lineage.reconcile(result.substitutions)
        assert report["ok"], report
        assert report["matches"] == 3

    def test_stage_timestamps_are_ordered(self):
        obs = traced_obs()
        result = repro.query(AB, ab_events(pairs=1), observability=obs)
        record = list(result)[0].provenance
        stages = record.stages
        assert stages["ingest"] <= stages["accept"] <= stages["deliver"]
        assert all(seconds >= 0.0
                   for _, seconds in record.stage_breakdown())

    def test_latency_histograms_published(self):
        obs = traced_obs()
        repro.query(AB, ab_events(pairs=3), observability=obs)
        snapshot = obs.snapshot()
        assert snapshot["ses_event_latency_e2e_seconds"]["count"] == 3
        assert snapshot["ses_event_latency_stage_match_seconds"]["count"] == 3
        assert snapshot["ses_lineage_records_total"]["value"] >= 3

    def test_unsampled_matches_are_dropped_after_counting(self):
        obs = traced_obs(rate=1e-9, slow_seconds=3600.0)
        result = repro.query(AB, ab_events(pairs=3), observability=obs)
        assert all(m.provenance is None for m in result)
        summary = obs.lineage.summary()
        assert summary["dropped"] >= 3
        snapshot = obs.snapshot()
        # Delivery is still counted before the record is dropped.
        assert snapshot["ses_event_latency_e2e_seconds"]["count"] == 3
        assert snapshot["ses_lineage_dropped_total"]["value"] >= 3

    def test_slow_traces_are_promoted_even_when_unsampled(self):
        obs = traced_obs(rate=1e-9, slow_seconds=0.0)
        result = repro.query(AB, ab_events(pairs=1), observability=obs)
        record = list(result)[0].provenance
        assert record is not None and record.kept == "slow"
        assert obs.snapshot()["ses_lineage_slow_kept_total"]["value"] == 1

    def test_duplicate_delivery_is_counted(self):
        obs = traced_obs()
        lineage = obs.lineage
        result = repro.query(AB, ab_events(pairs=1), observability=obs)
        substitution = result.substitutions[0]
        lineage.deliver(substitution, by="again")
        report = lineage.reconcile(result.substitutions)
        assert not report["ok"] and report["duplicates"]
        assert lineage.summary()["duplicates"] == 1

    def test_aggregation_queries_carry_group_provenance(self):
        obs = traced_obs()
        series = repro.query(
            "SELECT count(*) AS n FROM PATTERN PERMUTE(a, b) "
            "WHERE a.kind = 'A' AND b.kind = 'B' WITHIN 20",
            ab_events(pairs=3), observability=obs)
        assert series["n"] == 3
        record = series.provenance
        assert record is not None
        assert record.delivered == series.matches_folded
        assert len(record.event_ids) > 0


# ----------------------------------------------------------------------
# Disabled path
# ----------------------------------------------------------------------
class TestDisabledPath:
    """What tracing costs when off is measured end to end by all four
    ledger workloads (``python3 -m ledger``; ``trace.overhead_ratio`` for
    the on/off delta), not by a wall-clock assertion here."""

    def test_executor_carries_a_recorder_only_when_sampling(self,
                                                           monkeypatch):
        monkeypatch.delenv(TRACE_SAMPLE_ENV, raising=False)
        plan = repro.compile(AB)
        assert plan.executor(observability=Observability()).lineage is None
        assert plan.executor(observability=traced_obs()).lineage is not None


# ----------------------------------------------------------------------
# Parallel delivery surfaces
# ----------------------------------------------------------------------
class TestPoolLineage:
    def test_pool_matches_reconcile_exactly(self, monkeypatch):
        monkeypatch.setenv(TRACE_SAMPLE_ENV, "1")
        obs = traced_obs()
        events = keyed_events(n_keys=6, reps=2)
        result = repro.query(JOINED, events, workers=2, observability=obs)
        serial = repro.query(JOINED, events)
        assert ({bindings(s) for s in result.substitutions}
                == {bindings(s) for s in serial.substitutions})
        report = obs.lineage.reconcile(result.substitutions)
        assert report["ok"], report
        for match in result:
            assert match.provenance is not None
            assert match.provenance.delivered == 1
            assert match.provenance.delivered_by == "pool:2"
            assert match.provenance.event_ids == tuple(
                e.eid for e in match.substitution.events())


class TestStreamLineage:
    def test_continuous_matcher_stamps_deliveries(self):
        obs = traced_obs()
        matcher = repro.ContinuousMatcher(AB, observability=obs)
        seen = []
        matcher.on_match(seen.append)
        matcher.push_many(ab_events(pairs=2))
        matcher.close()
        assert len(seen) == 2
        for match in seen:
            assert match.provenance is not None
            assert match.provenance.delivered_by == "stream"
        assert obs.lineage.reconcile(matcher.matches)["ok"]

    def test_a_restored_instance_keeps_the_path_it_fired(self):
        """``b`` then ``a`` at one timestamp fire in the order ``b, a``,
        while the canonical binding order reads ``a, b``.  The path is
        read off the accepted buffer's chain, which a checkpoint carries
        along — so the match restored in between still gets the path
        that fired, not the canonical order as a stand-in."""
        plan = repro.compile(SESPattern(
            sets=[["a", "b"]], conditions=["a.kind = 'A'", "b.kind = 'B'"],
            tau=20))
        b1, a1 = (Event(ts=1, eid="b1", kind="B"),
                  Event(ts=1, eid="a1", kind="A"))
        first = repro.ContinuousMatcher(plan, observability=traced_obs())
        first.push(b1)
        obs = traced_obs()
        resumed = repro.ContinuousMatcher(plan, observability=obs)
        restore_state(resumed, snapshot_state(first))
        resumed.push(a1)
        (match,) = resumed.close()
        assert tuple(v.name for v, _ in match) == ("a", "b")
        assert obs.lineage.provenance_for(match).path == ("b", "a")

    def test_no_state_per_instance_outlives_the_run(self):
        """What the recorder holds after a run is bounded by its
        configuration: contexts and records, nothing keyed by the
        instances the run created and dropped."""
        obs = traced_obs(max_traces=8)
        executor = repro.compile(JOINED).executor(observability=obs)
        executor.run(keyed_events(n_keys=6, reps=20))
        assert executor.stats.instances_created > 300
        assert executor.active_instances == 0
        recorder = obs.lineage
        held = {name: len(value) for name, value in vars(recorder).items()
                if isinstance(value, (dict, list, set))}
        assert all(size <= 4 * 8 for size in held.values()), held
        assert not any(isinstance(key, int)
                       for value in vars(recorder).values()
                       if isinstance(value, dict) for key in value)

    def test_partitioned_matcher_shares_one_recorder(self):
        from repro.stream import PartitionedContinuousMatcher
        obs = traced_obs()
        matcher = PartitionedContinuousMatcher(
            JOINED, partition_by="ID", observability=obs)
        seen = []
        matcher.on_match(lambda key, match: seen.append(match))
        reported = matcher.push_many(keyed_events(n_keys=4))
        reported += matcher.close()
        assert seen
        assert [match.substitution for match in seen] == reported
        for match in seen:
            assert match.provenance is not None
        assert obs.lineage.reconcile(reported)["ok"]
        merged = matcher.aggregate()
        assert merged.lineage is obs.lineage


class TestShardedLineage:
    def test_sharded_matches_reconcile_with_delivering_shard(self,
                                                             monkeypatch):
        monkeypatch.setenv(TRACE_SAMPLE_ENV, "1")
        from repro.parallel import ShardedStreamMatcher
        obs = traced_obs()
        events = keyed_events(n_keys=6, reps=2)
        matcher = ShardedStreamMatcher(JOINED, workers=2, partition_by="ID",
                                       observability=obs)
        delivered = []
        matcher.on_match(delivered.append)
        with matcher:
            matcher.push_many(events)
        report = obs.lineage.reconcile(matcher.matches)
        assert report["ok"], report
        assert delivered
        for match in delivered:
            record = match.provenance
            assert record is not None
            assert record.delivered == 1
            assert record.delivered_by.startswith("shard:")
            # The worker adopted the parent's context: its hop list
            # names both sites.
            sites = {site for ctx in (obs.lineage.context_for(e)
                                      for e in match.substitution.events())
                     if ctx is not None for site, _, _ in ctx.hops}
            assert "main" in sites

    def test_registry_deliveries_are_stamped(self):
        obs = traced_obs()
        registry = repro.PatternRegistry(observability=obs)
        registry.register(AB, pattern_id="ab")
        reported = registry.push_many(ab_events(pairs=2))
        reported.extend(registry.close())
        assert len(reported) == 2
        for match in reported:
            assert match.provenance is not None
            assert match.provenance.pattern_id == "ab"
            assert match.provenance.delivered_by == "registry"
        assert obs.lineage.reconcile(reported)["ok"]


# ----------------------------------------------------------------------
# Chaos: lineage survives crashes, replay does not duplicate it
# ----------------------------------------------------------------------
class TestChaosLineage:
    def _supervised(self, faults, obs, **kwargs):
        from repro import (DeadLetterQueue, RestartPolicy, Supervisor)
        from repro.parallel import ShardedStreamMatcher
        supervisor = Supervisor(
            restart=RestartPolicy(backoff=0.01, max_backoff=0.05,
                                  max_restarts=5),
            checkpoint_every=kwargs.pop("checkpoint_every", 4),
            quarantine_after=kwargs.pop("quarantine_after", 2),
            faults=faults, dead_letter=DeadLetterQueue())
        matcher = ShardedStreamMatcher(
            JOINED, workers=2, partition_by="ID", supervisor=supervisor,
            observability=obs, **kwargs)
        return matcher, supervisor

    def test_restart_replay_keeps_attribution_exactly_once(self,
                                                           monkeypatch):
        monkeypatch.setenv(TRACE_SAMPLE_ENV, "1")
        from repro import FaultPlan
        obs = traced_obs()
        events = keyed_events(n_keys=6, reps=2)
        faults = FaultPlan().kill(0, 4).kill(1, 3)
        matcher, supervisor = self._supervised(faults, obs)
        with matcher:
            matcher.push_many(events)
        assert supervisor.restarts_total == 2
        report = obs.lineage.reconcile(matcher.matches)
        assert report["ok"], report
        assert obs.lineage.summary()["duplicates"] == 0

    def test_quarantined_event_trace_is_force_kept(self, monkeypatch):
        monkeypatch.setenv(TRACE_SAMPLE_ENV, "1")
        from repro import FaultPlan
        obs = traced_obs()
        events = keyed_events(n_keys=6)
        faults = FaultPlan().corrupt(0, 2)
        matcher, supervisor = self._supervised(faults, obs)
        with matcher:
            matcher.push_many(events)
        assert supervisor.quarantined_total == 1
        quarantined = [r for r in obs.lineage.records()
                       if r.kept == "quarantined"]
        assert len(quarantined) == 1
        record = quarantined[0]
        assert record.delivered_by == "shard:0"
        assert record.match_id.startswith("quarantine:")
        assert obs.lineage.summary()["quarantined"] == 1
        # Match reconciliation still holds around the poison event.
        assert obs.lineage.reconcile(matcher.matches)["ok"]


# ----------------------------------------------------------------------
# Replay property: provenance is sufficient to reproduce the match
# ----------------------------------------------------------------------
@st.composite
def labelled_streams(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    kinds = draw(st.lists(st.sampled_from("AB"), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(min_value=1, max_value=9),
                         min_size=n, max_size=n))
    events, ts = [], 0
    for index, (kind, gap) in enumerate(zip(kinds, gaps)):
        ts += gap
        events.append(Event(ts=ts, eid=f"e{index}", kind=kind))
    return events


class TestReplayProperty:
    @settings(max_examples=40, deadline=None)
    @given(labelled_streams())
    def test_provenance_event_ids_reproduce_the_match(self, events):
        obs = traced_obs()
        result = repro.query(AB, events, observability=obs)
        for match in result:
            record = match.provenance
            assert record is not None
            subset = [e for e in events if e.eid in record.event_ids]
            assert len(subset) == len(record.event_ids)
            replayed = repro.query(AB, subset)
            assert bindings(match.substitution) in {
                bindings(s) for s in replayed.substitutions}


# ----------------------------------------------------------------------
# Export and merge plumbing
# ----------------------------------------------------------------------
class TestCrossProcessPlumbing:
    def test_export_absorb_roundtrip(self):
        obs = traced_obs()
        repro.query(AB, ab_events(pairs=2), observability=obs)
        other = LineageRecorder(TraceConfig(sample_rate=1.0))
        other.absorb(obs.lineage.export_record())
        assert {r.match_id for r in other.records()} == {
            r.match_id for r in obs.lineage.records()}

    def test_non_authoritative_export_zeroes_deliveries(self):
        worker = LineageRecorder(TraceConfig(sample_rate=1.0),
                                 site="shard:0")
        worker.authoritative = False
        matches = repro.query(AB, ab_events(pairs=1)).substitutions
        event = ab_events(pairs=1)[0]
        worker.note_ingest(event)
        worker.deliver(matches[0], by="shard:0")
        exported = worker.export_record()
        assert all(r["delivered"] == 0 for r in exported["records"])
        # The worker stamped "report", never "deliver".
        assert all("deliver" not in r["stages"]
                   for r in exported["records"])

    def test_dropped_records_are_not_resurrected_by_absorb(self):
        obs = traced_obs(rate=1e-9, slow_seconds=3600.0)
        result = repro.query(AB, ab_events(pairs=1), observability=obs)
        assert list(result)[0].provenance is None
        stale = LineageRecorder(TraceConfig(sample_rate=1.0))
        stale.deliver(result.substitutions[0], by="stale")
        obs.lineage.absorb(stale.export_record())
        assert obs.lineage.provenance_for(result.substitutions[0]) is None

    def test_lineage_rides_observability_snapshots(self):
        obs = traced_obs()
        repro.query(AB, ab_events(pairs=2), observability=obs)
        snapshot = obs.snapshot()
        assert snapshot["repro_lineage"]["type"] == "lineage"
        parent = Observability()
        parent.merge_snapshot(snapshot)
        assert parent.lineage is not None
        assert len(parent.lineage.records()) == len(obs.lineage.records())

    def test_retention_stays_bounded(self):
        obs = traced_obs(max_traces=4)
        repro.query(AB, ab_events(pairs=12), observability=obs)
        assert len(obs.lineage.records()) <= 4


# ----------------------------------------------------------------------
# Rendering and exporters
# ----------------------------------------------------------------------
class TestRendering:
    def _report(self):
        obs = traced_obs()
        repro.query(AB, ab_events(pairs=2), observability=obs)
        return obs.lineage.report()

    def test_text_names_events_path_and_latency(self):
        text = self._report().to_text()
        assert "LINEAGE" in text
        assert "a -> b" in text
        assert "latency:" in text

    def test_json_roundtrips(self):
        document = json.loads(self._report().to_json())
        assert document["summary"]["records"] >= 2
        assert all("match_id" in r for r in document["records"])

    def test_dot_draws_event_to_match_edges(self):
        dot = self._report().to_dot()
        assert dot.startswith("digraph LINEAGE")
        assert "doubleoctagon" in dot and "->" in dot

    def test_unknown_format_raises_like_explain(self):
        with pytest.raises(ValueError, match="unknown lineage format"):
            self._report().render("yaml")

    def test_otel_spans_shape(self):
        obs = traced_obs()
        repro.query(AB, ab_events(pairs=2), observability=obs)
        document = to_otel_spans(obs.lineage, service="test")
        scope = document["resourceSpans"][0]["scopeSpans"][0]
        spans = scope["spans"]
        assert len(spans) >= 2
        roots = [s for s in spans if "parentSpanId" not in s]
        assert len(roots) == 2
        for span in spans:
            assert len(span["traceId"]) == 32
            assert len(span["spanId"]) == 16
            assert int(span["endTimeUnixNano"]) >= int(
                span["startTimeUnixNano"])
        children = [s for s in spans if "parentSpanId" in s]
        assert {c["parentSpanId"] for c in children} <= {
            r["spanId"] for r in roots}

    def test_chrome_trace_lineage_process(self):
        obs = traced_obs()
        repro.query(AB, ab_events(pairs=2), observability=obs)
        document = to_chrome_trace(lineage=obs.lineage)
        lineage_events = [e for e in document["traceEvents"]
                          if e.get("cat") == "lineage"]
        assert len(lineage_events) == 2 * len(obs.lineage.records())
        assert all(e["pid"] == 3 for e in lineage_events)

    def test_prometheus_skips_the_lineage_record(self):
        obs = traced_obs()
        repro.query(AB, ab_events(pairs=1), observability=obs)
        text = to_prometheus(obs.snapshot())
        assert "repro_lineage" not in text
        assert "ses_event_latency_e2e_seconds_bucket" in text


# ----------------------------------------------------------------------
# Serving surface and CLI
# ----------------------------------------------------------------------
class TestObsServerLineage:
    def test_debug_lineage_routes(self):
        import urllib.error
        import urllib.request
        from repro.obs import ObsServer
        obs = traced_obs()
        repro.query(AB, ab_events(pairs=2), observability=obs)
        with ObsServer(lineage=lambda: obs.lineage) as server:
            assert "/debug/lineage" in server.routes
            with urllib.request.urlopen(
                    server.url + "/debug/lineage") as response:
                listing = json.load(response)
            assert listing["summary"]["records"] >= 2
            mid = listing["match_ids"][0]
            with urllib.request.urlopen(
                    server.url + f"/debug/lineage/{mid}") as response:
                record = json.load(response)
            assert record["match_id"] == mid
            assert record["event_ids"]
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    server.url + "/debug/lineage/nope")
            assert err.value.code == 404

    def test_route_404s_without_a_recorder(self):
        import urllib.error
        import urllib.request
        from repro.obs import ObsServer
        with ObsServer(lineage=lambda: None) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/debug/lineage")
            assert err.value.code == 404


class TestTraceCLI:
    def _csv(self, tmp_path):
        from repro.storage.csvio import save_relation
        path = tmp_path / "events.csv"
        save_relation(EventRelation(ab_events(pairs=2)), path)
        return path

    QUERY = ("PATTERN PERMUTE(a, b) WHERE a.kind = 'A' AND "
             "b.kind = 'B' WITHIN 20")

    def test_trace_text(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["trace", "--query", self.QUERY,
                     "--data", str(self._csv(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "LINEAGE" in out and "a -> b" in out

    def test_trace_json_and_otel_out(self, tmp_path, capsys):
        from repro.cli import main
        otel = tmp_path / "spans.json"
        assert main(["trace", "--query", self.QUERY,
                     "--data", str(self._csv(tmp_path)),
                     "--format", "json", "--otel-out", str(otel)]) == 0
        out = capsys.readouterr().out
        document = json.loads(out[:out.rindex("}") + 1])
        assert document["summary"]["records"] >= 2
        spans = json.loads(otel.read_text())
        assert spans["resourceSpans"][0]["scopeSpans"][0]["spans"]

    def test_trace_dot_to_file(self, tmp_path, capsys):
        from repro.cli import main
        out_path = tmp_path / "lineage.dot"
        assert main(["trace", "--query", self.QUERY,
                     "--data", str(self._csv(tmp_path)),
                     "--format", "dot", "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("digraph LINEAGE")

    def test_trace_rejects_bad_sample(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["trace", "--query", self.QUERY,
                     "--data", str(self._csv(tmp_path)),
                     "--sample", "1.5"]) == 1
        assert "sample" in capsys.readouterr().err

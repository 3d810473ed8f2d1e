"""Tests for the unified observability layer (repro.obs)."""

import json
import logging

import pytest

from repro.automaton.builder import build_automaton
from repro.automaton.executor import SESExecutor
from repro.obs import (NULL_REGISTRY, Counter, Gauge, Histogram,
                       MetricsRegistry, NullRegistry, Observability,
                       SpanTracer, configure_logging, get_logger, read_jsonl,
                       to_chrome_trace, to_jsonl, to_prometheus,
                       verbosity_level, write_chrome_trace, write_jsonl)
from repro.stream.partitioned import PartitionedContinuousMatcher
from repro.stream.runner import ContinuousMatcher

from conftest import ev, match, rel


# ----------------------------------------------------------------------
# Metric primitives
# ----------------------------------------------------------------------
class TestCounter:
    def test_increments(self):
        c = Counter("events")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("events").inc(-1)

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(2)
        b.counter("x").inc(3)
        a.merge_snapshot(b.snapshot())
        assert a.counter("x").value == 5


class TestGauge:
    def test_tracks_high_water(self):
        g = Gauge("omega")
        g.set(7)
        g.set(3)
        assert g.value == 3
        assert g.max_value == 7

    def test_inc_dec(self):
        g = Gauge("omega")
        g.inc(5)
        g.dec(2)
        assert g.value == 3
        assert g.max_value == 5

    def test_merge_sums_values_and_peaks(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("omega").set(2)
        b.gauge("omega").set(5)
        b.gauge("omega").set(4)
        a.merge_snapshot(b.snapshot())
        assert a.gauge("omega").value == 6
        assert a.gauge("omega").max_value == 7


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("lat", buckets=(1, 10, 100))
        for value in (0.5, 5, 50, 500):
            h.observe(value)
        assert h.counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.sum == 555.5

    def test_boundary_is_inclusive_upper(self):
        h = Histogram("lat", buckets=(1, 10))
        h.observe(1)
        assert h.counts == [1, 0, 0]

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(10, 1))

    def test_merge_requires_same_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", buckets=(1, 2)).observe(0.5)
        b.histogram("lat", buckets=(1, 3)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            a.merge_snapshot(b.snapshot())
        assert a.histogram("lat", buckets=(1, 2)).counts == [1, 0, 0]

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", buckets=(1, 2)).observe(0.5)
        b.histogram("lat", buckets=(1, 2)).observe(1.5)
        b.histogram("lat", buckets=(1, 2)).observe(9)
        a.merge_snapshot(b.snapshot())
        merged = a.histogram("lat", buckets=(1, 2))
        assert merged.count == 3
        assert merged.counts == [1, 1, 1]
        assert merged.sum == 11.0


class TestRegistry:
    def test_get_or_create_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert len(r) == 1

    def test_kind_conflict(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(ValueError):
            r.gauge("a")

    def test_snapshot_sorted(self):
        r = MetricsRegistry()
        r.counter("b").inc()
        r.gauge("a").set(2)
        snap = r.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["b"] == {"type": "counter", "help": "", "value": 1}

    def test_merge_disjoint_and_overlapping(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("shared").inc(1)
        b.counter("shared").inc(2)
        b.counter("only_b", help="b's own").inc(7)
        a.merge_snapshot(b.snapshot())
        assert a.counter("shared").value == 3
        assert a.counter("only_b").value == 7
        assert a.counter("only_b").help == "b's own"
        # merge copies: b's counters are not aliased into a
        a.counter("only_b").inc()
        assert b.counter("only_b").value == 7

    def test_many_snapshots_fold_into_a_fresh_registry(self):
        out = MetricsRegistry()
        for _ in range(3):
            r = MetricsRegistry()
            r.counter("n").inc(2)
            out.merge_snapshot(r.snapshot())
        assert out.counter("n").value == 6


class TestNullRegistry:
    def test_disabled_and_silent(self):
        r = NullRegistry()
        assert not r.enabled
        r.counter("a").inc()
        r.gauge("b").set(9)
        r.histogram("c").observe(1.0)
        assert r.snapshot() == {}

    def test_shared_singleton(self):
        assert not NULL_REGISTRY.enabled
        assert NULL_REGISTRY.counter("x") is NULL_REGISTRY.counter("y")


# ----------------------------------------------------------------------
# Span tracing
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpanTracer:
    def test_times_with_injected_clock(self):
        clock = FakeClock()
        spans = SpanTracer(clock=clock)
        with spans.span("work"):
            clock.now = 2.0
        stats = spans.stages()["work"]
        assert stats.count == 1
        assert stats.total_seconds == 2.0
        assert stats.self_seconds == 2.0

    def test_nesting_self_vs_total(self):
        clock = FakeClock()
        spans = SpanTracer(clock=clock)
        with spans.span("outer"):
            clock.now = 1.0
            with spans.span("inner"):
                clock.now = 4.0
            clock.now = 5.0
        outer = spans.stages()["outer"]
        assert outer.total_seconds == 5.0
        assert outer.self_seconds == 2.0  # 5 total - 3 in inner
        assert spans.stages()["inner"].total_seconds == 3.0

    def test_depth_and_records(self):
        spans = SpanTracer(keep_records=True)
        with spans.span("a"):
            assert spans.depth == 1
            with spans.span("b"):
                assert spans.depth == 2
        assert spans.depth == 0
        names = [(s.name, s.depth) for s in spans.records]
        assert names == [("b", 1), ("a", 0)]  # children close first

    def test_no_records_by_default(self):
        spans = SpanTracer()
        with spans.span("a"):
            pass
        assert spans.records == []

    def test_merge(self):
        clock = FakeClock()
        a, b = SpanTracer(clock=clock), SpanTracer(clock=clock)
        with a.span("s"):
            clock.now += 1.0
        with b.span("s"):
            clock.now += 2.0
        a.merge_snapshot(b.snapshot())
        assert a.stages()["s"].count == 2
        assert a.stages()["s"].total_seconds == 3.0

    def test_total_seconds_unseen_stage(self):
        assert SpanTracer().total_seconds("nope") == 0.0

    def test_exception_still_closes_span(self):
        spans = SpanTracer()
        with pytest.raises(RuntimeError):
            with spans.span("boom"):
                raise RuntimeError()
        assert spans.depth == 0
        assert spans.stages()["boom"].count == 1


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
@pytest.fixture
def sample_snapshot():
    r = MetricsRegistry()
    r.counter("events_total", help="events read").inc(10)
    r.gauge("omega").set(4)
    h = r.histogram("latency", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    snap = r.snapshot()
    snap["repro_stage_filter"] = {"type": "stage", "count": 3,
                                  "total_seconds": 0.5, "self_seconds": 0.5}
    return snap


class TestJsonl:
    def test_round_trip(self, sample_snapshot, tmp_path):
        path = write_jsonl(sample_snapshot, tmp_path / "m.jsonl")
        assert read_jsonl(path) == sample_snapshot

    def test_one_json_object_per_line(self, sample_snapshot):
        lines = to_jsonl(sample_snapshot).strip().splitlines()
        assert len(lines) == len(sample_snapshot)
        for line in lines:
            assert "name" in json.loads(line)

    def test_append_last_wins(self, sample_snapshot, tmp_path):
        path = tmp_path / "m.jsonl"
        write_jsonl(sample_snapshot, path)
        newer = {"events_total": {"type": "counter", "help": "", "value": 99}}
        write_jsonl(newer, path, append=True)
        assert read_jsonl(path)["events_total"]["value"] == 99

    def test_empty_snapshot(self, tmp_path):
        path = write_jsonl({}, tmp_path / "empty.jsonl")
        assert read_jsonl(path) == {}


class TestPrometheus:
    def test_counter_gauge_lines(self, sample_snapshot):
        text = to_prometheus(sample_snapshot)
        assert "# TYPE events_total counter" in text
        assert "events_total 10" in text
        assert "# HELP events_total events read" in text
        assert "omega 4" in text
        assert "omega_max 4" in text

    def test_histogram_cumulative_buckets(self, sample_snapshot):
        text = to_prometheus(sample_snapshot)
        assert 'latency_bucket{le="0.1"} 1' in text
        assert 'latency_bucket{le="1.0"} 2' in text
        assert 'latency_bucket{le="+Inf"} 3' in text
        assert "latency_count 3" in text

    def test_stage_rendering(self, sample_snapshot):
        text = to_prometheus(sample_snapshot)
        assert "repro_stage_filter_seconds_total 0.5" in text
        assert "repro_stage_filter_calls_total 3" in text

    def test_name_sanitisation(self):
        text = to_prometheus(
            {"a.b-c": {"type": "counter", "value": 1}})
        assert "a_b_c 1" in text

    def test_histogram_inf_bucket_equals_count(self, sample_snapshot):
        """The cumulative invariant: +Inf must equal _count exactly."""
        text = to_prometheus(sample_snapshot)
        buckets = {}
        count = None
        for line in text.splitlines():
            if line.startswith('latency_bucket{le="'):
                le = line.split('le="')[1].split('"')[0]
                buckets[le] = int(line.rsplit(" ", 1)[1])
            elif line.startswith("latency_count "):
                count = int(line.rsplit(" ", 1)[1])
        assert buckets["+Inf"] == count == 3
        # monotonic cumulative series
        values = list(buckets.values())
        assert values == sorted(values)

    def test_histogram_without_overflow_field_stays_consistent(self):
        """A record lacking "overflow" (e.g. a hand-written or truncated
        snapshot) must still render +Inf == _count, derived from the
        bucket counts rather than trusting the redundant "count"."""
        snap = {"latency": {"type": "histogram",
                            "buckets": [[0.1, 1], [1.0, 1]],
                            "sum": 5.0, "count": 7}}
        text = to_prometheus(snap)
        assert 'latency_bucket{le="+Inf"} 7' in text
        assert "latency_count 7" in text

    def test_histogram_count_below_buckets_never_regresses(self):
        """+Inf is never smaller than the last finite bucket, even when
        the redundant "count" field disagrees with the bucket counts."""
        snap = {"latency": {"type": "histogram",
                            "buckets": [[0.1, 2], [1.0, 3]],
                            "sum": 5.0, "count": 1}}
        text = to_prometheus(snap)
        assert 'latency_bucket{le="1.0"} 5' in text
        assert 'latency_bucket{le="+Inf"} 5' in text
        assert "latency_count 5" in text

    def test_help_text_escaped(self):
        snap = {"weird": {"type": "counter", "value": 1,
                          "help": "line one\nback\\slash"}}
        text = to_prometheus(snap)
        assert "# HELP weird line one\\nback\\\\slash" in text
        assert "\nline one" not in text  # no raw newline leaks into HELP


class TestPrometheusLabels:
    def test_label_values_escaped(self):
        snap = {"m[x]": {"type": "counter", "value": 3,
                         "metric": "m",
                         "labels": {"pattern": 'he said "hi" \\ bye\nend'}}}
        text = to_prometheus(snap)
        assert ('m{pattern="he said \\"hi\\" \\\\ bye\\nend"} 3'
                in text)
        assert "\nend\"}" not in text  # no raw newline inside the sample

    def test_labeled_series_group_under_one_header(self):
        snap = {
            "m[a]": {"type": "counter", "value": 1, "help": "per pattern",
                     "metric": "m", "labels": {"pattern": "a"}},
            "m[b]": {"type": "counter", "value": 2,
                     "metric": "m", "labels": {"pattern": "b"}},
        }
        text = to_prometheus(snap)
        assert text.count("# TYPE m counter") == 1
        assert 'm{pattern="a"} 1' in text
        assert 'm{pattern="b"} 2' in text

    def test_labels_sorted_deterministically(self):
        snap = {"m": {"type": "gauge", "value": 1,
                      "labels": {"zeta": "z", "alpha": "a"}}}
        text = to_prometheus(snap)
        assert 'm{alpha="a",zeta="z"} 1' in text

    def test_labeled_histogram_buckets_merge_le(self):
        snap = {"h": {"type": "histogram", "help": "",
                      "buckets": [[0.1, 1], [1.0, 1]], "overflow": 0,
                      "sum": 0.6, "count": 2,
                      "labels": {"pattern": "p"}}}
        text = to_prometheus(snap)
        assert 'h_bucket{pattern="p",le="0.1"} 1' in text
        assert 'h_bucket{pattern="p",le="+Inf"} 2' in text
        assert 'h_count{pattern="p"} 2' in text

    def test_registry_round_trip_keeps_labels(self):
        registry = MetricsRegistry()
        registry.counter("m[a]", labels={"pattern": "a"}, metric="m").inc(2)
        merged = MetricsRegistry()
        merged.merge_snapshot(registry.snapshot())
        record = merged.snapshot()["m[a]"]
        assert record["labels"] == {"pattern": "a"}
        assert record["metric"] == "m"


class TestQuantiles:
    def test_linear_interpolation_within_bucket(self):
        h = Histogram("lat", buckets=(10, 20))
        for _ in range(4):
            h.observe(5)  # all in the first bucket
        # rank 2 of 4 -> halfway through [0, 10]
        assert h.quantile(0.5) == pytest.approx(5.0)

    def test_median_across_buckets(self):
        h = Histogram("lat", buckets=(1, 2, 3))
        for value in (0.5, 1.5, 2.5):
            h.observe(value)
        assert 1.0 <= h.quantile(0.5) <= 2.0
        assert h.quantile(1.0) == pytest.approx(3.0)

    def test_overflow_clamps_to_highest_bound(self):
        h = Histogram("lat", buckets=(1, 2))
        h.observe(100)
        assert h.quantile(0.99) == pytest.approx(2.0)

    def test_empty_histogram_is_none(self):
        assert Histogram("lat", buckets=(1,)).quantile(0.5) is None

    def test_rejects_out_of_range(self):
        h = Histogram("lat", buckets=(1,))
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_snapshot_quantile_matches_live(self):
        from repro.obs import snapshot_quantile
        h = Histogram("lat", buckets=(1, 2, 5))
        for value in (0.1, 0.9, 1.1, 3.0, 7.0):
            h.observe(value)
        record = h.snapshot()
        for q in (0.5, 0.95, 0.99):
            assert snapshot_quantile(record, q) == pytest.approx(
                h.quantile(q))

    def test_snapshot_quantile_ignores_non_histograms(self):
        from repro.obs import snapshot_quantile
        assert snapshot_quantile({"type": "counter", "value": 1}, 0.5) is None


# ----------------------------------------------------------------------
# Observability bundle + engine integration
# ----------------------------------------------------------------------
class TestObservability:
    def test_stage_rows_pipeline_order(self):
        clock = FakeClock()
        obs = Observability(spans=SpanTracer(clock=clock))
        for name in ("select", "consume", "filter"):
            with obs.span(name):
                clock.now += 1.0
        assert [row[0] for row in obs.stage_rows()] == [
            "filter", "consume", "select"]

    def test_merged(self):
        merged = Observability()
        for _ in range(2):
            obs = Observability()
            obs.omega(3)
            obs.event_seconds(0.001)
            with obs.span("filter"):
                pass
            merged.merge(obs)
        assert merged.registry.gauge("ses_omega_instances").max_value == 6
        assert merged.registry.histogram(
            "ses_event_latency_seconds").count == 2
        assert merged.spans.stages()["filter"].count == 2

    def test_snapshot_includes_stages(self):
        obs = Observability()
        with obs.span("filter"):
            pass
        assert "repro_stage_filter" in obs.snapshot()


class TestExecutorIntegration:
    def test_stage_timings_and_counters(self, kind_pattern):
        obs = Observability()
        result = match(kind_pattern,
                       rel(ev(1, "A"), ev(2, "B"), ev(3, "X"), ev(4, "C")),
                       observability=obs)
        assert len(result) == 1
        stages = obs.spans.stages()
        assert set(stages) == {"filter", "consume", "select"}
        assert stages["filter"].count == 4      # every event is filtered
        assert stages["consume"].count == 3     # X is rejected pre-loop
        assert stages["select"].count == 1
        snap = obs.snapshot()
        assert snap["ses_events_read_total"]["value"] == 4
        assert snap["ses_events_filtered_total"]["value"] == 1
        assert snap["ses_matches_total"]["value"] == 1
        assert snap["ses_event_latency_seconds"]["count"] == 4

    def test_omega_gauge_matches_stats_peak(self, kind_pattern):
        obs = Observability()
        result = match(kind_pattern, rel(*[ev(t, "A") for t in range(1, 6)]),
                       observability=obs)
        gauge = obs.registry.gauge("ses_omega_instances")
        assert gauge.max_value == result.stats.max_simultaneous_instances

    def test_lifetime_observed_on_expiry(self, kind_pattern):
        obs = Observability()
        # 'a' binds at T=1; T=200 > tau=100 expires the instance.
        match(kind_pattern, rel(ev(1, "A"), ev(200, "B")), observability=obs)
        lifetime = obs.registry.histogram("ses_instance_lifetime")
        assert lifetime.count >= 1
        assert lifetime.sum >= 199

    def test_uninstrumented_executor_has_no_obs(self, kind_pattern):
        executor = SESExecutor(build_automaton(kind_pattern))
        assert executor.obs is None
        result = executor.run([ev(1, "A"), ev(2, "B"), ev(3, "C")])
        assert len(result) == 1


class TestStreamIntegration:
    def test_continuous_matcher_counts_reports(self, kind_pattern):
        obs = Observability()
        matcher = ContinuousMatcher(kind_pattern, observability=obs)
        matcher.push_many([ev(1, "A"), ev(2, "B"), ev(3, "C")])
        matcher.close()
        counter = obs.registry.counter("ses_stream_matches_reported_total")
        assert counter.value == len(matcher.matches) == 1

    def test_partitioned_aggregation(self):
        from repro.core.pattern import SESPattern
        pattern = SESPattern(
            sets=[["a", "b"]],
            conditions=["a.kind = 'A'", "b.kind = 'B'", "a.key = b.key"],
            tau=100,
        )
        obs = Observability()
        pm = PartitionedContinuousMatcher(pattern, partition_by="key",
                                          observability=obs)
        pm.push_many([
            ev(1, "A", key=1), ev(2, "B", key=1),
            ev(3, "A", key=2), ev(4, "B", key=2),
        ])
        pm.close()
        assert obs.registry.gauge("ses_stream_partitions").value == 2
        agg = pm.aggregate()
        snap = agg.snapshot()
        assert snap["ses_events_read_total"]["value"] == 4
        assert snap["ses_stream_matches_reported_total"]["value"] == 2

    def test_collect_folds_metrics_into_root(self):
        from repro.core.pattern import SESPattern
        pattern = SESPattern(
            sets=[["a"]], conditions=["a.kind = 'A'", "a.key = a.key"],
            tau=10,
        )
        obs = Observability()
        pm = PartitionedContinuousMatcher(pattern, partition_by="key",
                                          observability=obs)
        pm.push(ev(1, "Z", key=1))  # filtered; partition stays idle
        collected = pm.collect(now=1000)
        assert collected == 1
        # The dead partition's events_read counter survives in the root.
        assert pm.aggregate().snapshot()["ses_events_read_total"]["value"] == 1

    def test_unobserved_partitioned_matcher(self):
        from repro.core.pattern import SESPattern
        pattern = SESPattern(
            sets=[["a"]], conditions=["a.kind = 'A'", "a.key = a.key"],
            tau=10,
        )
        pm = PartitionedContinuousMatcher(pattern, partition_by="key")
        pm.push(ev(1, "A", key=1))
        assert pm.aggregate() is None


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
class TestLogging:
    def test_get_logger_anchors_names(self):
        assert get_logger("bench").name == "repro.bench"
        assert get_logger("repro.automaton.executor").name == (
            "repro.automaton.executor")
        assert get_logger().name == "repro"

    def test_verbosity_mapping(self):
        assert verbosity_level(-1) == logging.ERROR
        assert verbosity_level(0) == logging.WARNING
        assert verbosity_level(1) == logging.INFO
        assert verbosity_level(2) == logging.DEBUG
        assert verbosity_level(5) == logging.DEBUG

    def test_configure_is_idempotent(self):
        root = configure_logging(1)
        configure_logging(2)
        ours = [h for h in root.handlers
                if getattr(h, "_repro_configured", False)]
        assert len(ours) == 1
        assert root.level == logging.DEBUG
        root.removeHandler(ours[0])
        root.setLevel(logging.NOTSET)

    def test_executor_logs_run_summary(self, kind_pattern, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro"):
            match(kind_pattern, rel(ev(1, "A"), ev(2, "B"), ev(3, "C")))
        assert any("run complete" in r.message for r in caplog.records)


class TestBenchHarnessObs:
    def test_measured_returns_bundle(self):
        from repro.bench import measured
        result, obs = measured(sum, [1, 2, 3])
        assert result == 6
        assert obs.spans.stages()["run"].count == 1

    def test_rows_to_snapshot(self):
        from repro.bench import rows_to_snapshot
        rows = [{"pattern": "P1", "n_vars": 3, "ses_seconds": 0.5,
                 "ses_instances": 12}]
        snap = rows_to_snapshot("exp1", rows)
        assert snap["bench_exp1_p1_3_ses_seconds"]["value"] == 0.5
        assert snap["bench_exp1_p1_3_ses_instances"]["value"] == 12
        assert "bench_exp1_p1_3_n_vars" not in snap


# ----------------------------------------------------------------------
# Chrome trace export (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------
class TestChromeTrace:
    def run_traced(self, kind_pattern):
        from repro.obs import FlightRecorder
        from repro.plan.cache import compile as compile_plan
        obs = Observability(spans=SpanTracer(keep_records=True))
        flight = FlightRecorder()
        plan = compile_plan(kind_pattern)
        plan.executor(observability=obs, flight=flight).run(
            rel(ev(1, "A"), ev(2, "B"), ev(3, "C")))
        return obs, flight

    def test_spans_become_duration_events(self, kind_pattern):
        obs, _ = self.run_traced(kind_pattern)
        doc = to_chrome_trace(spans=obs.spans)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs
        for event in xs:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["pid"] == 1
            assert event["dur"] >= 0
        assert {"filter", "consume"} <= {e["name"] for e in xs}

    def test_lifecycles_become_async_pairs(self, kind_pattern):
        _, flight = self.run_traced(kind_pattern)
        doc = to_chrome_trace(flight=flight)
        begins = [e for e in doc["traceEvents"] if e["ph"] == "b"]
        ends = [e for e in doc["traceEvents"] if e["ph"] == "e"]
        assert len(begins) == len(ends) > 0
        for b, e in zip(begins, ends):
            assert b["id"] == e["id"]
            assert b["pid"] == e["pid"] == 2
            assert b["ts"] <= e["ts"]

    def test_document_is_json_with_required_fields(self, kind_pattern):
        obs, flight = self.run_traced(kind_pattern)
        doc = json.loads(json.dumps(
            to_chrome_trace(spans=obs.spans, flight=flight)))
        assert doc["displayTimeUnit"] == "ms"
        for event in doc["traceEvents"]:
            assert "ph" in event and "pid" in event
            if event["ph"] != "M":
                assert isinstance(event["ts"], (int, float))

    def test_tracer_steps_accepted(self, kind_pattern):
        from repro.automaton.trace import Tracer
        from repro.plan.cache import compile as compile_plan
        tracer = Tracer()
        compile_plan(kind_pattern).executor(tracer=tracer).run(
            rel(ev(1, "A"), ev(2, "B"), ev(3, "C")))
        doc = to_chrome_trace(steps=tracer)
        assert any(e["ph"] == "b" for e in doc["traceEvents"])

    def test_empty_inputs_yield_metadata_only(self):
        doc = to_chrome_trace()
        assert all(e["ph"] == "M" for e in doc["traceEvents"])

    def test_write_chrome_trace(self, kind_pattern, tmp_path):
        obs, flight = self.run_traced(kind_pattern)
        path = write_chrome_trace(tmp_path / "trace.json",
                                  spans=obs.spans, flight=flight)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) > 2

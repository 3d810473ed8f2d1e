"""The public façade: ``repro.__all__`` and the documented signatures.

Pins the compile-once API surface so accidental renames, lost exports,
or signature drift fail CI rather than downstream users."""

import inspect

import repro
from repro.plan.plan import PatternPlan

EXPECTED_ALL = {
    # Core model
    "Attribute", "Attr", "Condition", "Const", "Event",
    "EventRelation", "EventSchema", "MatchResult", "PatternError",
    "SESPattern", "SchemaError", "Substitution", "Variable",
    "attr", "const", "group", "var",
    # Automaton layer
    "SESAutomaton", "SESExecutor", "build_automaton",
    # Compile-once façade
    "PatternPlan", "PlanCache", "compile", "plan_cache",
    "clear_plan_cache", "set_plan_cache_size",
    # Unified query façade + typed results
    "query", "Match", "MatchSet", "AggregateSeries", "AggregateSpec",
    # Matchers
    "ContinuousMatcher", "ParallelPartitionedMatcher", "ShardedStreamMatcher",
    "PatternRegistry", "TenantQuota",
    # Language
    "compile_query", "parse_query",
    # Operations
    "Observability", "WorkerCrashed", "FlightRecorder", "ObsServer",
    # Lineage / causal tracing
    "LineageRecorder", "Provenance", "TraceConfig",
    # Explain + statistics
    "ExplainReport", "explain", "explain_analyze", "StatsStore",
    "stats_store", "clear_stats_store",
    # Resilience
    "Supervisor", "RestartPolicy", "GuardConfig", "ResourceExhausted",
    "FaultPlan", "DeadLetterQueue",
    "__version__",
}


class TestAll:
    def test_all_is_exactly_the_documented_surface(self):
        assert set(repro.__all__) == EXPECTED_ALL

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))


def parameter_names(callable_):
    return list(inspect.signature(callable_).parameters)


class TestSignatures:
    def test_compile(self):
        params = inspect.signature(repro.compile).parameters
        assert list(params) == ["pattern", "optimizations", "cache",
                                "observability", "aggregate"]
        for name in ("optimizations", "cache", "observability", "aggregate"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY

    def test_query_facade(self):
        params = inspect.signature(repro.query).parameters
        assert list(params)[:2] == ["source", "events"]
        for option in ("use_filter", "selection", "consume", "workers",
                       "partition_by", "observability", "optimizations"):
            assert option in params, option
            assert params[option].kind is inspect.Parameter.KEYWORD_ONLY

    def test_plan_match_unified_options(self):
        params = parameter_names(PatternPlan.match)
        for option in ("selection", "consume", "observability", "workers",
                       "partition_by", "use_filter", "filter_mode"):
            assert option in params, option

    def test_plan_stream_unified_options(self):
        params = parameter_names(PatternPlan.stream)
        for option in ("use_filter", "suppress_overlaps", "partition_by",
                       "observability"):
            assert option in params, option

    def test_one_spelling_per_option(self):
        """The aliases the unified names replaced are gone for good."""
        from repro.stream import PartitionedContinuousMatcher
        for entry_point in (PatternPlan.match, PatternPlan.executor,
                            PatternPlan.stream,
                            repro.ContinuousMatcher.__init__,
                            PartitionedContinuousMatcher.__init__,
                            repro.ParallelPartitionedMatcher.__init__,
                            repro.ShardedStreamMatcher.__init__):
            aliases = {"consume_mode", "obs", "attribute", "shards"}
            assert not aliases & set(parameter_names(entry_point)), \
                entry_point.__qualname__

    def test_parallel_matcher_unified_options(self):
        params = parameter_names(repro.ParallelPartitionedMatcher.__init__)
        for option in ("partition_by", "workers", "consume",
                       "observability"):
            assert option in params, option

    def test_sharded_matcher_unified_options(self):
        params = parameter_names(repro.ShardedStreamMatcher.__init__)
        for option in ("partition_by", "workers", "observability"):
            assert option in params, option

    def test_continuous_matcher_unified_options(self):
        params = parameter_names(repro.ContinuousMatcher.__init__)
        for option in ("use_filter", "suppress_overlaps", "observability"):
            assert option in params, option

    def test_match_carries_provenance_field(self):
        from dataclasses import fields
        names = [f.name for f in fields(repro.Match)]
        assert names == ["substitution", "pattern_id", "partition",
                         "provenance"]

    def test_obs_server_takes_a_lineage_provider(self):
        assert "lineage" in parameter_names(repro.ObsServer.__init__)

    def test_trace_config_surface(self):
        config = repro.TraceConfig(sample_rate=0.5)
        assert config.enabled
        assert not repro.TraceConfig().enabled
        assert "environ" in parameter_names(repro.TraceConfig.from_env)

    def test_trace_env_knobs_are_pinned(self):
        from repro.obs import (TRACE_MAX_ENV, TRACE_SAMPLE_ENV,
                               TRACE_SLOW_MS_ENV)
        assert TRACE_SAMPLE_ENV == "REPRO_TRACE_SAMPLE"
        assert TRACE_SLOW_MS_ENV == "REPRO_TRACE_SLOW_MS"
        assert TRACE_MAX_ENV == "REPRO_TRACE_MAX"

    def test_cli_has_a_trace_subcommand(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["trace", "--query", "PATTERN PERMUTE(a) WHERE a.k = 1 "
             "WITHIN 5", "--data", "events.csv"])
        assert args.command == "trace"
        assert args.sample == 1.0
        assert args.format == "text"


class TestFacadeBehaviour:
    def test_compile_returns_plans_from_the_global_cache(self):
        pattern = repro.SESPattern(
            sets=[["a"], ["b"]],
            conditions=["a.kind = 'A'", "b.kind = 'B'"], tau=9)
        assert repro.compile(pattern) is repro.compile(pattern)

    def test_plan_exposes_fingerprint_and_explain(self):
        pattern = repro.SESPattern(
            sets=[["a"]], conditions=["a.kind = 'A'"], tau=5)
        plan = repro.compile(pattern)
        assert isinstance(plan.fingerprint, str) and len(plan.fingerprint) == 64
        text = repro.explain(plan).render("text")
        assert plan.fingerprint[:12] in text

    def test_parse_query_parses_permute_text(self):
        node = repro.parse_query(
            "PATTERN PERMUTE(a, b) WHERE a.k = 'x' AND b.k = 'y' WITHIN 10")
        assert node is not None

    def test_compile_query_builds_patterns(self):
        pattern = repro.compile_query(repro.parse_query(
            "PATTERN PERMUTE(a, b) WHERE a.k = 'x' AND b.k = 'y' WITHIN 10"))
        assert isinstance(pattern, repro.SESPattern)

    def test_query_returns_typed_result_union(self):
        events = [repro.Event(ts=1, k="x"), repro.Event(ts=2, k="y")]
        text = "PATTERN PERMUTE(a, b) WHERE a.k = 'x' AND b.k = 'y' WITHIN 10"
        matches = repro.query(text, events)
        assert isinstance(matches, repro.MatchSet)
        assert matches.kind == "matches"
        assert all(isinstance(m, repro.Match) for m in matches)
        series = repro.query("SELECT count(*) AS n FROM " + text, events)
        assert isinstance(series, repro.AggregateSeries)
        assert series.kind == "aggregates"
        assert series["n"] == 1

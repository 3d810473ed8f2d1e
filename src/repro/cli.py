"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``match``
    Run a PERMUTE query over a CSV event relation and print the matches.
    With a ``SELECT`` aggregation clause (``SELECT count(*), avg(v.a)
    FROM PATTERN ...``) matches are folded incrementally instead of
    materialised and the finalised aggregates are printed.
    ``--profile`` adds a per-stage timing table (filter / consume /
    select), an Ω-population sparkline, and — with ``--metrics-out`` — a
    JSON-lines metrics snapshot (see ``docs/observability.md``).
    ``--listen HOST:PORT`` serves live ``/metrics`` + ``/healthz`` while
    the run lasts; ``--trace-out`` writes a Perfetto/Chrome trace.
``serve``
    Replay a relation through the continuous matcher and keep serving
    the observability endpoint until stopped (``POST /quitquitquit``,
    SIGTERM, or Ctrl-C).  ``SIGUSR2`` dumps the flight recorder.
    Single-worker serves run on a :class:`~repro.registry.PatternRegistry`
    — further patterns can be registered and deregistered hot over HTTP
    (``/patterns``) or via the ``registry`` subcommand, all sharing one
    admission pass (see ``docs/registry.md``).  ``--supervise`` restarts
    dead shard workers from their checkpoints and ``--dead-letter``
    quarantines poison events instead of failing (see
    ``docs/resilience.md``); ``--max-instances``/``--max-buffer-mb``
    put resource-guard ceilings on executor state.  ``--subscribe``
    additionally serves the push endpoint — backpressured event ingest
    over framed TCP and resumable SSE match subscriptions with
    slow-consumer policies and graceful drain
    (``--delivery-wal`` makes resume survive restarts; see
    ``docs/serving.md``).
``tail``
    Follow a push endpoint's match stream: one JSON line per delivered
    event, resumable via ``--resume``/``--resume-file`` (exactly-once
    across client and server restarts), with ``--patterns``/
    ``--tenants`` filters and a ``--out`` transcript.
``push``
    Send a CSV relation to a push endpoint over the framed protocol,
    honouring ``slow_down`` backpressure;
    ``--quit`` asks the server to drain afterwards.
``registry``
    Client for a running serve process: ``registry add --server URL
    --query ...`` registers a pattern hot, ``registry rm ID`` removes
    it, ``registry list`` shows what is registered (with predicate-
    sharing statistics).
``generate``
    Write a synthetic chemotherapy relation to CSV.
``explain``
    EXPLAIN / EXPLAIN ANALYZE for a query: automaton topology, prefilter
    predicate vectors, complexity bounds, plan-cache provenance and
    persisted statistics (``--format text|json|dot``).  With
    ``--analyze`` (requires ``--data``) the query runs over a counting
    automaton and the report carries observed per-transition /
    per-condition counters; the observed selectivities feed the
    statistics store (see ``docs/explain.md``).  ``--data`` or
    ``--window N`` adds the complexity report (Theorems 1–3) for that
    window size W.
``lint``
    Static diagnostics for a query (unsatisfiable variables, open join
    graphs, heavy complexity classes).
``stats``
    Render a saved metrics snapshot (table, Prometheus text, or JSON).
``trace``
    Run a query with lineage sampling on and render every delivered
    match's provenance — contributing event ids, transition path,
    per-stage latency breakdown, delivering site
    (``--format text|json|dot``; see ``docs/tracing.md``).
    ``--otel-out`` additionally writes the records as OTLP/JSON spans.

Event CSVs use the typed format of :mod:`repro.storage.csvio` (also what
``generate`` writes).  Queries may be given inline with ``--query`` or
from a file with ``--query-file``.  ``--verbose``/``--quiet`` (before
the subcommand) configure the ``repro.*`` logging hierarchy.
"""

from __future__ import annotations

import argparse
import logging
import re
import signal
import sys
import threading
from pathlib import Path
from typing import List, Optional

from .automaton.metrics import sparkline
from .bench.report import format_table
from .core.diagnostics import diagnose
from .core.rewrite import close_equality_joins
from .data.chemo import generate_chemo
from .lang import QueryError, parse_query_spec
from .plan.cache import compile as compile_plan
from .resilience.guards import ResourceExhausted
from .obs import (FlightRecorder, LineageRecorder, ObsServer, Observability,
                  SpanTracer, TraceConfig, configure_logging,
                  install_flight_signal_handler, live_snapshot, parse_listen,
                  read_jsonl, snapshot_quantile, to_jsonl, to_prometheus,
                  write_chrome_trace, write_jsonl, write_otel_spans)
from .storage.csvio import load_relation, save_relation

__all__ = ["main", "build_parser"]

logger = logging.getLogger(__name__)

#: Ω-history samples retained under ``--profile`` (uniformly downsampled
#: beyond; keeps long runs at bounded memory).
PROFILE_HISTORY_SAMPLES = 4096


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sequenced event set pattern matching (EDBT 2011).",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log at INFO (-v) or DEBUG (-vv)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="log errors only")
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser(
        "match", help="run a PERMUTE query over a CSV event relation")
    _add_query_arguments(p_match)
    p_match.add_argument("--data", required=True, type=Path,
                         help="event relation CSV (typed format)")
    p_match.add_argument("--no-filter", action="store_true",
                         help="disable the Section 4.5 event pre-filter")
    p_match.add_argument("--selection", default="paper",
                         choices=["paper", "all-starts", "accepted"],
                         help="result selection policy (default: paper)")
    p_match.add_argument("--mode", default="greedy",
                         choices=["greedy", "exhaustive", "contiguous"],
                         help="consumption mode (default: greedy)")
    p_match.add_argument("--workers", type=int, default=1, metavar="N",
                         help="evaluate partitions on a pool of N worker "
                              "processes (requires a pattern that "
                              "equi-joins all variables on one attribute; "
                              "see docs/parallel.md)")
    p_match.add_argument("--stats", action="store_true",
                         help="also print execution statistics")
    p_match.add_argument("--profile", action="store_true",
                         help="print a per-stage timing table and an "
                              "Ω-population sparkline")
    p_match.add_argument("--metrics-out", type=Path, metavar="PATH",
                         help="write a JSON-lines metrics snapshot "
                              "(implies instrumentation; render with "
                              "'repro stats')")
    p_match.add_argument("--listen", metavar="HOST:PORT",
                         help="serve /metrics, /varz, /healthz and "
                              "/debug/flight over HTTP while the run "
                              "lasts (implies instrumentation; port 0 "
                              "picks an ephemeral port)")
    p_match.add_argument("--trace-out", type=Path, metavar="PATH",
                         help="write a Perfetto/Chrome trace of the run "
                              "(open in ui.perfetto.dev; requires "
                              "--workers 1)")
    p_match.add_argument("--dead-letter", type=Path, metavar="PATH",
                         help="run supervised (sharded streaming with "
                              "restart/replay; see docs/resilience.md) "
                              "and write quarantined poison events to "
                              "PATH as JSON lines")
    _add_guard_arguments(p_match)

    p_serve = sub.add_parser(
        "serve", help="replay a relation through the streaming matcher "
                      "and serve live metrics over HTTP until stopped")
    _add_query_arguments(p_serve)
    p_serve.add_argument("--data", required=True, type=Path,
                         help="event relation CSV (typed format)")
    p_serve.add_argument("--listen", default="127.0.0.1:0",
                         metavar="HOST:PORT",
                         help="bind address of the observability "
                              "endpoint (default: 127.0.0.1 on an "
                              "ephemeral port, printed at startup)")
    p_serve.add_argument("--workers", type=int, default=1, metavar="N",
                         help="shard the stream over N worker processes "
                              "(requires a partitionable pattern; "
                              "/healthz then reports per-shard liveness)")
    p_serve.add_argument("--no-filter", action="store_true",
                         help="disable the Section 4.5 event pre-filter")
    p_serve.add_argument("--flight-dump", type=Path, metavar="PATH",
                         help="where SIGUSR2 (and a crash) dumps the "
                              "flight recorder (default: stderr)")
    p_serve.add_argument("--once", action="store_true",
                         help="exit right after the replay instead of "
                              "serving until stopped")
    p_serve.add_argument("--supervise", action="store_true",
                         help="restart dead shard workers from their "
                              "checkpoints instead of failing the "
                              "stream (implies sharded execution; "
                              "/healthz reports 'degraded' while "
                              "running on the restart budget)")
    p_serve.add_argument("--restart-budget", type=int, default=5,
                         metavar="N",
                         help="restarts allowed per shard before the "
                              "stream fails hard (default: 5)")
    p_serve.add_argument("--dead-letter", type=Path, metavar="PATH",
                         help="write quarantined poison events to PATH "
                              "as JSON lines on shutdown (implies "
                              "--supervise)")
    p_serve.add_argument("--subscribe", nargs="?", const="127.0.0.1:0",
                         metavar="HOST:PORT",
                         help="also serve the push endpoint: framed "
                              "event ingest with backpressure plus "
                              "resumable SSE (/subscribe) match "
                              "subscriptions (default bind: "
                              "127.0.0.1 on an ephemeral port, printed "
                              "at startup; see docs/serving.md)")
    p_serve.add_argument("--delivery-wal", type=Path, metavar="PATH",
                         help="durable delivery log backing subscriber "
                              "resume across server restarts (with "
                              "--subscribe)")
    p_serve.add_argument("--replay-ring", type=int, default=1024,
                         metavar="N",
                         help="in-memory replay ring capacity for "
                              "subscriber resume (default: 1024)")
    p_serve.add_argument("--sub-queue", type=int, default=256, metavar="N",
                         help="default per-subscriber delivery queue "
                              "bound (default: 256)")
    p_serve.add_argument("--sub-policy", default="disconnect",
                         choices=["disconnect", "shed", "degrade"],
                         help="default slow-consumer policy when a "
                              "subscriber queue overflows (default: "
                              "disconnect; subscribers may override per "
                              "connection)")
    p_serve.add_argument("--ingest-queue", type=int, default=64,
                         metavar="N",
                         help="bound on queued unprocessed ingest "
                              "batches; beyond it producers get "
                              "slow_down (default: 64)")
    p_serve.add_argument("--heartbeat", type=float, default=15.0,
                         metavar="SEC",
                         help="subscriber keep-alive interval "
                              "(default: 15)")
    p_serve.add_argument("--idle-timeout", type=float, default=300.0,
                         metavar="SEC",
                         help="disconnect a subscriber whose connection "
                              "stalls writes for this long "
                              "(default: 300)")
    p_serve.add_argument("--drain-grace", type=float, default=5.0,
                         metavar="SEC",
                         help="graceful-drain budget for flushing "
                              "in-flight matches to subscribers "
                              "(default: 5)")
    _add_guard_arguments(p_serve)

    p_tail = sub.add_parser(
        "tail", help="follow the match stream of a 'serve --subscribe' "
                     "process (resumable; exactly-once across "
                     "reconnects)")
    p_tail.add_argument("--server", required=True, metavar="HOST:PORT",
                        help="push endpoint address (printed at serve "
                             "startup)")
    p_tail.add_argument("--resume", metavar="CURSOR",
                        help="resume after this cursor; 'live' starts "
                             "at the stream tail (default)")
    p_tail.add_argument("--resume-file", type=Path, metavar="PATH",
                        help="persist the last received cursor to PATH "
                             "and resume from it on the next run")
    p_tail.add_argument("--out", type=Path, metavar="PATH",
                        help="append every received event to PATH as "
                             "JSON lines (the subscriber transcript)")
    p_tail.add_argument("--max", type=int, metavar="N",
                        help="exit after N delivered matches")
    p_tail.add_argument("--patterns", metavar="IDS",
                        help="comma-separated pattern-id filter")
    p_tail.add_argument("--tenants", metavar="NAMES",
                        help="comma-separated tenant filter")
    p_tail.add_argument("--id", dest="subscriber_id", metavar="NAME",
                        help="stable subscriber id (shows up in lineage "
                             "push hops and /statz)")
    p_tail.add_argument("--policy",
                        choices=["disconnect", "shed", "degrade"],
                        help="slow-consumer policy for this subscriber")
    p_tail.add_argument("--queue", type=int, metavar="N",
                        help="delivery queue bound for this subscriber")
    p_tail.add_argument("--follow", action="store_true",
                        help="keep reconnecting after a graceful drain "
                             "(ride out server restarts)")
    p_tail.add_argument("--reconnect-delay", type=float, default=0.2,
                        metavar="SEC")
    p_tail.add_argument("--max-reconnects", type=int, default=100,
                        metavar="N")

    p_push = sub.add_parser(
        "push", help="send a CSV relation to a 'serve --subscribe' "
                     "ingest endpoint (honours backpressure)")
    p_push.add_argument("--server", required=True, metavar="HOST:PORT",
                        help="push endpoint address")
    p_push.add_argument("--data", required=True, type=Path,
                        help="event relation CSV (typed format)")
    p_push.add_argument("--batch-size", type=int, default=256, metavar="N")
    p_push.add_argument("--quit", action="store_true",
                        help="ask the server to drain gracefully after "
                             "the push")

    p_registry = sub.add_parser(
        "registry", help="register/deregister/list patterns on a running "
                         "serve process (hot, over its /patterns route)")
    rsub = p_registry.add_subparsers(dest="registry_command", required=True)
    r_add = rsub.add_parser("add", help="register a pattern")
    _add_query_arguments(r_add)
    r_add.add_argument("--server", required=True, metavar="URL",
                       help="base URL of the serve process (printed at "
                            "its startup)")
    r_add.add_argument("--id", dest="pattern_id", metavar="ID",
                       help="pattern id (default: assigned p<N>)")
    r_add.add_argument("--tenant", default="default",
                       help="owning tenant (default: 'default')")
    r_rm = rsub.add_parser("rm", help="deregister a pattern")
    r_rm.add_argument("pattern_id", metavar="ID")
    r_rm.add_argument("--server", required=True, metavar="URL")
    r_list = rsub.add_parser("list", help="list registered patterns")
    r_list.add_argument("--server", required=True, metavar="URL")

    p_generate = sub.add_parser(
        "generate", help="write a synthetic chemotherapy relation to CSV")
    p_generate.add_argument("--out", required=True, type=Path,
                            help="output CSV path")
    p_generate.add_argument("--patients", type=int, default=12)
    p_generate.add_argument("--cycles", type=int, default=4)
    p_generate.add_argument("--seed", type=int, default=7)
    p_generate.add_argument("--labs-per-cycle", type=int, default=30,
                            help="background lab events per cycle")
    p_generate.add_argument("--duplicate", type=int, default=1,
                            metavar="FACTOR",
                            help="repeat each event FACTOR times (D2-D5)")

    p_explain = sub.add_parser(
        "explain", help="EXPLAIN / EXPLAIN ANALYZE a query (automaton, "
                        "prefilters, bounds, cache provenance, observed "
                        "counters)")
    _add_query_arguments(p_explain)
    window = p_explain.add_mutually_exclusive_group()
    window.add_argument("--data", type=Path, metavar="CSV",
                        help="event relation CSV; enables the "
                             "complexity section (W from the data) and "
                             "is required by --analyze")
    window.add_argument("--window", type=int, metavar="N",
                        help="complexity section for this window size W "
                             "(Theorems 1-3), without data")
    p_explain.add_argument("--analyze", action="store_true",
                           help="run the query over the data with "
                                "per-transition counters (EXPLAIN "
                                "ANALYZE; feeds the statistics store)")
    p_explain.add_argument("--format", default="text",
                           choices=["text", "json", "dot"],
                           help="output format (default: text); dot "
                                "edges are hotness-annotated after "
                                "--analyze")
    p_explain.add_argument("--dot", action="store_true",
                           help="shorthand for --format dot")
    p_explain.add_argument("--no-filter", action="store_true",
                           help="disable the pre-filter in the analyzed "
                                "run")
    p_explain.add_argument("--out", type=Path, metavar="PATH",
                           help="write the report to PATH instead of "
                                "stdout")

    p_lint = sub.add_parser(
        "lint", help="static diagnostics for a query")
    _add_query_arguments(p_lint)
    p_lint.add_argument("--fix-joins", action="store_true",
                        help="print the query with equality joins "
                             "transitively closed")

    p_trace = sub.add_parser(
        "trace", help="run a query with lineage sampling on and render "
                      "match provenance (event-to-delivery causal "
                      "traces with per-stage latency)")
    _add_query_arguments(p_trace)
    p_trace.add_argument("--data", required=True, type=Path,
                         help="event relation CSV (typed format)")
    p_trace.add_argument("--sample", type=float, default=1.0,
                         metavar="RATE",
                         help="trace sample rate in [0, 1] (default: 1.0 "
                              "— trace every event)")
    p_trace.add_argument("--slow-ms", type=float, default=100.0,
                         metavar="MS",
                         help="tail-sampling threshold: matches slower "
                              "end-to-end are always kept (default: 100)")
    p_trace.add_argument("--workers", type=int, default=1, metavar="N",
                         help="evaluate partitions on a pool of N worker "
                              "processes (lineage reconciles across the "
                              "pool; see docs/tracing.md)")
    p_trace.add_argument("--format", default="text",
                         choices=["text", "json", "dot"],
                         help="output format (default: text)")
    p_trace.add_argument("--otel-out", type=Path, metavar="PATH",
                         help="also write the lineage records as "
                              "OTLP/JSON spans (POST to a collector's "
                              "/v1/traces)")
    p_trace.add_argument("--out", type=Path, metavar="PATH",
                         help="write the rendered report to PATH instead "
                              "of stdout")

    p_stats = sub.add_parser(
        "stats", help="render a saved metrics snapshot")
    p_stats.add_argument("snapshot", type=Path,
                         help="JSON-lines snapshot (from 'repro match "
                              "--metrics-out' or the benchmarks)")
    p_stats.add_argument("--format", default="table",
                         choices=["table", "prom", "json"],
                         help="output format (default: table)")

    return parser


def _add_query_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="PERMUTE query text")
    group.add_argument("--query-file", type=Path,
                       help="file containing the PERMUTE query")


def _add_guard_arguments(parser: argparse.ArgumentParser) -> None:
    """Resource-guard ceilings (see docs/resilience.md)."""
    parser.add_argument("--max-instances", type=int, metavar="N",
                        help="ceiling on live automaton instances per "
                             "executor (resource guard)")
    parser.add_argument("--max-buffer-mb", type=float, metavar="MB",
                        help="ceiling on estimated match-buffer memory "
                             "per executor (resource guard)")
    parser.add_argument("--guard-policy", default="raise",
                        choices=["raise", "shed", "degrade"],
                        help="what a guard breach does: raise a typed "
                             "error, shed oldest instances, or degrade "
                             "group arity (default: raise)")


def _guard_from_args(args: argparse.Namespace):
    """A :class:`~repro.resilience.guards.GuardConfig` from the CLI
    guard flags, or ``None`` when no ceiling was requested."""
    if args.max_instances is None and args.max_buffer_mb is None:
        return None
    from .resilience import GuardConfig
    return GuardConfig(
        max_instances=args.max_instances,
        max_buffer_bytes=(None if args.max_buffer_mb is None
                          else int(args.max_buffer_mb * 1024 * 1024)),
        policy=args.guard_policy)


def _load_query(args: argparse.Namespace):
    """The query text as ``(pattern, aggregate_spec_or_None)``."""
    text = args.query
    if text is None:
        text = args.query_file.read_text()
    return parse_query_spec(text)


def _load_pattern(args: argparse.Namespace):
    # Commands that analyse the pattern itself (explain/lint)
    # accept aggregation queries too: the SELECT clause changes what a
    # run returns, not the automaton being analysed.
    pattern, _aggregate = _load_query(args)
    return pattern


def _cmd_match(args: argparse.Namespace) -> int:
    pattern, aggregate = _load_query(args)
    relation = load_relation(args.data)
    tracing = args.trace_out is not None
    profiling = (args.profile or args.metrics_out is not None
                 or args.listen is not None or tracing)
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    if tracing and args.workers != 1:
        raise ValueError("--trace-out requires --workers 1 (worker "
                         "processes only ship aggregated spans back)")
    if tracing and args.dead_letter is not None:
        raise ValueError("--trace-out and --dead-letter are mutually "
                         "exclusive (supervised runs execute in shard "
                         "processes)")
    guard = _guard_from_args(args)
    if (guard is not None and args.workers != 1
            and args.dead_letter is None):
        raise ValueError("guard ceilings require --workers 1 or a "
                         "supervised run (--dead-letter)")
    obs = None
    if profiling:
        # Individual span records are only needed for the trace export;
        # aggregation alone keeps --profile and --listen cheap.
        obs = Observability(spans=SpanTracer(keep_records=tracing))
    flight = (FlightRecorder() if (tracing or args.listen is not None)
              and args.workers == 1 else None)
    plan = compile_plan(pattern, aggregate=aggregate, observability=obs)
    server = None
    if args.listen is not None:
        from .explain import explain
        host, port = parse_listen(args.listen)
        server = ObsServer(host=host, port=port,
                           snapshot=lambda: live_snapshot(obs),
                           flight=flight,
                           explain=lambda: explain(plan).to_dict(),
                           lineage=lambda: obs.lineage).start()
        print(f"serving observability on {server.url}")
    try:
        if args.dead_letter is not None:
            result = _run_supervised_match(plan, relation, args, obs, guard)
        elif args.workers == 1:
            executor = plan.executor(
                use_filter=not args.no_filter, selection=args.selection,
                consume=args.mode, observability=obs, flight=flight,
                guard=guard, record_history=profiling,
                history_max_samples=PROFILE_HISTORY_SAMPLES)
            result = executor.run(relation)
        else:
            result = plan.match(relation,
                                use_filter=not args.no_filter,
                                selection=args.selection,
                                consume=args.mode,
                                workers=args.workers,
                                observability=obs)
    finally:
        if server is not None:
            server.stop()
    series = getattr(result, "aggregates", None)
    if series is not None:
        print(f"{series.matches_folded} match(es) folded over "
              f"{len(relation)} events (none materialised)")
        for label, value in series:
            print(f"  {label} = {value}")
    else:
        print(f"{len(result)} match(es) in {len(relation)} events")
        for i, substitution in enumerate(result, start=1):
            bindings = ", ".join(f"{variable!r}/{event.eid or event.ts}"
                                 for variable, event in substitution)
            print(f"  {i}. {{{bindings}}}  "
                  f"[T={substitution.min_ts()}..{substitution.max_ts()}]")
    if args.stats:
        stats = result.stats
        print(f"events read:      {stats.events_read}")
        print(f"events filtered:  {stats.events_filtered}")
        print(f"max instances:    {stats.max_simultaneous_instances}")
        print(f"transitions:      {stats.transitions_fired}")
        print(f"accepted buffers: {stats.accepted_buffers}")
    if args.profile:
        _print_profile(obs, result.stats)
    if args.metrics_out is not None:
        path = write_jsonl(obs.snapshot(), args.metrics_out)
        print(f"metrics snapshot: {path}")
    if tracing:
        write_chrome_trace(args.trace_out, spans=obs.spans, flight=flight,
                           lineage=obs.lineage)
        print(f"chrome trace: {args.trace_out} "
              f"(open in ui.perfetto.dev or chrome://tracing)")
    return 0


def _run_supervised_match(plan, relation, args: argparse.Namespace,
                          obs, guard):
    """``match --dead-letter``: a supervised sharded streaming run.

    Events are replayed through a
    :class:`~repro.parallel.sharded.ShardedStreamMatcher` under a
    :class:`~repro.resilience.supervisor.Supervisor` — poison events go
    to the dead-letter file instead of failing the run.  Result
    selection follows the streaming semantics (accepted buffers with
    overlap suppression), not ``--selection``.
    """
    from .automaton.executor import MatchResult
    from .parallel.sharded import ShardedStreamMatcher
    from .resilience import DeadLetterQueue, Supervisor
    dead_letter = DeadLetterQueue()
    supervisor = Supervisor(dead_letter=dead_letter)
    matcher = ShardedStreamMatcher(
        plan, workers=args.workers, use_filter=not args.no_filter,
        observability=obs, supervisor=supervisor, guard=guard)
    try:
        with matcher:
            matcher.push_many(relation)
    finally:
        # Always write the file: "exists and empty" is the scriptable
        # signature of a clean run (CI's chaos smoke relies on it).
        dead_letter.write_jsonl(args.dead_letter)
        if len(dead_letter):
            print(f"{len(dead_letter)} quarantined event(s) written to "
                  f"{args.dead_letter}")
        if supervisor.restarts_total:
            print(f"recovered from {supervisor.restarts_total} shard "
                  f"crash(es)")
    matches = matcher.matches
    aggregates = (matcher.aggregates() if plan.aggregate is not None
                  else None)
    return MatchResult(matches=matches, accepted=list(matches),
                       aggregates=aggregates)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Replay ``--data`` through a streaming matcher, then serve until
    stopped (POST /quitquitquit, SIGTERM, Ctrl-C, or ``--once``)."""
    pattern, aggregate = _load_query(args)
    relation = load_relation(args.data)
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    if args.restart_budget < 0:
        raise ValueError("--restart-budget must be >= 0")
    guard = _guard_from_args(args)
    obs = Observability()
    plan = compile_plan(pattern, aggregate=aggregate, observability=obs)
    stop = threading.Event()
    supervising = args.supervise or args.dead_letter is not None
    sharded = args.workers > 1 or supervising
    flight = None if sharded else FlightRecorder()
    supervisor = None
    dead_letter = None
    patterns = None

    if sharded:
        from .parallel.sharded import ShardedStreamMatcher
        if supervising:
            from .resilience import (DeadLetterQueue, RestartPolicy,
                                     Supervisor)
            dead_letter = DeadLetterQueue()
            supervisor = Supervisor(
                restart=RestartPolicy(max_restarts=args.restart_budget),
                dead_letter=dead_letter)
        matcher = ShardedStreamMatcher(plan, workers=args.workers,
                                       use_filter=not args.no_filter,
                                       observability=obs,
                                       supervisor=supervisor, guard=guard)

        def health():
            # "degraded" (restart budget in use, guards shedding) still
            # answers 200 — the stream is alive; only "failed" is a 503.
            report = matcher.health()
            return report["status"] != "failed", report
    else:
        # Single-worker serves run on a PatternRegistry: the replayed
        # query is the first registered pattern, and further patterns
        # can be added/removed hot over /patterns while the process
        # serves (sharded serves keep the fixed single-pattern path —
        # hot registration is not supported there).
        from .registry import PatternRegistry, RegistryHTTPAdapter, TenantQuota
        default_quota = None if guard is None else TenantQuota(guard=guard)
        # The hub ring and the delivery WAL are the served history, so
        # the registry keeps a count, not a copy of every match.
        matcher = PatternRegistry(use_filter=not args.no_filter,
                                  observability=obs, flight=flight,
                                  default_quota=default_quota,
                                  keep_matches=False)
        matcher.register(plan)
        patterns = RegistryHTTPAdapter(matcher)

        def health():
            return True, {"status": "ok", "workers": 1,
                          "patterns": len(matcher),
                          "active_instances": matcher.active_instances,
                          "matches": matcher.match_count}

    # --subscribe: the push front-end (ingest + subscriptions) wraps the
    # matcher; every reported match is published to the hub, and the
    # end-of-stream flush happens inside the push server's drain so
    # subscribers see the final matches before their terminal notice.
    push = None
    hub = None
    matcher_closed = []

    def close_matcher() -> None:
        if not matcher_closed:
            matcher_closed.append(True)
            matcher.close()

    if args.subscribe is not None:
        from .net import PushServer, SubscriptionHub
        wal = None
        if args.delivery_wal is not None:
            from .resilience import DeliveryLog
            wal = DeliveryLog(args.delivery_wal)
        hub = SubscriptionHub(ring_size=args.replay_ring, wal=wal,
                              observability=obs,
                              default_queue=args.sub_queue,
                              default_policy=args.sub_policy,
                              heartbeat_seconds=args.heartbeat,
                              idle_timeout_seconds=args.idle_timeout)
        if sharded:
            matcher.on_match(lambda match: hub.publish(match))
        else:
            matcher.on_match(lambda pid, match: hub.publish(
                match, pattern_id=pid, tenant=matcher.tenant_of(pid)))
        push_host, push_port = parse_listen(args.subscribe)
        push = PushServer(hub, submit=matcher.push_many,
                          flush=close_matcher,
                          host=push_host, port=push_port,
                          ingest_queue=args.ingest_queue,
                          observability=obs, health=health,
                          on_quit=stop.set)

    from .explain import explain
    restore_signals = _install_serve_signal_handlers(stop, flight,
                                                     args.flight_dump)
    server = ObsServer(*parse_listen(args.listen),
                       snapshot=lambda: live_snapshot(obs),
                       health=health, flight=flight,
                       explain=lambda: explain(plan).to_dict(),
                       patterns=patterns,
                       lineage=lambda: obs.lineage,
                       on_quit=stop.set)
    try:
        server.start()
        print(f"serving observability on {server.url}", flush=True)
        if push is not None:
            push.start()
            print(f"serving push endpoint on {push.url}", flush=True)
            # Replay through the same bounded ingest queue remote
            # producers use: one worker owns every matcher call, so
            # concurrent 'repro push' batches interleave safely.
            push.submit_events(relation)
            if sharded:
                push.submit_call(matcher.flush)
            else:
                push.submit_call(matcher.publish_stats)
        else:
            matcher.push_many(relation)
            if sharded:
                matcher.flush()
            else:
                matcher.publish_stats()
        print(f"replayed {len(relation)} events, "
              f"{matcher.match_count} match(es) so far", flush=True)
        if not args.once:
            while not stop.wait(0.25):
                pass
        if push is not None:
            push.shutdown(grace=args.drain_grace)
        close_matcher()
    except KeyboardInterrupt:
        if push is not None:
            push.shutdown(grace=args.drain_grace)
        close_matcher()
    except Exception as exc:
        dump = getattr(exc, "flight_dump", None)
        if dump is None and flight is not None:
            dump = flight.dump()
        if dump is not None and args.flight_dump is not None:
            import json as _json
            args.flight_dump.write_text(
                _json.dumps(dump, indent=2, default=str) + "\n")
            print(f"flight dump: {args.flight_dump}", file=sys.stderr)
        raise
    finally:
        if push is not None:
            push.shutdown(grace=args.drain_grace)  # idempotent
        server.stop()
        restore_signals()
        if args.dead_letter is not None and dead_letter is not None:
            dead_letter.write_jsonl(args.dead_letter)
            if len(dead_letter):
                print(f"{len(dead_letter)} quarantined event(s) written "
                      f"to {args.dead_letter}", file=sys.stderr)
    if supervisor is not None and supervisor.restarts_total:
        print(f"recovered from {supervisor.restarts_total} shard crash(es)")
    print(f"done: {matcher.match_count} match(es) reported")
    return 0


def _install_serve_signal_handlers(stop: threading.Event, flight,
                                   dump_path):
    """SIGTERM stops the serve loop; SIGUSR2 dumps the flight recorder.

    Returns a zero-argument callable restoring the previous handlers —
    serve must not leak its handlers into the host process (a child
    forked afterwards would inherit a SIGTERM handler pointing at a
    dead serve loop and become unkillable by ``terminate()``).
    ``signal.signal`` is main-thread-only, so this is a no-op when the
    CLI runs on a worker thread (as the tests do)."""
    if threading.current_thread() is not threading.main_thread():
        return lambda: None
    previous = [(signal.SIGTERM, signal.getsignal(signal.SIGTERM))]
    signal.signal(signal.SIGTERM, lambda signo, frame: stop.set())
    if flight is not None:
        sigusr2 = getattr(signal, "SIGUSR2", None)
        if sigusr2 is not None:
            previous.append((sigusr2, signal.getsignal(sigusr2)))
        install_flight_signal_handler(flight, path=dump_path)

    def restore() -> None:
        for signum, handler in previous:
            signal.signal(signum, handler)

    return restore


def _print_profile(obs: Observability, stats) -> None:
    """The ``--profile`` report: stage timings and the Ω timeline."""
    print()
    print(format_table(
        ["stage", "calls", "total s", "self s", "share"],
        obs.stage_rows(),
        title="per-stage timing"))
    latency_rows = _quantile_rows(obs)
    if latency_rows:
        print()
        print(format_table(["latency", "p50", "p95", "p99", "count"],
                           latency_rows, title="latency quantiles"))
    worker_rows = _worker_rows(obs)
    if worker_rows:
        print()
        print(format_table(["worker", "events"], worker_rows,
                           title="per-worker events"))
    history = stats.omega_history
    if history:
        print()
        print(f"Ω timeline (peak {stats.max_simultaneous_instances}):")
        print(f"  {sparkline(history)}")


def _quantile_rows(obs: Observability) -> List[List[object]]:
    """p50/p95/p99 rows for every non-empty histogram in the bundle."""
    rows = []
    for name, record in sorted(obs.snapshot().items()):
        if record.get("type") != "histogram" or not record.get("count"):
            continue
        quantiles = [snapshot_quantile(record, q)
                     for q in (0.5, 0.95, 0.99)]
        rows.append([name] + [f"{value:.3g}" for value in quantiles]
                    + [record["count"]])
    return rows


def _worker_rows(obs: Observability) -> List[List[object]]:
    """Per-worker event counts from the ``ses_pool_worker*`` gauges."""
    rows = []
    for name, record in sorted(obs.snapshot().items()):
        match_ = re.fullmatch(r"ses_pool_worker(\d+)_events_total", name)
        if match_:
            rows.append([f"worker {match_.group(1)}",
                         int(record["value"])])
    return rows


def _cmd_registry(args: argparse.Namespace) -> int:
    """HTTP client for a running serve process's ``/patterns`` routes."""
    import json
    import urllib.error
    import urllib.request

    base = args.server.rstrip("/")
    if not base.startswith(("http://", "https://")):
        base = "http://" + base

    def call(method: str, path: str, payload=None):
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(base + path, data=data,
                                         headers=headers, method=method)
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.load(response)

    try:
        if args.registry_command == "list":
            listing = call("GET", "/patterns")
            rows = listing["patterns"]
            for row in rows:
                print(f"{row['id']}  tenant={row['tenant']}  "
                      f"matches={row['matches']}  "
                      f"active={row['active_instances']}  "
                      f"events={row['events_delivered']}  "
                      f"plan={row['fingerprint'][:12]}")
            print(f"{len(rows)} pattern(s), {listing['predicates']} shared "
                  f"predicate(s)")
        elif args.registry_command == "add":
            payload = {"query": (args.query if args.query is not None
                                 else args.query_file.read_text()),
                       "tenant": args.tenant}
            if args.pattern_id is not None:
                payload["id"] = args.pattern_id
            row = call("POST", "/patterns", payload)
            print(f"registered {row['id']} "
                  f"(plan {row.get('fingerprint', '?')[:12]})")
        else:  # rm
            row = call("DELETE", f"/patterns/{args.pattern_id}")
            print(f"deregistered {row['id']} after {row['matches']} "
                  f"match(es)")
        return 0
    except urllib.error.HTTPError as exc:
        try:
            detail = json.load(exc).get("error", "")
        except (ValueError, AttributeError):
            detail = exc.reason
        print(f"error: {base} answered {exc.code}: {detail}",
              file=sys.stderr)
        return 1
    except urllib.error.URLError as exc:
        print(f"error: cannot reach {base}: {exc.reason}", file=sys.stderr)
        return 1


def _cmd_tail(args: argparse.Namespace) -> int:
    """``repro tail``: follow a push endpoint's match stream.

    Prints one JSON line per received event to stdout (and, with
    ``--out``, to a transcript file).  The resume cursor survives the
    process via ``--resume-file``, so re-running the command continues
    exactly where the last run stopped — combined with the server-side
    delivery log this gives exactly-once tailing across both client and
    server restarts.
    """
    import json
    from .net import subscribe_sse

    host, port = parse_listen(args.server)
    resume = None
    if args.resume is not None and args.resume != "live":
        resume = int(args.resume)
    if (resume is None and args.resume_file is not None
            and args.resume_file.exists()):
        text = args.resume_file.read_text().strip()
        if text:
            resume = int(text)
    patterns = [p for p in (args.patterns or "").split(",") if p]
    tenants = [t for t in (args.tenants or "").split(",") if t]
    stream = subscribe_sse(
        host, port, resume=resume, patterns=patterns, tenants=tenants,
        subscriber_id=args.subscriber_id, policy=args.policy,
        queue_size=args.queue, reconnect=True,
        reconnect_delay=args.reconnect_delay,
        max_reconnects=args.max_reconnects, stop_on_drain=not args.follow)
    out = None if args.out is None else args.out.open("a", encoding="utf-8")
    matches = 0
    last_id = resume
    try:
        for item in stream:
            line = json.dumps(item, default=str)
            print(line, flush=True)
            if out is not None:
                out.write(line + "\n")
                out.flush()
            if item.get("id") is not None:
                last_id = int(item["id"])
                if args.resume_file is not None:
                    args.resume_file.write_text(f"{last_id}\n")
            if item.get("event") == "match":
                matches += 1
                if args.max is not None and matches >= args.max:
                    break
    except KeyboardInterrupt:
        pass
    finally:
        if out is not None:
            out.close()
    print(f"received {matches} match(es); resume cursor: "
          f"{'live' if last_id is None else last_id}", file=sys.stderr)
    return 0


def _cmd_push(args: argparse.Namespace) -> int:
    """``repro push``: feed a relation to a running push endpoint."""
    from .net import PushRejected, ServerDraining, push_events, request_quit

    host, port = parse_listen(args.server)
    relation = load_relation(args.data)
    try:
        accepted = push_events(host, port, relation,
                               batch_size=args.batch_size)
    except (ServerDraining, PushRejected) as exc:
        print(f"push refused: {exc}", file=sys.stderr)
        return 1
    print(f"pushed {accepted} events to {host}:{port}")
    if args.quit:
        summary = request_quit(host, port)
        print(f"server draining (resume cursor {summary.get('resume')})")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    relation = generate_chemo(patients=args.patients, cycles=args.cycles,
                              seed=args.seed,
                              lab_events_per_cycle=args.labs_per_cycle)
    if args.duplicate > 1:
        relation = relation.duplicated(args.duplicate)
    save_relation(relation, args.out)
    window = relation.window_size(264)
    print(f"wrote {len(relation)} events to {args.out} "
          f"(W = {window} at tau = 264)")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .explain import explain, explain_analyze
    pattern = _load_pattern(args)
    format = "dot" if args.dot else args.format
    relation = None if args.data is None else load_relation(args.data)
    if args.analyze:
        if relation is None:
            raise ValueError("--analyze requires --data")
        report = explain_analyze(pattern, relation,
                                 use_filter=not args.no_filter)
    else:
        report = explain(pattern, window=args.window, relation=relation)
    rendered = report.render(format)
    if args.out is not None:
        args.out.write_text(rendered + "\n", encoding="utf-8")
        print(f"explain report: {args.out}")
    else:
        print(rendered)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    pattern = _load_pattern(args)
    findings = diagnose(pattern)
    if not findings:
        print("no findings")
    for finding in findings:
        print(finding)
    if args.fix_joins:
        from .lang import render_pattern
        print()
        print(render_pattern(close_equality_joins(pattern)))
    return 0 if not any(f.severity == "error" for f in findings) else 3


def _cmd_stats(args: argparse.Namespace) -> int:
    snapshot = read_jsonl(args.snapshot)
    if args.format == "prom":
        sys.stdout.write(to_prometheus(snapshot))
        return 0
    if args.format == "json":
        sys.stdout.write(to_jsonl(snapshot))
        return 0
    by_type = {}
    # Sorted by name so the rendering is deterministic whatever order
    # the snapshot file accumulated records in.
    for name, record in sorted(snapshot.items()):
        by_type.setdefault(record.get("type", "gauge"), []).append(
            (name, record))
    if "counter" in by_type:
        print(format_table(
            ["counter", "value"],
            [[n, r["value"]] for n, r in by_type["counter"]],
            title="counters"))
        print()
    if "gauge" in by_type:
        print(format_table(
            ["gauge", "value", "max"],
            [[n, r["value"], r.get("max", "")] for n, r in by_type["gauge"]],
            title="gauges"))
        print()
    if "stage" in by_type:
        print(format_table(
            ["stage", "calls", "total s", "self s"],
            [[n.replace("repro_stage_", ""), r["count"], r["total_seconds"],
              r["self_seconds"]] for n, r in by_type["stage"]],
            title="stage timings"))
        print()
    for name, record in by_type.get("histogram", ()):
        mean = record["sum"] / record["count"] if record["count"] else 0.0
        print(f"{name}: n={record['count']}  sum={record['sum']:.6g}  "
              f"mean={mean:.6g}")
        if record["count"]:
            quantiles = "  ".join(
                f"p{int(q * 100)}={snapshot_quantile(record, q):.3g}"
                for q in (0.5, 0.95, 0.99))
            print(f"  {quantiles}")
            print(f"  {sparkline(record['buckets'])}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: a batch run with lineage sampling forced on,
    rendering every delivered match's provenance record."""
    pattern, aggregate = _load_query(args)
    relation = load_relation(args.data)
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    if not 0.0 <= args.sample <= 1.0:
        raise ValueError("--sample must be in [0, 1]")
    config = TraceConfig(sample_rate=args.sample,
                         slow_seconds=args.slow_ms / 1000.0)
    obs = Observability(lineage=LineageRecorder(config))
    plan = compile_plan(pattern, aggregate=aggregate, observability=obs)
    from .api import query as run_query
    result = run_query(plan, relation, workers=args.workers,
                       observability=obs)
    lineage = obs.lineage
    summary = lineage.summary()
    if result.kind == "aggregates":
        print(f"{result.matches_folded} match(es) folded over "
              f"{len(relation)} events; "
              f"{summary['records']} lineage record(s)", file=sys.stderr)
    else:
        print(f"{len(result)} match(es) in {len(relation)} events; "
              f"{summary['records']} lineage record(s), "
              f"{summary['ingested']} traced", file=sys.stderr)
    rendered = lineage.report().render(args.format)
    if args.out is not None:
        args.out.write_text(rendered + "\n", encoding="utf-8")
        print(f"lineage report: {args.out}", file=sys.stderr)
    else:
        print(rendered)
    if args.otel_out is not None:
        write_otel_spans(args.otel_out, lineage)
        # stderr: stdout must stay a clean json/dot document for pipes.
        print(f"otel spans: {args.otel_out}", file=sys.stderr)
    return 0


_COMMANDS = {
    "match": _cmd_match,
    "serve": _cmd_serve,
    "registry": _cmd_registry,
    "tail": _cmd_tail,
    "push": _cmd_push,
    "generate": _cmd_generate,
    "explain": _cmd_explain,
    "lint": _cmd_lint,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(-1 if args.quiet else args.verbose)
    logger.debug("command: %s", args.command)
    try:
        return _COMMANDS[args.command](args)
    except QueryError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 2
    except ResourceExhausted as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

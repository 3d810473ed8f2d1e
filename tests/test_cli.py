"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.storage import load_relation, save_relation

Q1_TEXT = ("PATTERN PERMUTE(c, p+, d) THEN b "
           "WHERE c.L = 'C' AND p.L = 'P' AND d.L = 'D' AND b.L = 'B' "
           "AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID WITHIN 264")


@pytest.fixture
def figure1_csv(tmp_path, figure1):
    path = tmp_path / "events.csv"
    save_relation(figure1, path)
    return path


class TestMatchCommand:
    def test_prints_matches(self, figure1_csv, capsys):
        code = main(["match", "--data", str(figure1_csv),
                     "--query", Q1_TEXT])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 match(es) in 14 events" in out
        assert "c/e1" in out and "b/e13" in out

    def test_stats_flag(self, figure1_csv, capsys):
        main(["match", "--data", str(figure1_csv), "--query", Q1_TEXT,
              "--stats"])
        out = capsys.readouterr().out
        assert "events read:" in out
        assert "max instances:" in out

    def test_query_file(self, figure1_csv, tmp_path, capsys):
        query_file = tmp_path / "q1.ses"
        query_file.write_text(Q1_TEXT)
        code = main(["match", "--data", str(figure1_csv),
                     "--query-file", str(query_file)])
        assert code == 0
        assert "2 match(es)" in capsys.readouterr().out

    def test_selection_accepted(self, figure1_csv, capsys):
        main(["match", "--data", str(figure1_csv), "--query", Q1_TEXT,
              "--selection", "accepted"])
        assert "3 match(es)" in capsys.readouterr().out

    def test_exhaustive_mode(self, figure1_csv, capsys):
        code = main(["match", "--data", str(figure1_csv),
                     "--query", Q1_TEXT, "--mode", "exhaustive"])
        assert code == 0
        assert "2 match(es)" in capsys.readouterr().out

    def test_no_filter(self, figure1_csv, capsys):
        code = main(["match", "--data", str(figure1_csv),
                     "--query", Q1_TEXT, "--no-filter", "--stats"])
        assert code == 0
        assert "events filtered:  0" in capsys.readouterr().out

    def test_missing_data_file(self, capsys):
        code = main(["match", "--data", "/nonexistent.csv",
                     "--query", "PATTERN a WITHIN 1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_query(self, figure1_csv, capsys):
        code = main(["match", "--data", str(figure1_csv),
                     "--query", "PATTERN"])
        assert code == 2
        assert "query error" in capsys.readouterr().err


class TestProfileFlag:
    def test_prints_stage_table_and_sparkline(self, figure1_csv, capsys):
        code = main(["match", "--data", str(figure1_csv), "--query", Q1_TEXT,
                     "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-stage timing" in out
        for stage in ("filter", "consume", "select"):
            assert stage in out
        assert "Ω timeline" in out

    def test_writes_snapshot(self, figure1_csv, tmp_path, capsys):
        snapshot = tmp_path / "metrics.jsonl"
        code = main(["match", "--data", str(figure1_csv), "--query", Q1_TEXT,
                     "--profile", "--metrics-out", str(snapshot)])
        assert code == 0
        assert "metrics snapshot" in capsys.readouterr().out
        from repro.obs import read_jsonl
        snap = read_jsonl(snapshot)
        assert snap["ses_events_read_total"]["value"] == 14
        assert "repro_stage_filter" in snap
        assert "repro_stage_select" in snap

    def test_metrics_out_implies_instrumentation(self, figure1_csv, tmp_path):
        snapshot = tmp_path / "metrics.jsonl"
        code = main(["match", "--data", str(figure1_csv), "--query", Q1_TEXT,
                     "--metrics-out", str(snapshot)])
        assert code == 0
        assert snapshot.exists()

    def test_matches_unchanged_under_profile(self, figure1_csv, capsys):
        main(["match", "--data", str(figure1_csv), "--query", Q1_TEXT,
              "--profile"])
        assert "2 match(es) in 14 events" in capsys.readouterr().out


class TestStatsCommand:
    @pytest.fixture
    def snapshot_file(self, figure1_csv, tmp_path):
        path = tmp_path / "metrics.jsonl"
        main(["match", "--data", str(figure1_csv), "--query", Q1_TEXT,
              "--metrics-out", str(path)])
        return path

    def test_table_output(self, snapshot_file, capsys):
        capsys.readouterr()
        code = main(["stats", str(snapshot_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "counters" in out
        assert "ses_events_read_total" in out
        assert "stage timings" in out
        assert "ses_event_latency_seconds" in out

    def test_prometheus_output(self, snapshot_file, capsys):
        capsys.readouterr()
        code = main(["stats", str(snapshot_file), "--format", "prom"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE ses_events_read_total counter" in out
        assert 'ses_event_latency_seconds_bucket{le="+Inf"}' in out

    def test_json_output(self, snapshot_file, capsys):
        capsys.readouterr()
        code = main(["stats", str(snapshot_file), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        import json
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert any(r["name"] == "ses_matches_total" for r in records)

    def test_missing_snapshot(self, capsys):
        code = main(["stats", "/nonexistent.jsonl"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestVerbosityFlags:
    def test_verbose_logs_to_stderr(self, figure1_csv, capsys):
        code = main(["-v", "match", "--data", str(figure1_csv),
                     "--query", Q1_TEXT])
        captured = capsys.readouterr()
        assert code == 0
        assert "loaded 14 events" in captured.err

    def test_quiet_suppresses_info(self, figure1_csv, capsys):
        code = main(["-q", "match", "--data", str(figure1_csv),
                     "--query", Q1_TEXT])
        captured = capsys.readouterr()
        assert code == 0
        assert "loaded" not in captured.err


class TestGenerateCommand:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = main(["generate", "--out", str(out), "--patients", "2",
                     "--cycles", "1", "--seed", "3"])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        relation = load_relation(out)
        assert len(relation) > 0

    def test_duplicate_factor(self, tmp_path):
        single = tmp_path / "d1.csv"
        double = tmp_path / "d2.csv"
        main(["generate", "--out", str(single), "--patients", "2",
              "--cycles", "1"])
        main(["generate", "--out", str(double), "--patients", "2",
              "--cycles", "1", "--duplicate", "2"])
        assert len(load_relation(double)) == 2 * len(load_relation(single))

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--out", str(a), "--patients", "2", "--cycles", "1"])
        main(["generate", "--out", str(b), "--patients", "2", "--cycles", "1"])
        assert a.read_text() == b.read_text()


class TestExplainCommand:
    def test_text_output(self, capsys):
        code = main(["explain", "--query", Q1_TEXT])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("EXPLAIN plan")
        assert "automaton: 9 states, 17 transitions" in out
        assert "cdp+" in out
        assert "prefilter[conjunctive]" in out
        assert "plan cache:" in out

    def test_dot_output(self, capsys):
        main(["explain", "--dot", "--query", Q1_TEXT])
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "doublecircle" in out

    def test_analyze_output(self, figure1_csv, capsys):
        code = main(["explain", "--query", Q1_TEXT, "--analyze",
                     "--data", str(figure1_csv)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("EXPLAIN ANALYZE")
        assert "reconciled with executor counters" in out


class TestAnalyzeCommand:
    """The Theorem 1-3 complexity report is a section of ``repro
    explain``: W given by ``--window`` or read from ``--data``, never
    both.  There is no separate ``analyze`` command."""

    def test_with_explicit_window(self, capsys):
        code = main(["explain", "--window", "50", "--query", Q1_TEXT])
        out = capsys.readouterr().out
        assert code == 0
        assert "W = 50" in out
        assert "Theorem 1" in out

    def test_with_data_file(self, figure1_csv, capsys):
        code = main(["explain", "--data", str(figure1_csv),
                     "--query", Q1_TEXT])
        out = capsys.readouterr().out
        assert code == 0
        assert "W = 14" in out
        assert "Theorem 1" in out

    def test_window_and_data_exclusive(self, figure1_csv, capsys):
        with pytest.raises(SystemExit):
            main(["explain", "--window", "5", "--data", str(figure1_csv),
                  "--query", Q1_TEXT])
        assert "not allowed with" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["analyze", "--window", "5", "--query", Q1_TEXT])


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_query_and_query_file_exclusive(self, figure1_csv, tmp_path):
        query_file = tmp_path / "q.ses"
        query_file.write_text(Q1_TEXT)
        with pytest.raises(SystemExit):
            main(["match", "--data", str(figure1_csv),
                  "--query", Q1_TEXT, "--query-file", str(query_file)])


class TestLintCommand:
    def test_clean_query(self, capsys):
        code = main(["lint", "--query",
                     "PATTERN PERMUTE(a, b) THEN c WHERE a.k = 'A' "
                     "AND b.k = 'B' AND c.k = 'C' WITHIN 10"])
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_warning_exit_zero(self, capsys):
        code = main(["lint", "--query", Q1_TEXT])
        assert code == 0
        assert "open-join-graph" in capsys.readouterr().out

    def test_error_exit_three(self, capsys):
        code = main(["lint", "--query",
                     "PATTERN a WHERE a.k = 'X' AND a.k = 'Y' WITHIN 5"])
        assert code == 3
        assert "unsatisfiable-variable" in capsys.readouterr().out

    def test_fix_joins_prints_closed_query(self, capsys):
        code = main(["lint", "--fix-joins", "--query", Q1_TEXT])
        out = capsys.readouterr().out
        assert code == 0
        assert "PATTERN PERMUTE(c, d, p+)" in out
        # The closure adds e.g. c.ID = b.ID (implied via d).
        assert out.count(".ID = ") > Q1_TEXT.count(".ID = ")


class TestTraceOut:
    def test_writes_valid_chrome_trace(self, figure1_csv, tmp_path, capsys):
        import json
        trace = tmp_path / "trace.json"
        code = main(["match", "--data", str(figure1_csv), "--query", Q1_TEXT,
                     "--trace-out", str(trace)])
        assert code == 0
        assert "chrome trace" in capsys.readouterr().out
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert "X" in phases  # stage spans
        for event in doc["traceEvents"]:
            assert "ph" in event and "pid" in event
            if event["ph"] != "M":
                assert "ts" in event

    def test_matches_unchanged_under_tracing(self, figure1_csv, tmp_path,
                                             capsys):
        main(["match", "--data", str(figure1_csv), "--query", Q1_TEXT,
              "--trace-out", str(tmp_path / "t.json")])
        assert "2 match(es) in 14 events" in capsys.readouterr().out

    def test_requires_single_worker(self, figure1_csv, tmp_path, capsys):
        code = main(["match", "--data", str(figure1_csv), "--query", Q1_TEXT,
                     "--trace-out", str(tmp_path / "t.json"),
                     "--workers", "2"])
        assert code == 1
        assert "--workers 1" in capsys.readouterr().err


class TestListenFlag:
    def test_match_serves_metrics_during_run(self, figure1_csv, capsys):
        code = main(["match", "--data", str(figure1_csv), "--query", Q1_TEXT,
                     "--listen", "127.0.0.1:0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving observability on http://127.0.0.1:" in out
        assert "2 match(es) in 14 events" in out


class TestServeCommand:
    def serve_in_background(self, argv):
        """Run ``repro serve`` on a thread; returns (thread, url)."""
        import io
        import re
        import threading
        import time
        from contextlib import redirect_stdout

        buffer = io.StringIO()

        def run():
            with redirect_stdout(buffer):
                main(argv)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            found = re.search(r"http://[\d.]+:\d+", buffer.getvalue())
            if found:
                return thread, found.group(0)
            time.sleep(0.02)
        raise AssertionError(f"serve never bound: {buffer.getvalue()!r}")

    def http(self, url, method="GET"):
        import urllib.error
        import urllib.request
        request = urllib.request.Request(
            url, data=b"" if method == "POST" else None, method=method)
        try:
            with urllib.request.urlopen(request, timeout=5) as resp:
                return resp.status, resp.read().decode()
        except urllib.error.HTTPError as err:
            return err.code, err.read().decode()

    def test_serves_until_quit(self, figure1_csv):
        import json
        thread, url = self.serve_in_background(
            ["serve", "--data", str(figure1_csv), "--query", Q1_TEXT,
             "--listen", "127.0.0.1:0"])
        status, health = self.http(url + "/healthz")
        assert status == 200
        assert json.loads(health)["status"] == "ok"
        status, metrics = self.http(url + "/metrics")
        assert status == 200
        assert "# TYPE" in metrics
        status, flight = self.http(url + "/debug/flight")
        assert status == 200
        assert json.loads(flight)["steps"]
        status, _ = self.http(url + "/quitquitquit", method="POST")
        assert status == 200
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_probes_count_matches_without_copying_them(self, tmp_path,
                                                       monkeypatch):
        # /healthz and /patterns want a number; `matches` copies every
        # substitution ever reported (the registry's under the lock the
        # matcher thread needs).
        import json
        import time
        from repro import Event
        from repro.core.relation import EventRelation
        from repro.registry import PatternRegistry
        from repro.stream.runner import ContinuousMatcher

        query = "PATTERN PERMUTE(a, b) WHERE a.L = 'B' AND b.L = 'C' WITHIN 10"
        events = [Event(ts=i, attrs={"L": "BC"[i % 2]}, eid=f"e{i}")
                  for i in range(40)]
        save_relation(EventRelation(events, name="pairs"),
                      tmp_path / "pairs.csv")
        solo = PatternRegistry()
        solo.register(query)
        expected = len(solo.push_many(events))
        assert expected > 1 and solo.match_count == expected

        def copied(self):
            raise AssertionError("a probe copied the match history")

        monkeypatch.setattr(PatternRegistry, "matches", property(copied))
        monkeypatch.setattr(ContinuousMatcher, "matches", property(copied))
        thread, url = self.serve_in_background(
            ["serve", "--data", str(tmp_path / "pairs.csv"),
             "--query", query, "--listen", "127.0.0.1:0"])

        def listing():
            status, body = self.http(url + "/patterns")
            assert status == 200
            return json.loads(body)["patterns"]

        deadline = time.monotonic() + 10
        while listing()[0]["events_delivered"] < len(events):
            assert time.monotonic() < deadline, "replay never finished"
            time.sleep(0.02)
        assert [row["matches"] for row in listing()] == [expected]
        status, health = self.http(url + "/healthz")
        assert status == 200 and json.loads(health)["matches"] == expected
        self.http(url + "/quitquitquit", method="POST")
        thread.join(timeout=10)
        assert not thread.is_alive()  # the closing lines count, too

    def test_once_exits_after_replay(self, figure1_csv, capsys):
        code = main(["serve", "--data", str(figure1_csv), "--query", Q1_TEXT,
                     "--listen", "127.0.0.1:0", "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "replayed 14 events" in out
        assert "done: 2 match(es) reported" in out

    def test_once_restores_signal_handlers(self, figure1_csv, capsys):
        # serve installs SIGTERM/SIGUSR2 handlers when run on the main
        # thread; leaking them would make any process forked afterwards
        # (e.g. a stream shard) ignore terminate() and hang its parent.
        import signal as _signal
        watched = [_signal.SIGTERM]
        if hasattr(_signal, "SIGUSR2"):
            watched.append(_signal.SIGUSR2)
        before = {signum: _signal.getsignal(signum) for signum in watched}
        code = main(["serve", "--data", str(figure1_csv), "--query", Q1_TEXT,
                     "--listen", "127.0.0.1:0", "--once"])
        capsys.readouterr()
        assert code == 0
        for signum in watched:
            assert _signal.getsignal(signum) is before[signum]

    def test_bad_workers(self, figure1_csv, capsys):
        code = main(["serve", "--data", str(figure1_csv), "--query", Q1_TEXT,
                     "--workers", "0", "--once"])
        assert code == 1
        assert "--workers" in capsys.readouterr().err

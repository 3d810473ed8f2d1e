"""Tests for the benchmark harness, report rendering, and experiments."""

import pytest

from repro.bench import (PROFILES, format_table, resolve_profile,
                         run_experiment1, run_experiment2, run_experiment3,
                         timed)
from repro.data import generate_chemo


@pytest.fixture(scope="module")
def tiny_relation():
    return generate_chemo(patients=2, cycles=1, seed=5)


class TestProfiles:
    def test_known_profiles(self):
        assert set(PROFILES) == {"quick", "default", "large"}

    def test_resolve_by_name(self):
        assert resolve_profile("quick").name == "quick"

    def test_resolve_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "large")
        assert resolve_profile().name == "large"

    def test_resolve_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        assert resolve_profile().name == "default"

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            resolve_profile("galactic")

    def test_profile_datasets_are_deterministic(self):
        profile = resolve_profile("quick")
        assert profile.exp1_relation().events == profile.exp1_relation().events
        assert len(profile.exp23_base()) > 0

    def test_timed(self):
        result, seconds = timed(sum, [1, 2, 3])
        assert result == 6
        assert seconds >= 0


class TestReport:
    def test_alignment(self):
        text = format_table(["name", "value"],
                            [["short", 1], ["a-longer-name", 123456]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1, "columns aligned"

    def test_title(self):
        text = format_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        text = format_table(["x"], [[0.001234], [12.3456], [4567.8]])
        assert "0.001" in text
        assert "12.35" in text
        assert "4568" in text


class TestExperimentRunners:
    def test_experiment1_rows(self, tiny_relation):
        rows = run_experiment1(tiny_relation, max_vars=3)
        assert {r["pattern"] for r in rows} == {"P1", "P2"}
        assert {r["n_vars"] for r in rows} == {2, 3}
        for row in rows:
            assert row["ses_instances"] >= 0
            assert row["bf_instances"] >= 0
            assert row["ratio"] > 0

    def test_experiment1_exclusive_only(self, tiny_relation):
        rows = run_experiment1(tiny_relation, max_vars=2, exclusive_only=True)
        assert {r["pattern"] for r in rows} == {"P1"}

    def test_experiment2_rows(self, tiny_relation):
        rows = run_experiment2(tiny_relation, factors=(1, 2))
        assert [r["dataset"] for r in rows] == ["D1", "D2"]
        assert rows[1]["window"] == 2 * rows[0]["window"]
        assert rows[1]["p3_instances"] >= rows[0]["p3_instances"]

    def test_experiment3_rows(self, tiny_relation):
        rows = run_experiment3(tiny_relation, factors=(1,))
        row = rows[0]
        assert row["dataset"] == "D1"
        for key in ("p5_without", "p5_with", "p6_without", "p6_with"):
            assert row[key] >= 0
        assert row["p5_filtered_events"] > 0

    def test_printers_do_not_crash(self, tiny_relation, capsys):
        from repro.bench import (print_experiment1, print_experiment2,
                                 print_experiment3)
        print_experiment1(run_experiment1(tiny_relation, max_vars=2))
        print_experiment2(run_experiment2(tiny_relation, factors=(1,)))
        print_experiment3(run_experiment3(tiny_relation, factors=(1,)))
        out = capsys.readouterr().out
        assert "Experiment 1" in out
        assert "Experiment 2" in out
        assert "Experiment 3" in out
        assert "Table 1" in out


class TestBenchMain:
    def test_main_quick_profile(self, capsys, monkeypatch):
        import repro.bench.__main__ as bench_main
        # Shrink the quick profile further for test speed.
        from repro.bench.harness import PROFILES, Profile
        monkeypatch.setitem(PROFILES, "quick", Profile(
            "quick", exp1_patients=2, exp1_cycles=1, exp1_max_vars=2,
            exp23_patients=2, exp23_cycles=1, factors=(1,)))
        code = bench_main.main(["quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile: quick" in out
        assert "Experiment 3" in out


class TestScaling:
    def test_workers_ladder(self):
        from repro.bench.scaling import workers_ladder
        assert workers_ladder(1) == [1]
        assert workers_ladder(4) == [1, 2, 4]
        assert workers_ladder(6) == [1, 2, 4, 6]
        with pytest.raises(ValueError):
            workers_ladder(0)

    def test_run_scaling_rows_and_snapshot(self, tiny_relation):
        from repro.bench.scaling import run_scaling, scaling_snapshot
        rows = run_scaling(tiny_relation, workers=(1, 2))
        assert [row["workers"] for row in rows] == [1, 2]
        assert rows[0]["speedup"] == 1.0
        assert len({row["matches"] for row in rows}) == 1
        snapshot = scaling_snapshot(rows)
        assert snapshot["bench_scaling_w2_speedup"]["type"] == "gauge"
        assert snapshot["bench_scaling_w1_seconds"]["value"] > 0

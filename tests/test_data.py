"""Tests for the data sets: Figure 1, the synthetic generator, workloads."""

import pytest

from repro.complexity import ComplexityCase, classify_set
from repro.data import (CHEMO_SCHEMA, DEFAULT_TAU, MEDICATION_TYPES,
                        base_dataset, calibrate_patients, duplicated_datasets,
                        experiment1_pattern, generate_chemo,
                        hours, pattern_p3, pattern_p4, pattern_p5, pattern_p6,
                        query_q1)


class TestFigure1:
    def test_fourteen_events(self, figure1):
        assert len(figure1) == 14
        assert [e.eid for e in figure1] == [f"e{i}" for i in range(1, 15)]

    def test_schema_conforms(self, figure1):
        for event in figure1:
            CHEMO_SCHEMA.validate(event.attributes)

    def test_event_types(self, figure1):
        labels = [e["L"] for e in figure1]
        assert labels == ["C", "B", "D", "P", "B", "P", "D", "C", "P", "P",
                          "P", "B", "B", "B"]

    def test_patients(self, figure1):
        ids = [e["ID"] for e in figure1]
        assert ids == [1, 1, 1, 1, 2, 2, 2, 2, 1, 2, 2, 1, 2, 2]

    def test_hours_helper(self):
        assert hours(1, 0) == 0
        assert hours(3, 9) == 57
        assert hours(14, 9) - hours(3, 9) == 264

    def test_example4_span(self, figure1):
        """Figure 2: the patient-2 match spans 191 hours."""
        events = {e.eid: e for e in figure1}
        assert events["e13"].ts - events["e6"].ts == 191


class TestGenerator:
    def test_deterministic(self):
        assert (generate_chemo(patients=3, cycles=2, seed=1).events
                == generate_chemo(patients=3, cycles=2, seed=1).events)

    def test_seed_changes_data(self):
        a = generate_chemo(patients=3, cycles=2, seed=1)
        b = generate_chemo(patients=3, cycles=2, seed=2)
        assert a.events != b.events

    def test_schema_conforms(self):
        relation = generate_chemo(patients=2, cycles=1)
        for event in relation:
            CHEMO_SCHEMA.validate(event.attributes)

    def test_time_ordered(self):
        relation = generate_chemo(patients=4, cycles=2)
        timestamps = [e.ts for e in relation]
        assert timestamps == sorted(timestamps)

    def test_all_medication_types_present(self):
        relation = generate_chemo(patients=1, cycles=1)
        labels = {e["L"] for e in relation}
        assert set(MEDICATION_TYPES) <= labels
        assert "B" in labels

    def test_lab_events_togglable(self):
        with_labs = generate_chemo(patients=1, cycles=1)
        without = generate_chemo(patients=1, cycles=1, lab_events_per_cycle=0)
        assert len(with_labs) > len(without)
        med_and_blood = set(MEDICATION_TYPES) | {"B"}
        assert {e["L"] for e in without} <= med_and_blood

    def test_window_grows_with_patients(self):
        small = generate_chemo(patients=2, cycles=2).window_size(DEFAULT_TAU)
        large = generate_chemo(patients=8, cycles=2).window_size(DEFAULT_TAU)
        assert large > small

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_chemo(patients=0)
        with pytest.raises(ValueError):
            generate_chemo(cycles=0)

    def test_every_patient_matches_q1_style_queries(self):
        """Each patient cycle has C, D, P+ followed by a blood count."""
        from conftest import match
        relation = generate_chemo(patients=2, cycles=1, seed=3)
        result = match(query_q1(), relation)
        assert len(result) >= 2

    def test_calibrate_patients(self):
        n = calibrate_patients(120, cycles=2)
        w = generate_chemo(patients=n, cycles=2).window_size(264)
        assert w >= 120
        if n > 1:
            w_smaller = generate_chemo(patients=n - 1,
                                       cycles=2).window_size(264)
            assert w_smaller < 120

    def test_calibrate_rejects_invalid_target(self):
        with pytest.raises(ValueError):
            calibrate_patients(0)

    def test_calibrate_gives_up_at_cap(self):
        with pytest.raises(ValueError):
            calibrate_patients(10 ** 9, max_patients=4)


class TestWorkloads:
    def test_duplicated_datasets(self):
        base = base_dataset(patients=2, cycles=1)
        datasets = duplicated_datasets(base, (1, 2, 3))
        assert sorted(datasets) == [1, 2, 3]
        assert len(datasets[3]) == 3 * len(base)
        w1 = datasets[1].window_size(DEFAULT_TAU)
        assert datasets[2].window_size(DEFAULT_TAU) == 2 * w1

    def test_experiment1_p1_is_mutually_exclusive(self):
        for n in range(2, 7):
            pattern = experiment1_pattern(n, exclusive=True)
            assert classify_set(pattern, 0) is ComplexityCase.MUTUALLY_EXCLUSIVE

    def test_experiment1_p2_is_factorial(self):
        for n in range(2, 7):
            pattern = experiment1_pattern(n, exclusive=False)
            assert classify_set(pattern, 0) is ComplexityCase.FACTORIAL

    def test_experiment1_bounds(self):
        with pytest.raises(ValueError):
            experiment1_pattern(1, exclusive=True)
        with pytest.raises(ValueError):
            experiment1_pattern(7, exclusive=True)

    def test_p3_single_group_case(self):
        assert classify_set(pattern_p3(), 0) is ComplexityCase.SINGLE_GROUP

    def test_p4_factorial_case(self):
        assert classify_set(pattern_p4(), 0) is ComplexityCase.FACTORIAL

    def test_p5_exclusive_case(self):
        assert classify_set(pattern_p5(), 0) is ComplexityCase.MUTUALLY_EXCLUSIVE

    def test_p6_equals_p3(self):
        assert pattern_p6() == pattern_p3()

    def test_joins_toggle(self):
        with_joins = pattern_p3(joins=True)
        without = pattern_p3(joins=False)
        assert len(with_joins.conditions) > len(without.conditions)

    def test_patterns_use_default_tau(self):
        assert pattern_p3().tau == DEFAULT_TAU == 264


class TestPaperScaleCalibration:
    def test_reproduces_paper_window_size(self):
        """The generator calibrates to the paper's D1 (W = 1322) cheaply."""
        from repro.data import DEFAULT_TAU
        n = calibrate_patients(1322, cycles=4)
        relation = generate_chemo(patients=n, cycles=4)
        w = relation.window_size(DEFAULT_TAU)
        assert w >= 1322
        assert w <= 1322 * 1.1, "calibration should land close to target"

"""Tests for event persistence: typed CSV round trips of a relation."""

import pytest

from repro.storage import load_relation, save_relation

from conftest import ev, match


class TestCSV:
    def test_round_trip(self, tmp_path, figure1):
        path = tmp_path / "events.csv"
        save_relation(figure1, path)
        loaded = load_relation(path)
        assert loaded == figure1

    def test_types_preserved(self, tmp_path, figure1):
        path = tmp_path / "events.csv"
        save_relation(figure1, path)
        loaded = load_relation(path)
        first = loaded[0]
        assert isinstance(first["ID"], int)
        assert isinstance(first["V"], float)
        assert isinstance(first["L"], str)
        assert isinstance(first.ts, int)

    def test_schema_inferred_when_missing(self, tmp_path):
        from repro import EventRelation
        relation = EventRelation([ev(1, "A", n=3)])
        path = tmp_path / "x.csv"
        save_relation(relation, path)
        loaded = load_relation(path)
        assert loaded[0]["n"] == 3

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_relation(path)

    def test_missing_types_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("eid,T,L\ne1,1,C\n")
        with pytest.raises(ValueError):
            load_relation(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_relation(path)

    def test_end_to_end_match_after_reload(self, tmp_path, figure1, q1):
        path = tmp_path / "events.csv"
        save_relation(figure1, path)
        assert len(match(q1, load_relation(path))) == 2

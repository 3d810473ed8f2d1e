"""Tests for the embedded event store (tables, indexes, queries, CSV)."""

import pytest

from repro import Event, EventSchema
from repro.core.events import Attribute, SchemaError
from repro.data import CHEMO_SCHEMA, figure1_relation, query_q1
from repro.storage import Database, EventTable, load_relation, save_relation
from repro.storage.index import HashIndex, TimeIndex

from conftest import ev, match


@pytest.fixture
def table():
    t = EventTable("Event", CHEMO_SCHEMA, indexes=["ID", "L"])
    t.insert_many(figure1_relation())
    return t


class TestHashIndex:
    def test_lookup(self):
        idx = HashIndex("L")
        idx.add(0, "C")
        idx.add(1, "P")
        idx.add(2, "C")
        assert idx.lookup("C") == (0, 2)
        assert idx.lookup("missing") == ()

    def test_len_counts_rows(self):
        idx = HashIndex("L")
        idx.add(0, "C")
        idx.add(1, "C")
        assert len(idx) == 2

    def test_unhashable_value(self):
        idx = HashIndex("L")
        with pytest.raises(TypeError):
            idx.add(0, ["unhashable"])

    def test_values(self):
        idx = HashIndex("L")
        idx.add(0, "C")
        idx.add(1, "P")
        assert sorted(idx.values()) == ["C", "P"]


class TestTimeIndex:
    def test_range(self):
        idx = TimeIndex()
        for ts in (1, 3, 3, 7):
            idx.add(ts)
        assert idx.range(3, 3) == (1, 3)
        assert idx.range(None, None) == (0, 4)
        assert idx.range(8, None) == (4, 4)

    def test_out_of_order_rejected(self):
        idx = TimeIndex()
        idx.add(5)
        with pytest.raises(ValueError):
            idx.add(4)


class TestEventTable:
    def test_insert_validates_schema(self):
        t = EventTable("T", EventSchema(["kind"]))
        t.insert(ev(1))
        with pytest.raises(SchemaError):
            t.insert(Event(ts=2, other=1))

    def test_insert_mapping(self):
        t = EventTable("T", EventSchema(["kind"]))
        stored = t.insert({"kind": "A"}, ts=5)
        assert stored.ts == 5
        assert stored.eid == "T:1", "auto eid assigned"

    def test_insert_mapping_requires_ts(self):
        t = EventTable("T", EventSchema(["kind"]))
        with pytest.raises(ValueError):
            t.insert({"kind": "A"})

    def test_insert_rejects_other_types(self):
        t = EventTable("T", EventSchema(["kind"]))
        with pytest.raises(TypeError):
            t.insert(42)

    def test_out_of_order_insert_rejected(self, table):
        with pytest.raises(ValueError):
            table.insert(Event(ts=0, ID=1, L="C", V=1.0, U="mg"))

    def test_scan_slice(self, table):
        from repro.data.paper_events import hours
        sliced = list(table.scan(hours(3, 9), hours(4, 9)))
        assert [e.eid for e in sliced] == ["e1", "e2", "e3", "e4"]

    def test_lookup_uses_index(self, table):
        assert {e.eid for e in table.lookup("L", "C")} == {"e1", "e8"}

    def test_lookup_without_index_falls_back(self, table):
        assert len(table.lookup("U", "mg")) > 0

    def test_create_index_backfills(self, table):
        table.create_index("U")
        assert "U" in table.indexed_attributes
        assert {e.eid for e in table.lookup("L", "C")} == {"e1", "e8"}

    def test_create_index_invalid_attribute(self, table):
        with pytest.raises(SchemaError):
            table.create_index("T")
        with pytest.raises(SchemaError):
            table.create_index("nope")

    def test_create_index_idempotent(self, table):
        table.create_index("ID")
        assert table.indexed_attributes.count("ID") == 1

    def test_to_relation_round_trip(self, table):
        assert table.to_relation() == figure1_relation()

    def test_len_iter(self, table):
        assert len(table) == 14
        assert len(list(table)) == 14


class TestQuery:
    def test_equality_pushdown(self, table):
        result = table.query().where("ID", "=", 1).where("L", "=", "P").execute()
        assert [e.eid for e in result] == ["e4", "e9"]

    def test_nonindexed_predicates(self, table):
        result = table.query().where("V", ">", 1000.0).execute()
        assert {e.eid for e in result} == {"e1", "e8"}

    def test_time_range(self, table):
        from repro.data.paper_events import hours
        result = (table.query().where("ID", "=", 2)
                  .between(hours(5, 0), hours(6, 0)).execute())
        assert [e.eid for e in result] == ["e5", "e6", "e7"]

    def test_limit(self, table):
        result = table.query().where("L", "=", "P").limit(2).execute()
        assert len(result) == 2

    def test_limit_negative(self, table):
        with pytest.raises(ValueError):
            table.query().limit(-1)

    def test_unknown_attribute(self, table):
        with pytest.raises(ValueError):
            table.query().where("nope", "=", 1)

    def test_unknown_operator(self, table):
        with pytest.raises(ValueError):
            table.query().where("ID", "~", 1)

    def test_count(self, table):
        assert table.query().where("L", "=", "B").count() == 5

    def test_match_terminal(self, table, q1):
        result = table.query().match(q1)
        assert len(result) == 2

    def test_results_time_ordered(self, table):
        result = table.query().where("L", "=", "P").execute()
        timestamps = [e.ts for e in result]
        assert timestamps == sorted(timestamps)


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


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database("x")
        t = db.create_table("Event", CHEMO_SCHEMA)
        assert db.table("Event") is t
        assert "Event" in db
        assert db.table_names == ["Event"]

    def test_duplicate_table_rejected(self):
        db = Database("x")
        db.create_table("Event", CHEMO_SCHEMA)
        with pytest.raises(ValueError):
            db.create_table("Event", CHEMO_SCHEMA)

    def test_missing_table(self):
        with pytest.raises(KeyError):
            Database("x").table("nope")

    def test_drop(self):
        db = Database("x")
        db.create_table("Event", CHEMO_SCHEMA)
        db.drop_table("Event")
        assert "Event" not in db

    def test_save_load_round_trip(self, tmp_path, table):
        db = Database("hospital")
        db._tables["Event"] = table
        db.save(tmp_path / "db")
        loaded = Database.load(tmp_path / "db")
        assert loaded.name == "hospital"
        assert loaded.table("Event").to_relation() == table.to_relation()
        assert loaded.table("Event").indexed_attributes == ("ID", "L")

    def test_end_to_end_match_after_reload(self, tmp_path, table, q1):
        db = Database("hospital")
        db._tables["Event"] = table
        db.save(tmp_path / "db")
        reloaded = Database.load(tmp_path / "db").table("Event")
        assert len(match(q1, reloaded.to_relation())) == 2

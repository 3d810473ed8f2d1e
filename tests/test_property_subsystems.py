"""Property-based tests for CSV persistence and streaming."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Event, EventRelation
from repro.storage import load_relation, save_relation
from repro.core.events import Attribute, EventSchema
from repro.stream import ContinuousMatcher

from conftest import match
from test_property import simple_patterns, typed_relations

SCHEMA = EventSchema([Attribute("kind", str), Attribute("num", int)],
                     name="T")


@st.composite
def schema_relations(draw, max_events: int = 15):
    """Relations conforming to SCHEMA, with eids."""
    n = draw(st.integers(min_value=0, max_value=max_events))
    timestamps = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=60), min_size=n, max_size=n)))
    events = []
    for i, ts in enumerate(timestamps):
        events.append(Event(
            ts=ts, eid=f"e{i}",
            kind=draw(st.sampled_from("ABC")),
            num=draw(st.integers(-5, 5)),
        ))
    relation = EventRelation(schema=SCHEMA, name="T")
    relation.extend(events)
    return relation


class TestStorageProperties:
    @given(relation=schema_relations())
    @settings(max_examples=60, deadline=None)
    def test_csv_round_trip(self, relation, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "r.csv"
        save_relation(relation, path)
        assert load_relation(path) == relation


class TestStreamEqualsBatch:
    @given(pattern=simple_patterns(), relation=typed_relations(max_events=10))
    @settings(max_examples=60, deadline=None)
    def test_continuous_matcher_equals_batch(self, pattern, relation):
        """Streaming over a finite relation reports the batch matches.

        Overlap suppression is disabled on both sides: the online matcher
        suppresses in emission order, which may differ from the batch
        order when several matches expire at the same event."""
        matcher = ContinuousMatcher(pattern, suppress_overlaps=False)
        matcher.push_many(relation)
        matcher.close()
        batch = match(pattern, relation, selection="all-starts")
        streamed = sorted((frozenset(m.bindings) for m in matcher.matches),
                          key=str)
        batched = sorted((frozenset(m.bindings) for m in batch.matches),
                         key=str)
        assert streamed == batched

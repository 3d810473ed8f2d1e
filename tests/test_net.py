"""Tests for repro.net: wire protocols, subscription hub, push server."""

import asyncio
import json
import socket
import sys
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Event, Substitution
from repro.core.variables import group, var
from repro.lang import parse_query_spec
from repro.net import (MAX_FRAME_BYTES, DeliveredEntry, FrameDecoder,
                       FrameError, PushServer, SubscriptionHub,
                       decode_frames, encode_frame, event_from_json,
                       event_to_json, events_from_json, parse_sse_stream,
                       push_events, request_quit, sse_format, subscribe_sse)
from repro.net.client import PushRejected, _next_frame
from repro.net.server import IO_CHUNK_BYTES, RUN_EVENTS
from repro.obs import Observability
from repro.obs.lineage import LineageRecorder, match_id
from repro.obs.tracectx import TraceConfig
from repro.plan.cache import compile as compile_plan
from repro.registry import PatternRegistry
from repro.resilience import DeliveryLog, rotated_path

from conftest import raw_http

A, B = var("a"), var("b")

QUERY = ("PATTERN PERMUTE(a, b) WHERE a.L = 'B' AND b.L = 'C' "
         "WITHIN 10")


def make_sub(i):
    """A distinct two-event substitution (distinct match id per ``i``)."""
    return Substitution([
        (A, Event(ts=2 * i, attrs={"L": "B"}, eid=f"a{i}")),
        (B, Event(ts=2 * i + 1, attrs={"L": "C"}, eid=f"b{i}")),
    ])


def make_events(n, start_ts=0):
    """An alternating B/C stream producing roughly n//2 matches."""
    return [Event(ts=start_ts + i,
                  attrs={"L": "B" if i % 2 == 0 else "C"},
                  eid=f"e{start_ts + i}")
            for i in range(n)]


# ----------------------------------------------------------------------
# Wire formats
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip(self):
        frame = {"type": "batch", "seq": 1,
                 "events": [event_to_json(Event(ts=1, attrs={"L": "B"},
                                                eid="e1"))]}
        assert decode_frames(encode_frame(frame)) == [frame]

    def test_incremental_byte_by_byte(self):
        data = encode_frame({"type": "ping"}) + encode_frame({"type": "bye"})
        decoder = FrameDecoder()
        frames = []
        for i in range(len(data)):
            frames.extend(decoder.feed(data[i:i + 1]))
        assert [f["type"] for f in frames] == ["ping", "bye"]

    def test_oversized_frame_rejected(self):
        decoder = FrameDecoder(max_frame_bytes=16)
        with pytest.raises(FrameError, match="exceeds"):
            decoder.feed(encode_frame({"type": "x" * 64}))

    def test_undecodable_body_rejected(self):
        import struct
        with pytest.raises(FrameError, match="undecodable"):
            decode_frames(struct.pack(">I", 4) + b"\xff\xfe\x00\x01")

    def test_untyped_frame_rejected(self):
        import struct
        body = json.dumps([1, 2]).encode()
        with pytest.raises(FrameError, match="typed"):
            decode_frames(struct.pack(">I", len(body)) + body)

    def test_event_codec_roundtrip(self):
        event = Event(ts=7, attrs={"L": "B", "V": 1.5}, eid="e7")
        back = event_from_json(event_to_json(event))
        assert back.ts == 7 and back.eid == "e7"
        assert back.get("V") == 1.5

    def test_event_without_ts_rejected(self):
        with pytest.raises(FrameError, match="ts"):
            event_from_json({"eid": "x"})

    @pytest.mark.parametrize("ts", ["x", None, True, float("nan"),
                                    float("inf"), [1], {"a": 1}])
    def test_event_with_unorderable_ts_rejected(self, ts):
        with pytest.raises(FrameError, match="finite number"):
            event_from_json({"ts": ts, "attrs": {"L": "B"}})

    @pytest.mark.parametrize("attrs", [7, [1, 2], "L", True])
    def test_event_with_non_object_attrs_rejected(self, attrs):
        with pytest.raises(FrameError, match="attrs"):
            event_from_json({"ts": 1, "attrs": attrs})

    @pytest.mark.parametrize("obj", [
        {"ts": 1, "attrs": {"L": [1, 2]}},   # unhashable value
        {"ts": 1, "eid": ["e"]},             # unhashable id
        {"ts": 1, "attrs": {"T": 3}},        # the reserved time attribute
    ])
    def test_event_the_model_refuses_is_a_frame_error(self, obj):
        with pytest.raises(FrameError, match="unusable"):
            event_from_json(obj)

    def test_absent_or_null_attrs_and_float_ts_accepted(self):
        assert event_from_json({"ts": 1}).attributes == {}
        assert event_from_json({"ts": 1.5, "attrs": None}).ts == 1.5

    @pytest.mark.parametrize("events", [5, None, "ab", {"ts": 1}])
    def test_events_must_be_a_list(self, events):
        with pytest.raises(FrameError, match="list"):
            events_from_json(events)


class TestSSE:
    def test_format_and_parse_roundtrip(self):
        blocks = (sse_format({"a": 1}, event_id=3, event="match")
                  + b": heartbeat\n\n"
                  + sse_format({"resume": 3}, event="drain"))
        lines = blocks.decode().splitlines(keepends=True)
        parsed = list(parse_sse_stream(lines))
        assert parsed == [("match", "3", {"a": 1}),
                          ("drain", "3", {"resume": 3})]

    def test_default_event_type_is_message(self):
        parsed = list(parse_sse_stream(["data: {}", ""]))
        assert parsed == [("message", None, {})]


# ----------------------------------------------------------------------
# Delivery log
# ----------------------------------------------------------------------
class TestDeliveryLog:
    def test_append_requires_seq(self, tmp_path):
        log = DeliveryLog(tmp_path / "wal.jsonl")
        with pytest.raises(ValueError):
            log.append({"match_id": "x"})

    def test_roundtrip_and_cursor_queries(self, tmp_path):
        log = DeliveryLog(tmp_path / "wal.jsonl")
        for seq in range(5):
            log.append({"seq": seq, "match_id": f"m{seq}"})
        assert log.last_seq() == 4
        assert [r["seq"] for r in log.entries_after(2)] == [3, 4]
        assert len(DeliveryLog(tmp_path / "wal.jsonl")) == 5

    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = DeliveryLog(path)
        log.append({"seq": 0, "match_id": "m0"})
        with open(path, "a") as handle:
            handle.write('{"seq": 1, "match_')  # crash mid-write
        assert [r["seq"] for r in DeliveryLog(path)] == [0]
        # The restarted writer starts on a fresh line: the fragment
        # stays one skipped line and swallows nothing appended after it.
        log = DeliveryLog(path)
        log.append({"seq": 1, "match_id": "m1"})
        log.append_many([{"seq": 2, "match_id": "m2"},
                         {"seq": 3, "match_id": "m3"}])
        assert [r["seq"] for r in DeliveryLog(path)] == [0, 1, 2, 3]
        assert path.read_text().count("\n") == 5  # 4 records + fragment

    def test_append_many_is_one_fsync(self, tmp_path, monkeypatch):
        from repro.resilience import quarantine
        syncs = []
        real_fsync = quarantine.os.fsync
        monkeypatch.setattr(quarantine.os, "fsync",
                            lambda fd: (syncs.append(fd), real_fsync(fd)))
        log = DeliveryLog(tmp_path / "wal.jsonl")
        log.append_many([{"seq": seq} for seq in range(9)])
        assert len(syncs) == 1
        log.append({"seq": 9})
        assert len(syncs) == 2
        log.append_many([])  # nothing to make durable
        assert len(syncs) == 2
        assert [r["seq"] for r in log] == list(range(10))
        with pytest.raises(ValueError):
            log.append_many([{"seq": 10}, {"match_id": "x"}])
        assert log.last_seq() == 9  # validated before anything is written

    def test_a_failed_fsync_leaves_the_file_as_it_was(
            self, tmp_path, monkeypatch):
        """The lines reached the file, then ``fsync`` raised: the append
        is cut back to the length before it, so nothing a reader (or a
        restarted hub's recovery) counts outlives the failure."""
        from repro.resilience import quarantine
        path = tmp_path / "wal.jsonl"
        log = DeliveryLog(path)
        log.append({"seq": 0, "match_id": "m0"})
        with open(path, "a") as handle:
            handle.write('{"seq": 1, "match_')  # an earlier torn line
        before = path.read_bytes()

        def failing_fsync(fd):
            raise OSError("fsync failed")

        monkeypatch.setattr(quarantine.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="fsync failed"):
            log.append_many([{"seq": 1, "match_id": "m1"},
                             {"seq": 2, "match_id": "m2"}])
        assert path.read_bytes() == before
        monkeypatch.undo()
        log.append({"seq": 1, "match_id": "m1"})
        assert [r["seq"] for r in DeliveryLog(path)] == [0, 1]

    def test_batch_rotates_whole(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = DeliveryLog(path, max_bytes=200)
        log.append_many([{"seq": seq, "match_id": f"m{seq}"}
                         for seq in range(5)])
        log.append_many([{"seq": seq, "match_id": f"m{seq}"}
                         for seq in range(5, 10)])
        assert [json.loads(line)["seq"] for line in
                rotated_path(path).read_text().splitlines()] == [0, 1, 2, 3, 4]
        assert [r["seq"] for r in log.entries_after(2)] == [3, 4, 5, 6, 7,
                                                             8, 9]

    def test_rotation_read_order(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = DeliveryLog(path, max_bytes=64)
        for seq in range(12):
            log.append({"seq": seq, "match_id": f"m{seq}"})
        assert (path.with_name(path.name + ".1")).exists()
        seqs = [r["seq"] for r in DeliveryLog(path, max_bytes=64)]
        assert seqs == sorted(seqs)
        assert seqs[-1] == 11

    def test_a_rotation_between_the_two_opens_is_read_again(
            self, tmp_path, monkeypatch):
        """The hub's writer appends while a resume reads the log: a
        rotation landing after the reader opened ``<path>.1`` must not
        pair that old rotation with the new current file."""
        from repro.resilience import delivery
        path = tmp_path / "wal.jsonl"
        log = DeliveryLog(path, max_bytes=200)
        for first in (0, 5):
            log.append_many([{"seq": seq, "match_id": f"m{seq}"}
                             for seq in range(first, first + 5)])
        assert rotated_path(path).exists()
        rotated = []

        def rotating_open(file, *args, **kwargs):
            handle = open(file, *args, **kwargs)
            if file == rotated_path(path) and not rotated:
                rotated.append(True)  # seqs 5..9 move to <path>.1
                log.append_many([{"seq": seq, "match_id": f"m{seq}"}
                                 for seq in range(10, 15)])
            return handle

        monkeypatch.setattr(delivery, "open", rotating_open, raising=False)
        assert rotated == [] and [r["seq"] for r in log] == list(
            range(5, 15))
        assert rotated == [True]


# ----------------------------------------------------------------------
# Subscription hub
# ----------------------------------------------------------------------
class TestHubPublish:
    def test_monotonic_seq_and_payload_shape(self):
        hub = SubscriptionHub()
        first = hub.publish(make_sub(0), pattern_id="p1", tenant="t1")
        second = hub.publish(make_sub(1), pattern_id="p1", tenant="t1")
        assert (first.seq, second.seq) == (0, 1)
        assert first.payload["pattern_id"] == "p1"
        assert first.payload["tenant"] == "t1"
        assert set(first.payload["bindings"]) == {"a", "b"}
        assert first.payload["match_id"] == match_id(make_sub(0))

    def test_duplicate_match_suppressed(self):
        hub = SubscriptionHub()
        assert hub.publish(make_sub(0)) is not None
        assert hub.publish(make_sub(0)) is None
        assert hub.last_seq == 0

    def test_filters(self):
        hub = SubscriptionHub()
        only_p1 = hub.attach(patterns=["p1"])
        only_t2 = hub.attach(tenants=["t2"])
        everything = hub.attach()
        hub.publish(make_sub(0), pattern_id="p1", tenant="t1")
        hub.publish(make_sub(1), pattern_id="p2", tenant="t2")
        kinds = lambda s: [p.pattern_id for k, p in s.drain_items()
                           if k == "match"]
        assert kinds(only_p1) == ["p1"]
        assert kinds(only_t2) == ["p2"]
        assert kinds(everything) == ["p1", "p2"]

    def test_delivered_or_persisted_order(self, tmp_path):
        # The WAL holds the entry even if no subscriber ever consumed it.
        wal = DeliveryLog(tmp_path / "wal.jsonl")
        hub = SubscriptionHub(wal=wal)
        hub.publish(make_sub(0))
        assert wal.last_seq() == 0

    def test_recovery_restores_cursor_and_dedup(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        hub = SubscriptionHub(wal=DeliveryLog(path))
        hub.publish(make_sub(0))
        hub.publish(make_sub(1))
        # Crash; restart from the same WAL.
        reborn = SubscriptionHub(wal=DeliveryLog(path))
        assert reborn.last_seq == 1
        assert reborn.publish(make_sub(0)) is None  # still a duplicate
        entry = reborn.publish(make_sub(2))
        assert entry.seq == 2  # cursors continue, never reused


    def test_same_events_under_two_patterns_are_two_matches(self, tmp_path):
        """Two τ-variants of one pattern bind the same events under the
        same variable names: equal match ids, distinct publications."""
        events = make_events(6)
        hub = SubscriptionHub(wal=DeliveryLog(tmp_path / "wal.jsonl"))
        registry = PatternRegistry()
        expected = {}
        for pattern_id, tau in (("tau10", 10), ("tau20", 20)):
            pattern, _ = parse_query_spec(QUERY.replace("WITHIN 10",
                                                        f"WITHIN {tau}"))
            registry.register(compile_plan(pattern), pattern_id=pattern_id)
            solo = PatternRegistry()
            solo.register(compile_plan(pattern))
            expected[pattern_id] = sorted(
                match_id(m.substitution)
                for m in solo.push_many(events) + solo.close())
        assert expected["tau10"] and expected["tau10"] == expected["tau20"]
        published = {"tau10": [], "tau20": []}

        def publish(pid, match):
            entry = hub.publish(match, pattern_id=pid)
            assert entry is not None, "lost as a cross-pattern duplicate"
            published[pid].append(entry.match_id)

        registry.on_match(publish)
        registry.push_many(events)
        registry.close()
        assert {pid: sorted(mids) for pid, mids in published.items()} \
            == expected

    def test_recovery_dedups_per_pattern(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        hub = SubscriptionHub(wal=DeliveryLog(path))
        hub.publish(make_sub(0), pattern_id="p1")
        # Crash; restart from the same WAL.
        reborn = SubscriptionHub(wal=DeliveryLog(path))
        assert reborn.publish(make_sub(0), pattern_id="p1") is None
        assert reborn.publish(make_sub(0), pattern_id="p2").seq == 1
        assert reborn.publish(make_sub(0), pattern_id="p2") is None


def grouped_sub():
    """A match with a group variable (list-form binding) and attribute
    values that need escaping."""
    G = group("g")
    return Substitution([
        (A, Event(ts=1, attrs={"L": 'B "quoted"', "V": 1.5}, eid="a1")),
        (G, Event(ts=2, attrs={"L": "P", "U": "mg/\u00b5l"}, eid="g2")),
        (G, Event(ts=3, attrs={"L": "P", "V": None}, eid=None)),
        (B, Event(ts=3, attrs={"L": "line\nbreak"}, eid="b3")),
    ])


class TestOneRendering:
    """A published match is rendered to JSON once; the delivery-log line
    and every SSE frame carry that text, and all of them read back as
    the payload the hub holds."""

    def test_log_line_and_frames_read_back_as_the_payload(self, tmp_path):
        wal = DeliveryLog(tmp_path / "wal.jsonl")
        hub = SubscriptionHub(wal=wal)
        with hub.batch():
            entries = [hub.publish(make_sub(0), pattern_id="p1", tenant="t"),
                       hub.publish(grouped_sub(), pattern_id="p2")]
        hub.sync()
        assert isinstance(entries[1].payload["bindings"]["g"], list)
        records = list(wal)
        assert [r["seq"] for r in records] == [0, 1]
        for entry, record in zip(entries, records):
            # The log line: every field of the record, payload included.
            assert record == json.loads(json.dumps(entry.to_record()))
            reread = DeliveredEntry.from_record(record)
            for field in ("seq", "match_id", "pattern_id", "tenant",
                          "published", "payload"):
                assert getattr(reread, field) == getattr(entry, field), field
            # The frame: SSE data.
            (kind, event_id, data), = sse_events(
                PushServer._sse_chunk("match", entry))
            assert (kind, event_id, data) == ("match", str(entry.seq),
                                              entry.payload)
            # An entry read back from the log renders the same frames.
            assert (PushServer._sse_chunk("match", reread)
                    == PushServer._sse_chunk("match", entry))

    def test_the_payload_goes_through_the_encoder_once(self, tmp_path,
                                                        monkeypatch):
        rendered = []
        encode = json.JSONEncoder.iterencode

        def counting(self, o, _one_shot=False):
            if isinstance(o, dict) and ("bindings" in o or "payload" in o):
                rendered.append(o)
            return encode(self, o, _one_shot)

        monkeypatch.setattr(json.JSONEncoder, "iterencode", counting)
        hub = SubscriptionHub(wal=DeliveryLog(tmp_path / "wal.jsonl"))
        subscribers = [hub.attach(), hub.attach()]
        entry = hub.publish(grouped_sub(), pattern_id="p")
        for subscriber in subscribers:
            (item,) = subscriber.drain_items()
            PushServer._sse_chunk(*item)
        assert rendered == [entry.payload]

    def test_an_entry_without_payload_still_frames(self):
        bare = DeliveredEntry.from_record({"seq": 7, "match_id": "m"})
        assert sse_events(PushServer._sse_chunk("match", bare)) \
            == [("match", "7", {})]


class FlakyLog(DeliveryLog):
    """A delivery log whose next ``fail`` appends raise before writing."""

    def __init__(self, path, fail=1):
        super().__init__(path)
        self.fail = fail
        self.batches = []

    def append_many(self, records):
        if self.fail:
            self.fail -= 1
            raise OSError("disk on fire")
        self.batches.append([record["seq"] for record in records])
        super().append_many(records)


class AppendOnlyLog:
    """The minimal log surface the hub accepts (no ``append_many``)."""

    def __init__(self, path):
        self._inner = DeliveryLog(path)
        self.path = self._inner.path
        self.appended = []

    def append(self, record):
        self._inner.append(record)
        self.appended.append(record["seq"])

    def __iter__(self):
        return iter(self._inner)

    def entries_after(self, cursor):
        return self._inner.entries_after(cursor)


class TestHubBatch:
    def test_scope_commits_once_then_delivers(self, tmp_path):
        wal = FlakyLog(tmp_path / "wal.jsonl", fail=0)
        hub = SubscriptionHub(wal=wal)
        sub = hub.attach()
        with hub.batch():
            entries = [hub.publish(make_sub(i), pattern_id="p1")
                       for i in range(5)]
            assert [e.seq for e in entries] == [0, 1, 2, 3, 4]
            # Nothing is visible before the batch's fsync returned.
            assert sub.queue_depth == 0 and hub.last_seq == -1
            assert wal.batches == [] and hub.attach(resume_after=-1).idle
        hub.sync()
        assert wal.batches == [[0, 1, 2, 3, 4]]
        assert hub.last_seq == 4
        assert [p.seq for k, p in sub.drain_items()] == [0, 1, 2, 3, 4]
        # Outside a scope a publish is a batch of one, same commit.
        assert hub.publish(make_sub(5), pattern_id="p1").seq == 5
        assert wal.batches[-1] == [5]

    def test_scope_commits_when_the_body_raises(self, tmp_path):
        wal = DeliveryLog(tmp_path / "wal.jsonl")
        hub = SubscriptionHub(wal=wal)
        sub = hub.attach()
        with pytest.raises(RuntimeError):
            with hub.batch():
                hub.publish(make_sub(0))
                raise RuntimeError("matcher died mid-batch")
        hub.sync()
        assert wal.last_seq() == 0
        assert [p.seq for k, p in sub.drain_items()] == [0]

    def test_nested_scope_joins_the_outer_one(self, tmp_path):
        wal = FlakyLog(tmp_path / "wal.jsonl", fail=0)
        hub = SubscriptionHub(wal=wal)
        with hub.batch():
            hub.publish(make_sub(0))
            with hub.batch():
                hub.publish(make_sub(1))
            assert wal.batches == []
        hub.sync()
        assert wal.batches == [[0, 1]]

    def test_dedup_sees_pending_entries(self):
        obs = Observability()
        hub = SubscriptionHub(observability=obs)
        sub = hub.attach()
        with hub.batch():
            assert hub.publish(make_sub(0), pattern_id="p1") is not None
            assert hub.publish(make_sub(0), pattern_id="p1") is None
            assert hub.publish(make_sub(0), pattern_id="p2").seq == 1
        assert [p.seq for k, p in sub.drain_items()] == [0, 1]
        snapshot = obs.snapshot()
        assert snapshot["ses_push_duplicates_suppressed_total"]["value"] == 1
        assert snapshot["ses_push_published_total"]["value"] == 2

    def test_failed_commit_drops_the_batch_whole(self, tmp_path):
        wal = FlakyLog(tmp_path / "wal.jsonl", fail=1)
        hub = SubscriptionHub(wal=wal)
        sub = hub.attach()
        with hub.batch():
            for i in range(3):
                hub.publish(make_sub(i))
        with pytest.raises(OSError, match="disk on fire"):
            hub.sync()
        # Nothing delivered, remembered, ringed or left assigned.
        assert sub.idle and hub.last_seq == -1
        assert hub.attach(resume_after=-1).idle
        assert list(wal) == []
        # The re-reported batch is not a duplicate and reuses no
        # durable cursor: it gets the same, never-persisted ones.
        with hub.batch():
            again = [hub.publish(make_sub(i)) for i in range(3)]
        hub.sync()
        assert [e.seq for e in again] == [0, 1, 2]
        assert [p.seq for k, p in sub.drain_items()] == [0, 1, 2]
        assert [r["seq"] for r in wal] == [0, 1, 2]
        # Same for a failing batch of one outside any scope.
        wal.fail = 1
        with pytest.raises(OSError):
            hub.publish(make_sub(3))
        assert hub.last_seq == 2 and sub.idle
        assert hub.publish(make_sub(3)).seq == 3

    def test_a_failed_fsync_reuses_only_cursors_nothing_holds(
            self, tmp_path, monkeypatch):
        """The append wrote its line and then ``fsync`` raised: the
        line is cut back, so the dropped cursor is free again and a
        restarted hub replays only what was delivered."""
        from repro.resilience import quarantine
        path = tmp_path / "wal.jsonl"
        hub = SubscriptionHub(wal=DeliveryLog(path))

        def failing_fsync(fd):
            raise OSError("fsync failed")

        monkeypatch.setattr(quarantine.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="fsync failed"):
            hub.publish(make_sub(0))
        monkeypatch.undo()
        assert hub.publish(make_sub(1)).seq == 0
        assert [(r["seq"], r["match_id"]) for r in DeliveryLog(path)] == [
            (0, match_id(make_sub(1)))]
        restarted = SubscriptionHub(wal=DeliveryLog(path))
        assert [(p.seq, p.match_id) for k, p in restarted.attach(
            resume_after=-1).drain_items()] == [(0, match_id(make_sub(1)))]

    def test_a_cursor_the_log_holds_is_never_reused(self, tmp_path):
        """A log whose append raises after its records reached the file
        (a rollback that failed too, or a log that cannot roll back):
        what comes after is numbered above every cursor on disk, so no
        two records share one and a restarted hub replays each once."""

        class WrittenThenFailed(DeliveryLog):
            fail = 1

            def append_many(self, records):
                super().append_many(records)
                if self.fail:
                    self.fail -= 1
                    raise OSError("fsync failed")

        path = tmp_path / "wal.jsonl"
        hub = SubscriptionHub(wal=WrittenThenFailed(path))
        sub = hub.attach()
        with hub.batch():
            for i in range(2):
                hub.publish(make_sub(i))
        with pytest.raises(OSError, match="fsync failed"):
            hub.sync()
        assert sub.idle
        assert hub.publish(make_sub(2)).seq == 2
        seqs = [r["seq"] for r in DeliveryLog(path)]
        assert seqs == [0, 1, 2] and len(set(seqs)) == len(seqs)
        assert [p.seq for k, p in sub.drain_items()] == [2]
        restarted = SubscriptionHub(wal=DeliveryLog(path))
        assert [p.seq for k, p in restarted.attach(
            resume_after=-1).drain_items()] == [0, 1, 2]
        assert restarted.publish(make_sub(3)).seq == 3

    def test_append_only_log_commits_record_by_record(self, tmp_path):
        wal = AppendOnlyLog(tmp_path / "wal.jsonl")
        hub = SubscriptionHub(wal=wal, ring_size=2)
        sub = hub.attach()
        with hub.batch():
            for i in range(4):
                hub.publish(make_sub(i))
            assert wal.appended == []
        hub.sync()
        assert wal.appended == [0, 1, 2, 3]
        assert [p.seq for k, p in sub.drain_items()] == [0, 1, 2, 3]
        # Resume beyond the ring still spills to the log.
        late = hub.attach(resume_after=-1)
        assert [p.seq for k, p in late.drain_items()] == [0, 1, 2, 3]

    def test_a_commit_wakes_each_subscriber_once(self):
        """A served wake-up is a lock, a handle and a self-pipe write on
        the loop thread: one per subscriber per commit — when its share
        of the batch is queued — not one per match."""
        hub = SubscriptionHub()
        wakes = {"all": 0, "p2": 0, "shed": 0, "slow": 0}
        depth_at_wake = []

        def counting(name, sub):
            def wake():
                wakes[name] += 1
                depth_at_wake.append((name, sub.queue_depth))
            sub.wake = wake
            return sub

        everything = counting("all", hub.attach())
        counting("p2", hub.attach(patterns=["p2"]))
        counting("shed", hub.attach(queue_size=3, policy="shed"))
        slow = counting("slow", hub.attach(queue_size=3,
                                           policy="disconnect"))
        with hub.batch():
            for i in range(10):
                hub.publish(make_sub(i), pattern_id="p1")
            assert not any(wakes.values())
        # The slow consumer's one wake-up is its disconnect notice.
        assert wakes == {"all": 1, "p2": 0, "shed": 1, "slow": 1}
        assert slow.closed and ("all", 10) in depth_at_wake
        assert len(everything.drain_items()) == 10
        # Outside a scope a publish is a commit of one: one wake-up.
        hub.publish(make_sub(10), pattern_id="p2")
        assert wakes == {"all": 2, "p2": 1, "shed": 2, "slow": 1}

    def test_live_attach_inside_a_scope_gets_the_batch(self):
        hub = SubscriptionHub()
        with hub.batch():
            hub.publish(make_sub(0))
            sub = hub.attach()  # live tail: last *committed* cursor
            assert sub.cursor == -1
        assert [p.seq for k, p in sub.drain_items()] == [0]


class TestHubResume:
    def test_resume_from_ring(self):
        hub = SubscriptionHub(ring_size=16)
        for i in range(6):
            hub.publish(make_sub(i))
        sub = hub.attach(resume_after=2)
        seqs = [p.seq for k, p in sub.drain_items() if k == "match"]
        assert seqs == [3, 4, 5]

    def test_resume_spills_to_wal_beyond_ring(self, tmp_path):
        hub = SubscriptionHub(ring_size=2, wal=DeliveryLog(tmp_path / "w"))
        for i in range(8):
            hub.publish(make_sub(i))
        sub = hub.attach(resume_after=-1)  # everything
        seqs = [p.seq for k, p in sub.drain_items() if k == "match"]
        assert seqs == list(range(8))

    def test_live_attach_skips_history(self):
        hub = SubscriptionHub()
        hub.publish(make_sub(0))
        sub = hub.attach()  # no resume cursor: start at the tail
        assert sub.drain_items() == []
        hub.publish(make_sub(1))
        assert [p.seq for k, p in sub.drain_items() if k == "match"] == [1]

    def test_replay_respects_filters(self):
        hub = SubscriptionHub(ring_size=16)
        hub.publish(make_sub(0), pattern_id="p1")
        hub.publish(make_sub(1), pattern_id="p2")
        sub = hub.attach(patterns=["p2"], resume_after=-1)
        assert [p.seq for k, p in sub.drain_items()
                if k == "match"] == [1]


class TestSlowConsumerPolicies:
    def test_disconnect_policy_detaches(self):
        hub = SubscriptionHub()
        sub = hub.attach(queue_size=2, policy="disconnect")
        for i in range(3):
            hub.publish(make_sub(i))
        assert sub.closed
        assert sub.close_reason == "slow-consumer"
        assert sub.subscriber_id not in [s.subscriber_id
                                         for s in hub.subscribers]

    def test_shed_policy_emits_gap_notice(self):
        hub = SubscriptionHub()
        sub = hub.attach(queue_size=2, policy="shed")
        for i in range(5):
            hub.publish(make_sub(i))
        items = sub.drain_items()
        kinds = [k for k, _ in items]
        assert kinds[0] == "gap"
        gap = items[0][1]
        assert gap["shed"] == 3  # 5 published, queue of 2
        assert sub.sheds == 3
        assert [p.seq for k, p in items if k == "match"] == [3, 4]

    def test_degrade_policy_collapses_to_aggregates(self):
        hub = SubscriptionHub()
        sub = hub.attach(queue_size=2, policy="degrade")
        for i in range(6):
            hub.publish(make_sub(i), pattern_id="p1")
        items = sub.drain_items()
        assert [k for k, _ in items] == ["aggregates"]
        assert items[0][1]["counts"] == {"p1": 6}
        # After catching up, matches flow normally again.
        hub.publish(make_sub(6), pattern_id="p1")
        assert [k for k, _ in sub.drain_items()] == ["match"]

    def test_unknown_policy_rejected(self):
        hub = SubscriptionHub()
        with pytest.raises(ValueError, match="policy"):
            hub.attach(policy="explode")

    # One commit offers a whole batch back to back: more entries than
    # the queue holds, with no pop in between.
    @staticmethod
    def _burst(hub, n, pattern_ids=("p1",)):
        with hub.batch():
            for i in range(n):
                hub.publish(make_sub(i),
                            pattern_id=pattern_ids[i % len(pattern_ids)])
        hub.sync()

    def test_burst_disconnect_resumes_gap_free(self, tmp_path):
        hub = SubscriptionHub(ring_size=4,
                              wal=DeliveryLog(tmp_path / "wal.jsonl"))
        sub = hub.attach(queue_size=3, policy="disconnect")
        self._burst(hub, 10)
        assert sub.closed and sub.close_reason == "slow-consumer"
        got = [p.seq for k, p in sub.drain_items() if k == "match"]
        assert got == [0, 1, 2]
        # The disconnect notice's resume token is the last cursor
        # queued, not the entry that overflowed.
        assert sub.cursor == got[-1]
        resumed = hub.attach(resume_after=sub.cursor)
        assert [p.seq for k, p in resumed.drain_items()] == list(range(3, 10))

    def test_burst_shed_emits_one_coalesced_gap(self):
        hub = SubscriptionHub()
        sub = hub.attach(queue_size=3, policy="shed")
        self._burst(hub, 10)
        items = sub.drain_items()
        assert [k for k, _ in items] == ["gap", "match", "match", "match"]
        assert items[0][1] == {"shed": 7, "cursor": 9}
        assert [p.seq for k, p in items[1:]] == [7, 8, 9]
        assert sub.sheds == 7

    def test_burst_degrade_counts_per_pattern(self):
        hub = SubscriptionHub()
        sub = hub.attach(queue_size=3, policy="degrade")
        self._burst(hub, 10, pattern_ids=("p1", "p2"))
        items = sub.drain_items()
        assert [k for k, _ in items] == ["aggregates"]
        assert items[0][1] == {"counts": {"p1": 5, "p2": 5}, "cursor": 9}
        hub.publish(make_sub(10), pattern_id="p1")
        assert [k for k, _ in sub.drain_items()] == ["match"]


class TestHubDrain:
    def test_drain_queues_terminal_notice_with_resume_token(self):
        hub = SubscriptionHub()
        sub = hub.attach()
        hub.publish(make_sub(0))
        hub.drain()
        items = sub.drain_items()
        assert [k for k, _ in items] == ["match", "drain"]
        assert items[-1][1]["resume"] == 0

    def test_publish_refused_while_draining(self):
        hub = SubscriptionHub()
        hub.drain()
        assert hub.publish(make_sub(0)) is None

    def test_attach_during_drain_gets_immediate_notice(self):
        hub = SubscriptionHub()
        hub.drain()
        sub = hub.attach()
        assert [k for k, _ in sub.drain_items()] == ["drain"]

    def test_wait_drained(self):
        hub = SubscriptionHub()
        sub = hub.attach()
        hub.publish(make_sub(0))
        hub.drain()
        assert not hub.wait_drained(timeout=0.05)  # backlog unconsumed
        sub.drain_items()
        assert hub.wait_drained(timeout=0.5)

    def test_wait_drained_counts_an_undelivered_aggregates_notice(self):
        hub = SubscriptionHub()
        sub = hub.attach(queue_size=1, policy="degrade")
        for i in range(3):
            hub.publish(make_sub(i))
        # Degraded: the queue is empty but the per-pattern counts are
        # still owed to the subscriber.
        assert sub.queue_depth == 0
        assert not hub.wait_drained(timeout=0.05)
        sub.drain_items()
        assert hub.wait_drained(timeout=0.5)


class TestHubObservability:
    def test_metrics_published(self):
        obs = Observability()
        hub = SubscriptionHub(observability=obs)
        sub = hub.attach(queue_size=1, policy="shed")
        for i in range(3):
            hub.publish(make_sub(i))
        hub.publish(make_sub(0))  # duplicate
        snapshot = obs.snapshot()
        assert snapshot["ses_subscribers"]["value"] == 1
        assert snapshot["ses_push_published_total"]["value"] == 3
        assert snapshot["ses_push_duplicates_suppressed_total"]["value"] == 1
        assert snapshot["ses_sub_shed_total"]["value"] == 2
        sub.drain_items()
        assert obs.snapshot()[
            "ses_sub_delivery_latency_seconds"]["count"] == 1


# ----------------------------------------------------------------------
# Push server (integration over loopback)
# ----------------------------------------------------------------------
@pytest.fixture
def stack(tmp_path):
    """A registry-backed push server; yields (server, hub, registry)."""
    pattern, aggregate = parse_query_spec(QUERY)
    plan = compile_plan(pattern, aggregate=aggregate)
    registry = PatternRegistry()
    registry.register(plan, pattern_id="p1")
    hub = SubscriptionHub(ring_size=64,
                          wal=DeliveryLog(tmp_path / "delivery.jsonl"))
    registry.on_match(lambda pid, m: hub.publish(
        m, pattern_id=pid, tenant=registry.tenant_of(pid)))
    closed = []

    def flush():
        if not closed:
            closed.append(True)
            registry.close()

    server = PushServer(hub, submit=registry.push_many, flush=flush,
                        ingest_queue=8).start()
    try:
        yield server, hub, registry
    finally:
        server.shutdown(grace=2.0)


def collect_sse(server, out, **kwargs):
    """Tail in a thread, appending every received event to ``out``."""
    def run():
        for item in subscribe_sse(server.host, server.port, **kwargs):
            out.append(item)
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestPushServerIngest:
    def test_framed_push_and_sse_delivery(self, stack):
        server, hub, _ = stack
        got = []
        collect_sse(server, got)
        time.sleep(0.2)
        # Long enough that several matches fall out of the WITHIN
        # window and are reported while the stream is still live.
        accepted = push_events(server.host, server.port, make_events(40))
        assert accepted == 40
        deadline = time.monotonic() + 5
        while (sum(1 for g in got if g["event"] == "match") < 4
               and time.monotonic() < deadline):
            time.sleep(0.02)
        matches = [g for g in got if g["event"] == "match"]
        assert len(matches) >= 4
        seqs = [int(g["id"]) for g in matches]
        assert seqs == sorted(seqs)

    def test_statz_and_healthz(self, stack):
        server, hub, _ = stack
        import urllib.request
        with urllib.request.urlopen(server.url + "/statz", timeout=5) as r:
            stats = json.load(r)
        assert "ingest" in stats and stats["ingest"]["draining"] is False
        with urllib.request.urlopen(server.url + "/healthz", timeout=5) as r:
            assert r.status == 200

    def test_backpressure_slow_down(self, tmp_path):
        release = threading.Event()
        obs = Observability()
        hub = SubscriptionHub()
        server = PushServer(hub, submit=lambda batch: release.wait(10),
                            ingest_queue=1, observability=obs).start()
        try:
            # First batch occupies the worker, second fills the queue.
            assert push_events(server.host, server.port, make_events(1)) == 1
            deadline = time.monotonic() + 2
            while server._queue.qsize() and time.monotonic() < deadline:
                time.sleep(0.01)  # wait for the worker to take batch 1
            assert push_events(server.host, server.port, make_events(1)) == 1
            decoder, pending = FrameDecoder(), []
            with socket.create_connection((server.host, server.port),
                                          timeout=5) as sock:
                sock.sendall(encode_frame({"type": "hello", "proto": 1}))
                assert _next_frame(sock, decoder, pending)["type"] == "hello"
                sock.sendall(encode_frame({
                    "type": "batch", "seq": 9,
                    "events": [event_to_json(e) for e in make_events(1)]}))
                reply = _next_frame(sock, decoder, pending)
            assert reply["type"] == "slow_down" and reply["seq"] == 9
            assert reply["retry_after_ms"] > 0
            with pytest.raises(PushRejected):
                push_events(server.host, server.port, make_events(1),
                            max_retries=1)
            assert obs.snapshot()[
                "ses_ingest_backpressure_total"]["value"] == 3
            # The framed client sleeps the hint out and resends: once the
            # worker is released the same push goes through.
            late = []
            pusher = threading.Thread(target=lambda: late.append(
                push_events(server.host, server.port, make_events(1))))
            pusher.start()
            time.sleep(0.1)
            release.set()
            pusher.join(timeout=10)
            assert late == [1]
        finally:
            release.set()
            server.shutdown(grace=1.0)

    def test_poison_batch_does_not_kill_serving(self, stack):
        server, hub, _ = stack
        push_events(server.host, server.port, make_events(4, start_ts=100))
        # Time going backwards is a matcher error, not a server death.
        push_events(server.host, server.port, make_events(4, start_ts=0))
        server.wait_idle(timeout=5)
        assert push_events(server.host, server.port,
                           make_events(4, start_ts=200)) == 4


#: Well-framed batches no matcher can digest: each must be refused at
#: the door.  The first started an instance whose ``min_ts`` was ``"x"``
#: and made every later batch of every producer raise.
HOSTILE_BATCHES = [
    {"events": [{"ts": "x", "attrs": {"L": "B"}}]},
    {"events": [{"ts": None, "attrs": {"L": "B"}}]},
    {"events": [{"ts": True, "attrs": {"L": "B"}}]},
    {"events": [{"ts": float("nan"), "attrs": {"L": "B"}}]},
    {"events": [{"ts": float("inf"), "attrs": {"L": "B"}}]},
    {"events": 5},
    {"events": None},
    {"events": [{"ts": 1, "attrs": 7}]},
    {"events": [{"ts": 1, "attrs": [1, 2]}]},
    {"events": [{"ts": 1, "attrs": {"L": [1, 2]}}]},
    # Nothing of a refused batch is admitted: were the valid first
    # event let in, ts=5000 would make every batch below out of order.
    {"events": [{"ts": 5000, "attrs": {"L": "B"}},
                {"ts": "x", "attrs": {"L": "C"}}]},
]


class TestHostileBatchesStopAtTheDoor:
    @staticmethod
    def _valid(i):
        """A two-event batch worth one match (windows 20 apart)."""
        return [event_to_json(e) for e in make_events(2, start_ts=20 * i)]

    def _check_three_matches(self, server, hub, registry):
        server.submit_call(registry.close, timeout=5)
        assert server._ingest_errors == 0
        assert hub.last_seq == 2  # the fault-free answer: three matches

    def test_framed_error_reply_and_the_connection_stays_usable(self, stack):
        server, hub, registry = stack
        decoder, pending = FrameDecoder(), []
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            def call(frame):
                sock.sendall(encode_frame(frame))
                return _next_frame(sock, decoder, pending)

            assert call({"type": "ping"})["type"] == "hello"  # greeting
            assert _next_frame(sock, decoder, pending)["type"] == "pong"
            for seq, hostile in enumerate(HOSTILE_BATCHES):
                reply = call({"type": "batch", "seq": seq, **hostile})
                assert reply["type"] == "error" and reply["seq"] == seq, (
                    hostile, reply)
                # Still usable (three batches only: acks are given at
                # admission, and the fixture's queue holds eight).
                if seq < 3:
                    reply = call({"type": "batch", "seq": 100 + seq,
                                  "events": self._valid(seq)})
                    assert reply["type"] == "ack", reply
                else:
                    assert call({"type": "ping"})["type"] == "pong"
        self._check_three_matches(server, hub, registry)

    def _push_three(self, server):
        for i in range(3):
            assert push_events(server.host, server.port,
                               make_events(2, start_ts=20 * i)) == 2

    def test_http_400_not_a_reset(self, stack):
        """A bad request line or unusable subscription parameters get a
        typed 400 reply, not a reset, and serving goes on."""
        server, hub, registry = stack
        for head in (b"GET /subscribe\r\n\r\n",
                     b"GET /subscribe?resume=x HTTP/1.1\r\n\r\n",
                     b"GET /subscribe?queue=x HTTP/1.1\r\n\r\n",
                     b"GET /subscribe?policy=x HTTP/1.1\r\n\r\n"):
            status, body = raw_http(server.host, server.port, head)
            assert status == 400 and body["error"], head
        assert hub.subscribers == []
        self._push_three(server)
        self._check_three_matches(server, hub, registry)

    def test_non_integer_content_length_is_400(self, stack):
        # Refused before routing: the quit request is never seen.
        server, hub, registry = stack
        status, body = raw_http(
            server.host, server.port,
            b"POST /quitquitquit HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
        assert status == 400
        assert "Content-Length" in body["error"]
        assert not server._draining

    def test_oversized_body_is_413_before_it_is_sent(self, stack):
        server, hub, registry = stack
        head = (f"POST /quitquitquit HTTP/1.1\r\n"
                f"Content-Length: {MAX_FRAME_BYTES + 1}\r\n\r\n")
        status, body = raw_http(server.host, server.port, head.encode())
        assert status == 413
        assert str(MAX_FRAME_BYTES) in body["error"]
        assert not server._draining
        self._push_three(server)
        self._check_three_matches(server, hub, registry)


class TestPushServerGroupCommit:
    """The ingest batch is the unit of durability (docs/serving.md)."""

    @staticmethod
    def _serve(wal):
        pattern, aggregate = parse_query_spec(QUERY)
        registry = PatternRegistry()
        registry.register(compile_plan(pattern, aggregate=aggregate),
                          pattern_id="p1")
        hub = SubscriptionHub(ring_size=64, wal=wal)
        registry.on_match(lambda pid, m: hub.publish(m, pattern_id=pid))
        server = PushServer(hub, submit=registry.push_many,
                            flush=registry.close, ingest_queue=8).start()
        return server, hub, registry

    def test_one_append_per_ingest_batch_and_for_the_flush(self, tmp_path):
        wal = FlakyLog(tmp_path / "wal.jsonl", fail=0)
        server, hub, registry = self._serve(wal)
        try:
            push_events(server.host, server.port, make_events(48),
                        batch_size=16)
            server.wait_idle(timeout=5)
            live = list(wal.batches)
            # Three ingest batches: at most one append (one fsync) each,
            # and the matches an event clump releases share it.
            assert 1 <= len(live) <= 3
            assert max(len(batch) for batch in live) > 1
        finally:
            server.shutdown(grace=2.0)
        # The end-of-stream flush is one more batch.
        assert len(wal.batches) == len(live) + 1
        seqs = [seq for batch in wal.batches for seq in batch]
        assert seqs == list(range(len(registry.matches)))
        assert [r["seq"] for r in wal] == seqs

    def test_failed_commit_is_an_ingest_error_not_a_server_death(
            self, tmp_path):
        wal = FlakyLog(tmp_path / "wal.jsonl", fail=1)
        server, hub, registry = self._serve(wal)
        try:
            got = []
            collect_sse(server, got)
            time.sleep(0.2)
            push_events(server.host, server.port, make_events(24))
            server.wait_idle(timeout=5)
            lost = len(registry.matches)
            # The append failed on the log writer: /statz counts it.
            assert lost and statz_ingest(server)["errors"] == 1
            assert hub.last_seq == -1 and list(wal) == []
            push_events(server.host, server.port,
                        make_events(24, start_ts=24))
            server.wait_idle(timeout=5)
            assert statz_ingest(server)["errors"] == 1
            fresh = len(registry.matches) - lost
            assert fresh and hub.last_seq == fresh - 1
            deadline = time.monotonic() + 5
            while (sum(1 for g in got if g["event"] == "match") < fresh
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            # Only committed matches were delivered; cursors start at 0.
            assert [int(g["id"]) for g in got
                    if g["event"] == "match"] == list(range(fresh))
        finally:
            server.shutdown(grace=2.0)

    def test_barrier_returns_after_its_matches_are_committed(self, tmp_path):
        wal = FlakyLog(tmp_path / "wal.jsonl", fail=0)
        server, hub, registry = self._serve(wal)
        try:
            push_events(server.host, server.port, make_events(24))
            closed = server.submit_call(registry.close, timeout=5)
            assert closed  # end-of-stream matches, published in the call
            assert hub.last_seq == len(registry.matches) - 1
            assert wal.last_seq() == hub.last_seq
            wal.fail = 1
            with pytest.raises(OSError, match="disk on fire"):
                server.submit_call(
                    lambda: hub.publish(make_sub(1000), pattern_id="p1"),
                    timeout=5)
            assert server._ingest_errors == 0  # relayed to the caller
        finally:
            server.shutdown(grace=2.0)


def statz_ingest(server):
    """The ``ingest`` section of ``GET /statz`` (what the ledger reads)."""
    with urllib.request.urlopen(server.url + "/statz", timeout=5) as reply:
        return json.load(reply)["ingest"]


def wait_until(predicate, what, timeout=5.0):
    """Block until ``predicate()`` holds (a state, not a duration)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)


class GatedSubmit:
    """``registry.push_many`` whose first call blocks until released:
    with the worker held inside batch 0, whatever is admitted meanwhile
    is a backlog of known shape.  Records, per call, the batch and the
    ``ses_ingest_runs_total`` count — batches matched under the same
    count shared a run (appends no longer say: runs that queue behind
    one fsync share the next)."""

    def __init__(self, registry, obs):
        self._registry = registry
        self._runs = obs.registry.counter("ses_ingest_runs_total")
        self.calls = []
        self.runs_seen = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, events):
        self.calls.append(events)
        self.runs_seen.append(self._runs.value)
        if len(self.calls) == 1:
            self.entered.set()
            assert self.release.wait(10), "the test never released batch 0"
        return self._registry.push_many(events)

    def run_lengths(self):
        """Batches per run, in order."""
        return [self.runs_seen.count(n) for n in sorted(set(self.runs_seen))]


class TestPushServerRuns:
    """Under load the run — what is queued when the worker comes back —
    shares one matcher hop and one commit; the batch stays the unit of
    failure.  Counting only: the backlog is built behind a gate."""

    @pytest.fixture
    def served(self, tmp_path):
        made = []

        def make(fail=0, first=16):
            """Serve with the worker held on batch 0 (``first`` events:
            16 release matches, 2 release none)."""
            wal = FlakyLog(tmp_path / "wal.jsonl", fail=fail)
            pattern, aggregate = parse_query_spec(QUERY)
            registry = PatternRegistry()
            registry.register(compile_plan(pattern, aggregate=aggregate),
                              pattern_id="p1")
            obs = Observability()
            hub = SubscriptionHub(ring_size=4096, wal=wal)
            registry.on_match(lambda pid, m: hub.publish(m, pattern_id=pid))
            gate = GatedSubmit(registry, obs)
            server = PushServer(hub, submit=gate, flush=registry.close,
                                ingest_queue=64, observability=obs).start()
            made.append((server, hub, gate))
            server.submit_events(make_events(first))
            assert gate.entered.wait(5)
            return server, hub, registry, wal, gate, obs

        yield make
        for server, hub, gate in made:
            gate.release.set()
            for subscriber in hub.subscribers:
                subscriber.close()  # nobody reads them: do not wait
            server.shutdown(grace=2.0)

    @staticmethod
    def _fault_free(n_events):
        """Matches the stream's first ``n_events`` report before close."""
        pattern, _ = parse_query_spec(QUERY)
        solo = PatternRegistry()
        solo.register(compile_plan(pattern))
        return len(solo.push_many(make_events(n_events)))

    def test_a_backlog_is_one_hop_and_one_commit(self, served):
        server, hub, registry, wal, gate, obs = served()
        sub = hub.attach(queue_size=4096)
        stream = make_events(16 * 6)
        batches = [stream[i:i + 16] for i in range(0, len(stream), 16)]
        server.submit_events(stream[16:], batch_size=16)
        assert wal.batches == []  # held: nothing matched, nothing durable
        gate.release.set()
        server.wait_idle(timeout=5)
        assert gate.calls == batches  # once per batch, in arrival order
        # Batch 0 was alone in the queue when it was taken; the five
        # queued behind it are one run, handed to the log writer whole:
        # at most one append per run (two runs share one when the second
        # is handed over before the writer took the first), cursors in
        # order.
        assert gate.run_lengths() == [1, 5]
        seqs = [seq for batch in wal.batches for seq in batch]
        assert seqs == list(range(self._fault_free(16 * 6)))
        assert 1 <= len(wal.batches) <= 2
        assert [p.seq for k, p in sub.drain_items()] == seqs
        # The ledger's vocabulary: batches / runs = 3.
        assert server._ingest_runs == 2
        snapshot = obs.snapshot()
        assert snapshot["ses_ingest_runs_total"]["value"] == 2
        assert snapshot["ses_ingest_batches_total"]["value"] == 6
        assert snapshot["ses_ingest_events_total"]["value"] == 96
        with urllib.request.urlopen(server.url + "/statz", timeout=5) as r:
            assert json.load(r)["ingest"]["runs"] == 2

    def test_a_barrier_ends_the_run_and_keeps_its_place(self, served):
        server, hub, registry, wal, gate, obs = served()
        stream = make_events(16 * 4)
        server.submit_events(stream[16:48], batch_size=16)
        seen = {}

        def fn():
            seen["submits"] = len(gate.calls)
            return hub.publish(make_sub(1000), pattern_id="p1")

        def barrier():
            entry = server.submit_call(fn, timeout=10)
            # Back only after the barrier's own commit.
            seen["durable"] = wal.last_seq() >= entry.seq
            seen["seq"] = entry.seq

        caller = threading.Thread(target=barrier, daemon=True)
        caller.start()
        wait_until(lambda: server._queue.qsize() == 3, "the queued barrier")
        server.submit_events(stream[48:], batch_size=16)
        gate.release.set()
        caller.join(timeout=10)
        assert not caller.is_alive()
        server.wait_idle(timeout=5)
        # fn ran after batch 0 and exactly the two batches before it,
        # and before the batch behind it.
        assert seen["submits"] == 3
        assert seen["durable"]
        assert len(gate.calls) == 4
        assert gate.run_lengths() == [1, 2, 1]
        # The barrier's match ends an append (its own, or one it shares
        # with the runs before it); the run behind the barrier is matched
        # only once that append returned, so it never shares it.
        *before, after = wal.batches
        assert before[-1][-1] == seen["seq"] < after[0]
        assert len(wal.batches) <= 4
        assert server._ingest_runs == 3  # a barrier is not a run

    def test_a_batch_that_raises_costs_that_batch_only(self, served):
        server, hub, registry, wal, gate, obs = served()
        sub = hub.attach(queue_size=4096)
        stream = make_events(48)
        server.submit_events(stream[16:32])
        server.submit_events(make_events(16))  # time going backwards
        server.submit_events(stream[32:])
        gate.release.set()
        server.wait_idle(timeout=5)
        assert server._ingest_errors == 1
        assert gate.run_lengths() == [1, 3]
        seqs = [seq for batch in wal.batches for seq in batch]
        assert seqs == list(range(self._fault_free(48)))
        assert [p.seq for k, p in sub.drain_items()] == seqs

    def test_a_failed_commit_drops_the_run_whole(self, served):
        # Batch 0 releases no match, so the one failing append is the
        # backlog's.
        server, hub, registry, wal, gate, obs = served(fail=1, first=2)
        sub = hub.attach(queue_size=4096)
        stream = make_events(2 + 16 * 3)
        server.submit_events(stream[2:], batch_size=16)
        gate.release.set()
        server.wait_idle(timeout=5)
        assert gate.run_lengths() == [1, 3]
        lost = registry.match_count
        assert lost > 1 and statz_ingest(server)["errors"] == 1
        assert sub.idle and hub.last_seq == -1 and list(wal) == []
        server.submit_events(make_events(32, start_ts=len(stream)),
                             batch_size=16)
        server.wait_idle(timeout=5)
        assert statz_ingest(server)["errors"] == 1
        fresh = registry.match_count - lost
        seqs = [seq for batch in wal.batches for seq in batch]
        assert seqs == list(range(fresh)) and fresh > 0
        assert [p.seq for k, p in sub.drain_items()] == seqs

    def test_a_run_is_capped_at_the_replay_batch_size(self, served):
        server, hub, registry, wal, gate, obs = served()
        stream = make_events(16 * 41)
        server.submit_events(stream[16:], batch_size=16)
        gate.release.set()
        server.wait_idle(timeout=5)
        assert RUN_EVENTS == 256
        assert gate.run_lengths() == [1, 16, 16, 8]
        assert len(wal.batches) <= server._ingest_runs == 4

    def test_a_run_overshoots_the_cap_by_its_last_batch_at_most(
            self, served):
        server, hub, registry, wal, gate, obs = served()
        stream = make_events(16 + 100 * 5)
        server.submit_events(stream[16:], batch_size=100)
        gate.release.set()
        server.wait_idle(timeout=5)
        # 100 + 100 < 256: a third batch is taken, then the run is full.
        assert gate.run_lengths() == [1, 3, 2]

    def test_shutdown_runs_the_backlog_dry_past_a_held_sentinel(
            self, served):
        server, hub, registry, wal, gate, obs = served()
        stream = make_events(16 * 5)
        server.submit_events(stream[16:], batch_size=16)
        stopper = threading.Thread(target=server.shutdown,
                                   kwargs={"grace": 2.0}, daemon=True)
        stopper.start()
        wait_until(lambda: server._queue.qsize() == 5, "the close sentinel")
        gate.release.set()
        stopper.join(timeout=15)
        assert not stopper.is_alive()  # queue.join() was satisfied
        assert len(gate.calls) == 5 and gate.run_lengths() == [1, 4]
        # Every admitted batch was matched, then the flush: at most
        # three appends holding the whole fault-free answer.
        assert len(wal.batches) <= 3
        assert [r["seq"] for r in wal] == list(range(registry.match_count))
        assert registry.match_count == 16 * 5 // 2


class BlockingLog(DeliveryLog):
    """A delivery log whose appends wait until ``release`` is set, then
    raise while ``fail`` is positive.  Records the thread and the
    cursors of every append."""

    def __init__(self, path, fail=0):
        super().__init__(path)
        self.fail = fail
        self.release = threading.Event()
        self.started = 0
        self.threads = set()
        self.batches = []

    def append_many(self, records):
        self.started += 1
        self.threads.add(threading.get_ident())
        assert self.release.wait(10), "the test never released the append"
        if self.fail:
            self.fail -= 1
            raise OSError("disk on fire")
        self.batches.append([record["seq"] for record in records])
        super().append_many(records)


class TestPipelinedCommit:
    """The delivery log appends and fsyncs on the hub's writer thread:
    the matcher goes on while an append is in flight, runs that queue
    behind it share the next one, and nothing is visible before it is
    durable."""

    @pytest.fixture
    def served(self, tmp_path):
        made = []

        def make(fail=0):
            log = BlockingLog(tmp_path / "wal.jsonl", fail=fail)
            pattern, aggregate = parse_query_spec(QUERY)
            registry = PatternRegistry()
            registry.register(compile_plan(pattern, aggregate=aggregate),
                              pattern_id="p1")
            hub = SubscriptionHub(ring_size=4096, wal=log)
            registry.on_match(lambda pid, m: hub.publish(m, pattern_id=pid))
            calls = []  # per submit: (thread, matches reported before it)

            def submit(events):
                calls.append((threading.get_ident(), registry.match_count))
                return registry.push_many(events)

            server = PushServer(hub, submit=submit, flush=registry.close,
                                ingest_queue=64).start()
            made.append((server, log))
            return server, hub, registry, log, calls

        yield make
        for server, log in made:
            log.release.set()
            server.shutdown(grace=0.2)

    def test_the_next_run_is_matched_while_an_append_is_in_flight(
            self, served):
        server, hub, registry, log, calls = served()
        sub = hub.attach(queue_size=4096)
        server.submit_events(make_events(16))
        wait_until(lambda: log.started == 1, "the first run's append")
        server.submit_events(make_events(16, start_ts=16))
        wait_until(lambda: len(calls) == 2, "the second run's submit")
        # Matched, not durable: nothing is visible yet.
        assert calls[1][1] > 0 and hub.last_seq == -1
        assert sub.idle and hub.attach(resume_after=-1).idle
        assert list(log) == []
        log.release.set()
        server.wait_idle(timeout=5)
        seqs = [p.seq for k, p in sub.drain_items()]
        assert seqs == list(range(registry.match_count))
        assert [r["seq"] for r in log] == seqs
        assert hub.last_seq == seqs[-1]
        # The matcher thread never appended (so never fsynced).
        assert log.threads.isdisjoint(thread for thread, _ in calls)

    def test_batches_handed_over_during_one_append_share_the_next(
            self, tmp_path):
        log = BlockingLog(tmp_path / "wal.jsonl")
        hub = SubscriptionHub(wal=log)
        with hub.batch():
            hub.publish(make_sub(0))
            hub.publish(make_sub(1))
        wait_until(lambda: log.started == 1, "the first append")
        with hub.batch():
            hub.publish(make_sub(2))
        with hub.batch():
            hub.publish(make_sub(3))
            hub.publish(make_sub(4))
        log.release.set()
        hub.sync()
        assert log.batches == [[0, 1], [2, 3, 4]]
        assert log.started == 2 and hub.last_seq == 4

    def test_a_failed_append_drops_the_batches_it_carried(self, tmp_path):
        log = BlockingLog(tmp_path / "wal.jsonl", fail=1)
        hub = SubscriptionHub(wal=log)
        sub = hub.attach()
        relayed = []

        def owner():
            with hub.batch():
                for i in range(3):
                    hub.publish(make_sub(i))
            try:
                hub.sync()
            except OSError as exc:
                relayed.append(exc)

        thread = threading.Thread(target=owner, daemon=True)
        thread.start()
        wait_until(lambda: log.started == 1, "the failing append")
        with hub.batch():
            handed = [hub.publish(make_sub(i)) for i in (3, 4)]
        assert [e.seq for e in handed] == [3, 4]
        with hub.batch():
            still_open = hub.publish(make_sub(5))
            assert still_open.seq == 5
            log.release.set()
            thread.join(timeout=10)
            assert not thread.is_alive() and len(relayed) == 1
            wait_until(lambda: hub.last_seq == 1, "the batch handed after")
            # The freed cursors went to what came after, the open scope
            # included: gap-free, and no durable cursor is reused.
            assert [e.seq for e in handed] == [0, 1] and still_open.seq == 2
            assert [e.payload["seq"] for e in handed] == [0, 1]
        hub.sync()
        assert [r["seq"] for r in log] == [0, 1, 2]
        assert [r["match_id"] for r in log] == [
            match_id(make_sub(i)) for i in (3, 4, 5)]
        assert [p.match_id for k, p in sub.drain_items()] == [
            match_id(make_sub(i)) for i in (3, 4, 5)]
        assert hub._commit_errors == 0  # relayed to its owner instead
        # Nothing of the dropped batch was remembered or ringed.
        assert hub.publish(make_sub(0)).seq == 3
        assert [p.seq for k, p in hub.attach(
            resume_after=-1).drain_items()] == [0, 1, 2, 3]

    def test_a_failed_run_is_an_ingest_error_and_a_failed_barrier_raises(
            self, served):
        server, hub, registry, log, calls = served(fail=1)
        sub = hub.attach(queue_size=4096)
        server.submit_events(make_events(16))
        wait_until(lambda: log.started == 1, "the first run's append")
        server.submit_events(make_events(16, start_ts=16))
        wait_until(lambda: len(calls) == 2, "the second run's submit")
        log.release.set()
        server.wait_idle(timeout=5)
        lost = calls[1][1]  # what the first run reported
        fresh = registry.match_count - lost
        assert lost and fresh
        seqs = [seq for batch in log.batches for seq in batch]
        assert seqs == list(range(fresh))
        assert [p.seq for k, p in sub.drain_items()] == seqs
        assert statz_ingest(server)["errors"] == 1
        assert server._ingest_errors == 0  # no batch of events raised
        # A barrier's failed append is relayed to its caller, once.
        log.fail = 1
        with pytest.raises(OSError, match="disk on fire"):
            server.submit_call(
                lambda: hub.publish(make_sub(1000), pattern_id="p1"),
                timeout=5)
        assert statz_ingest(server)["errors"] == 1
        server.wait_idle(timeout=5)  # the failure is not raised twice

    def test_a_failure_in_delivery_is_relayed_and_nothing_hangs(
            self, tmp_path):
        hub = SubscriptionHub(wal=DeliveryLog(tmp_path / "wal.jsonl"))
        sub = hub.attach()

        def broken():
            raise RuntimeError("event loop is closed")

        sub.wake = broken
        with hub.batch():
            hub.publish(make_sub(0))
            hub.publish(make_sub(1))
        with pytest.raises(RuntimeError, match="closed"):
            hub.sync()
        # Durable before delivery failed: the cursors are spent.
        assert hub.last_seq == 1
        with pytest.raises(RuntimeError, match="closed"):
            hub.publish(make_sub(2))
        sub.wake = None
        assert hub.publish(make_sub(3)).seq == 3
        assert hub.drain() == 1
        assert [k for k, _ in sub.drain_items()] == ["match"] * 4 + ["drain"]

    def test_shutdown_during_an_append_sends_drain_after_the_last_match(
            self, served):
        server, hub, registry, log, calls = served()
        sub = hub.attach(queue_size=4096)
        server.submit_events(make_events(16))
        wait_until(lambda: log.started == 1, "the run's append")
        stopper = threading.Thread(target=server.shutdown,
                                   kwargs={"grace": 0.2}, daemon=True)
        stopper.start()
        wait_until(lambda: server._draining, "the drain")
        assert sub.idle and not hub.draining
        log.release.set()
        stopper.join(timeout=15)
        assert not stopper.is_alive()
        items = sub.drain_items()
        assert [k for k, _ in items] == (["match"] * registry.match_count
                                         + ["drain"])
        assert items[-1][1] == {"resume": registry.match_count - 1}
        assert [r["seq"] for r in log] == list(range(registry.match_count))

    def test_concurrent_publishers_keep_cursors_gap_free(self, tmp_path):
        """More publishing threads than cores, a switch interval of a
        microsecond, and every third append failing: what the log holds
        is exactly what publish returned, under cursors 0..n-1, and a
        subscriber sees the log's sequence."""

        class EveryThirdFails(DeliveryLog):
            appends = 0

            def append_many(self, records):
                self.appends += 1  # the writer thread is the one caller
                if self.appends % 3 == 0:
                    raise OSError("disk on fire")
                super().append_many(records)

        log = EveryThirdFails(tmp_path / "wal.jsonl")
        hub = SubscriptionHub(wal=log, ring_size=4096)
        sub = hub.attach(queue_size=10_000)
        kept, lost = [], []

        def publisher(base):
            for i in range(base, base + 40):
                try:
                    kept.append(hub.publish(make_sub(i)))
                except OSError:
                    lost.append(i)

        threads = [threading.Thread(target=publisher, args=(100 * n,),
                                    daemon=True) for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert lost and len(kept) + len(lost) == 160
        records = [(r["seq"], r["match_id"]) for r in log]
        assert [seq for seq, _ in records] == list(range(len(kept)))
        assert sorted(records) == sorted((e.seq, e.match_id) for e in kept)
        delivered = sub.drain_items()
        assert [(p.seq, p.match_id) for _, p in delivered] == records
        assert all(p.payload["seq"] == p.seq for _, p in delivered)
        assert hub._commit_errors == 0 and hub.last_seq == len(kept) - 1

    def test_a_hub_without_a_log_starts_no_thread(self, tmp_path):
        hub = SubscriptionHub()
        with hub.batch():
            hub.publish(make_sub(0))
        hub.publish(make_sub(1))
        hub.sync()
        assert hub._writer is None and hub.last_seq == 1
        logged = SubscriptionHub(wal=DeliveryLog(tmp_path / "wal.jsonl"))
        with logged.batch():
            logged.publish(make_sub(0))
        assert logged._writer is not None
        assert logged._writer is not threading.current_thread()
        logged.sync()


class RecordingWriter:
    """The two ``StreamWriter`` methods the pump uses."""

    def __init__(self, on_write=None):
        self.writes = []
        self.drains = 0
        self._on_write = on_write

    def write(self, data):
        self.writes.append(bytes(data))
        if self._on_write is not None:
            self._on_write(data)

    async def drain(self):
        self.drains += 1


def sse_events(data):
    return list(parse_sse_stream(data.decode().splitlines(keepends=True)))


class TestPump:
    """The delivery loop writes what is queued: one ``write`` + one
    ``drain`` per wake-up, not per match."""

    @staticmethod
    def _pump(hub, subscriber, writer):
        server = PushServer(hub, submit=lambda events: None)  # not started
        asyncio.run(server._pump(subscriber, asyncio.Event(), writer))
        server._matcher_pool.shutdown()

    @staticmethod
    def _publish(hub, n):
        with hub.batch():
            for i in range(n):
                hub.publish(make_sub(i), pattern_id="p1")

    def test_sse_backlog_is_one_write_with_the_accounting_of_n_pops(self):
        obs = Observability(lineage=LineageRecorder(
            TraceConfig(sample_rate=1.0)))
        hub = SubscriptionHub(observability=obs)
        sub = hub.attach(subscriber_id="s1")
        for i in range(9):
            obs.lineage.deliver(make_sub(i), by="test", pattern_id="p1")
        self._publish(hub, 9)
        sub.close()
        writer = RecordingWriter()
        self._pump(hub, sub, writer)
        backlog, notice = writer.writes
        assert writer.drains == 2
        events = sse_events(backlog)
        assert [(kind, int(seq)) for kind, seq, _ in events] == [
            ("match", i) for i in range(9)]
        assert [data["match_id"] for _, _, data in events] == [
            match_id(make_sub(i)) for i in range(9)]
        assert [kind for kind, _, _ in sse_events(notice)] == ["disconnect"]
        assert sub.delivered == 9
        assert obs.snapshot()[
            "ses_sub_delivery_latency_seconds"]["count"] == 9
        assert all("push:s1" in obs.lineage.get(match_id(make_sub(i))).stages
                   for i in range(9))

    def test_gap_notice_keeps_its_place_and_drain_ends_the_write(self):
        hub = SubscriptionHub()
        sub = hub.attach(queue_size=2, policy="shed")
        self._publish(hub, 5)
        hub.drain()
        hub.publish(make_sub(99))  # refused: the hub is draining
        writer = RecordingWriter()
        self._pump(hub, sub, writer)
        (only,) = writer.writes  # the drain notice ended the loop
        assert writer.drains == 1
        events = sse_events(only)
        assert [kind for kind, _, _ in events] == ["gap", "match", "match",
                                                   "drain"]
        assert events[0][2] == {"shed": 3, "cursor": 4}
        assert [int(seq) for kind, seq, _ in events if kind == "match"] == [
            3, 4]
        assert events[-1][2] == {"resume": 4}

    def test_a_drain_notice_is_the_last_frame_of_its_write(self):
        hub = SubscriptionHub()
        sub = hub.attach()
        self._publish(hub, 3)
        hub.drain()
        # Something queued behind the terminal notice must not ride along.
        sub._queue.append(("match", hub._ring[0]))
        writer = RecordingWriter()
        self._pump(hub, sub, writer)
        (only,) = writer.writes
        assert [kind for kind, _, _ in sse_events(only)] == [
            "match", "match", "match", "drain"]
        assert sub.queue_depth == 1

    def test_a_large_backlog_is_cut_between_frames(self):
        hub = SubscriptionHub()
        sub = hub.attach(queue_size=10_000)
        self._publish(hub, 700)
        sub.close()
        writer = RecordingWriter()
        self._pump(hub, sub, writer)
        *chunks, notice = writer.writes
        assert len(chunks) >= 3
        seqs = []
        for chunk in chunks:
            events = sse_events(chunk)  # every write parses on its own
            assert chunk.endswith(b"\n\n")
            assert all(kind == "match" for kind, _, _ in events)
            seqs.extend(int(seq) for _, seq, _ in events)
            # Full only with its last frame: the cut is the first
            # frame boundary at or past the chunk size.
            last = len(PushServer._sse_chunk("match", hub._ring[seqs[-1]]))
            assert len(chunk) - last < IO_CHUNK_BYTES
        assert all(len(chunk) >= IO_CHUNK_BYTES for chunk in chunks[:-1])
        assert seqs == list(range(700))
        assert writer.drains == len(writer.writes)

    def test_an_idle_subscriber_still_gets_heartbeats(self):
        hub = SubscriptionHub(heartbeat_seconds=0.01)
        sub = hub.attach()
        writer = RecordingWriter(
            on_write=lambda data: data == b": hb\n\n" and sub.close())
        self._pump(hub, sub, writer)
        assert writer.writes[0] == b": hb\n\n"
        assert [kind for kind, _, _ in sse_events(writer.writes[-1])] == [
            "disconnect"]


class TestPushServerSubscriptions:
    def test_sse_resume_via_last_event_id_no_gap_no_dup(self, stack):
        server, hub, registry = stack
        push_events(server.host, server.port, make_events(40))
        server.wait_idle(timeout=5)
        assert hub.last_seq >= 3
        first = list(subscribe_sse(server.host, server.port, resume=-1,
                                   reconnect=False, read_timeout=2,
                                   stop_on_drain=False))
        # read_timeout ends the replay once the stream idles
        seqs = [int(g["id"]) for g in first if g["event"] == "match"]
        cut = seqs[len(seqs) // 2]
        second = list(subscribe_sse(server.host, server.port, resume=cut,
                                    reconnect=False, read_timeout=2,
                                    stop_on_drain=False))
        resumed = [int(g["id"]) for g in second if g["event"] == "match"]
        assert resumed == [s for s in seqs if s > cut]

    def test_quit_drains_and_sends_terminal_resume_token(self, tmp_path):
        pattern, aggregate = parse_query_spec(QUERY)
        plan = compile_plan(pattern, aggregate=aggregate)
        registry = PatternRegistry()
        registry.register(plan, pattern_id="p1")
        hub = SubscriptionHub()
        registry.on_match(lambda pid, m: hub.publish(m, pattern_id=pid))
        server = PushServer(hub, submit=registry.push_many,
                            flush=registry.close).start()
        got = []
        thread = collect_sse(server, got, stop_on_drain=True)
        time.sleep(0.2)
        push_events(server.host, server.port, make_events(10))
        server.wait_idle(timeout=5)
        request_quit(server.host, server.port)
        thread.join(timeout=10)
        assert got[-1]["event"] == "drain"
        # The terminal resume token names the last delivered cursor.
        delivered = [int(g["id"]) for g in got if g["event"] == "match"]
        assert got[-1]["data"]["resume"] == max(delivered)
        # End-of-stream matches from the matcher flush were delivered
        # before the terminal notice (delivered-or-persisted).
        assert len(delivered) == len(registry.matches)

    def test_subscribe_rejects_bad_policy(self, stack):
        server, _, _ = stack
        import urllib.error
        import urllib.request
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                server.url + "/subscribe?policy=explode", timeout=5)
        assert err.value.code == 400


# ----------------------------------------------------------------------
# Drain property: accepted => delivered-or-persisted exactly once
# ----------------------------------------------------------------------
class TestDrainProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        n_matches=st.integers(min_value=0, max_value=30),
        duplicates=st.lists(st.integers(min_value=0, max_value=29),
                            max_size=10),
        drain_at=st.integers(min_value=0, max_value=30),
        queue_size=st.integers(min_value=1, max_value=8),
        policy=st.sampled_from(["disconnect", "shed", "degrade"]),
    )
    def test_accepted_is_delivered_or_persisted_exactly_once(
            self, tmp_path_factory, n_matches, duplicates, drain_at,
            queue_size, policy):
        """Every accepted publish lands in the WAL exactly once, and a
        well-behaved subscriber (unbounded queue) sees each exactly
        once, whatever a concurrently misbehaving subscriber's policy
        does — before and across a drain."""
        tmp_path = tmp_path_factory.mktemp("drain")
        wal = DeliveryLog(tmp_path / "wal.jsonl")
        hub = SubscriptionHub(ring_size=4, wal=wal)
        good = hub.attach(queue_size=10_000, policy="disconnect")
        hub.attach(queue_size=queue_size, policy=policy)
        accepted = []
        schedule = sorted(range(n_matches))
        for i in schedule:
            if i == drain_at:
                hub.drain()
            entry = hub.publish(make_sub(i))
            if i in duplicates:  # re-publication: must be suppressed
                assert hub.publish(make_sub(i)) is None
            if entry is not None:
                accepted.append(entry.match_id)
        if drain_at >= n_matches:
            hub.drain()
        items = good.drain_items()
        delivered = [p.match_id for k, p in items if k == "match"]
        # Exactly once to the well-behaved subscriber, in cursor order.
        assert delivered == accepted
        assert items[-1][0] == "drain" if items else True
        # Exactly once in the durable log.
        persisted = [r["match_id"] for r in wal]
        assert persisted == accepted
        # A post-crash hub resumes a reconnecting subscriber gap-free.
        reborn = SubscriptionHub(ring_size=4,
                                 wal=DeliveryLog(tmp_path / "wal.jsonl"))
        resumed = reborn.attach(resume_after=-1)
        replayed = [p.match_id for k, p in resumed.drain_items()
                    if k == "match"]
        assert replayed == accepted


# ----------------------------------------------------------------------
# Crash consistency of batched appends
# ----------------------------------------------------------------------
class TestBatchCrashConsistency:
    """A crash mid-commit tears the WAL anywhere inside the batch's one
    write.  Whatever prefix survives, a restarted hub that is handed the
    whole batch again (at-least-once ingest re-reports it) ends up with
    every match exactly once under strictly increasing cursors."""

    K = 4

    @staticmethod
    def _publish(hub, indices):
        with hub.batch():
            entries = [hub.publish(make_sub(i), pattern_id="p1")
                       for i in indices]
        hub.sync()
        return entries

    def _check_every_cut(self, path, start, max_bytes, first, second,
                         ring_size):
        """Tear the file at every offset from ``start``, where
        ``second``'s write begins; restart; re-publish ``second``.
        ``first`` is the already durable history."""
        data = path.read_bytes()
        expected = [match_id(make_sub(i)) for i in first + second]
        for cut in range(start, len(data) + 1):
            path.write_bytes(data[:cut])
            wal = DeliveryLog(path, max_bytes=max_bytes)
            recovered = [(r["seq"], r["match_id"]) for r in wal]
            hub = SubscriptionHub(ring_size=ring_size, wal=wal)
            tail = hub.attach(queue_size=1000)
            entries = self._publish(hub, second)
            committed = [(e.seq, e.match_id) for e in entries
                         if e is not None]
            union = recovered + committed
            assert sorted(mid for _, mid in union) == sorted(expected), cut
            seqs = [seq for seq, _ in union]
            assert seqs == sorted(set(seqs)), cut  # increasing, none reused
            # Live subscribers get exactly the newly committed part ...
            assert [(p.seq, p.match_id)
                    for _, p in tail.drain_items()] == committed, cut
            # ... a resume from inside the old history is gap-free
            # across ring, rotation and tear, and so is the next restart.
            resumed = hub.attach(resume_after=first[0], queue_size=1000)
            assert [(p.seq, p.match_id)
                    for _, p in resumed.drain_items()] == union[1:], cut
            assert [(r["seq"], r["match_id"])
                    for r in DeliveryLog(path, max_bytes=max_bytes)
                    ] == union, cut

    def test_truncation_at_every_byte_offset(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        first = list(range(2))
        second = list(range(2, 2 + self.K))
        hub = SubscriptionHub(wal=DeliveryLog(path))
        self._publish(hub, first)
        start = path.stat().st_size
        self._publish(hub, second)
        assert path.read_bytes().count(b"\n") == 2 + self.K
        self._check_every_cut(path, start, None, first, second,
                              ring_size=1024)

    def test_truncation_with_a_rotation_between_the_batches(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        first = list(range(2 * self.K))
        second = list(range(2 * self.K, 3 * self.K))
        probe = SubscriptionHub(wal=DeliveryLog(tmp_path / "probe.jsonl"))
        self._publish(probe, first)
        # A cap of 2.5 second-batches: committing the second batch on
        # top of the (twice as long) first rotates that to <path>.1,
        # while a torn second batch plus its re-publication still fit
        # one generation — the first batch stays in the retained window.
        max_bytes = (tmp_path / "probe.jsonl").stat().st_size * 5 // 4
        hub = SubscriptionHub(wal=DeliveryLog(path, max_bytes=max_bytes))
        self._publish(hub, first)
        self._publish(hub, second)
        assert rotated_path(path).read_bytes().count(b"\n") == 2 * self.K
        assert path.read_bytes().count(b"\n") == self.K
        # The second batch is the whole current file; ring_size=2: the
        # resume must spill to both files.
        self._check_every_cut(path, 0, max_bytes, first, second,
                              ring_size=2)


# ----------------------------------------------------------------------
# Serial / sharded / supervised serves agree through the hub
# ----------------------------------------------------------------------
JOIN_QUERY = ("PATTERN PERMUTE(a, b) WHERE a.L = 'B' AND b.L = 'C' "
              "AND a.ID = b.ID WITHIN 10")


def join_events(n):
    return [Event(ts=i, attrs={"L": "B" if i % 2 == 0 else "C",
                               "ID": (i // 2) % 3}, eid=f"e{i}")
            for i in range(n)]


class TestServeModesConverge:
    def _serial_match_ids(self, events):
        pattern, aggregate = parse_query_spec(JOIN_QUERY)
        plan = compile_plan(pattern, aggregate=aggregate)
        registry = PatternRegistry()
        registry.register(plan)
        matches = registry.push_many(events) + registry.close()
        return {match_id(m.substitution) for m in matches}

    @pytest.mark.parametrize("mode", ["serial", "sharded", "supervised"])
    def test_hub_sees_the_fault_free_match_set(self, mode, tmp_path):
        events = join_events(60)
        expected = self._serial_match_ids(events)
        assert expected  # the stream must actually produce matches
        pattern, aggregate = parse_query_spec(JOIN_QUERY)
        plan = compile_plan(pattern, aggregate=aggregate)
        hub = SubscriptionHub(ring_size=256,
                              wal=DeliveryLog(tmp_path / "wal.jsonl"))
        sub = hub.attach(resume_after=-1, queue_size=10_000)
        if mode == "serial":
            matcher = PatternRegistry()
            matcher.register(plan)
            matcher.on_match(lambda pid, m: hub.publish(m, pattern_id=pid))
        else:
            from repro.parallel.sharded import ShardedStreamMatcher
            from repro.resilience import Supervisor
            supervisor = Supervisor() if mode == "supervised" else None
            matcher = ShardedStreamMatcher(plan, workers=2,
                                           supervisor=supervisor)
            matcher.on_match(lambda m: hub.publish(m))
        matcher.push_many(events)
        matcher.close()
        hub.drain()
        delivered = [p.match_id for k, p in sub.drain_items()
                     if k == "match"]
        assert set(delivered) == expected
        assert len(delivered) == len(expected)  # no duplicates either

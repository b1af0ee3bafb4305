"""Tests for the stream element data model."""

import dataclasses

from repro.core.events import (
    CheckpointBarrier,
    EndOfStream,
    Heartbeat,
    Punctuation,
    Record,
    Watermark,
    record,
)


class TestRecord:
    def test_with_value_preserves_metadata(self):
        r = Record(value=1, event_time=2.0, key="k", ingest_time=0.5)
        r2 = r.with_value(10)
        assert r2.value == 10
        assert r2.event_time == 2.0
        assert r2.key == "k"
        assert r2.ingest_time == 0.5

    def test_with_key_and_event_time(self):
        r = record(5)
        assert r.with_key("a").key == "a"
        assert r.with_event_time(3.0).event_time == 3.0

    def test_retraction_flips_sign(self):
        r = record(5)
        retraction = r.as_retraction()
        assert retraction.sign == -1
        assert retraction.is_retraction
        assert retraction.as_retraction().sign == 1

    def test_copy_helpers_change_exactly_one_field(self):
        trace = object()
        r = Record(value=1, event_time=2.0, key="k", sign=1, ingest_time=0.5, trace=trace)
        fields = [f.name for f in dataclasses.fields(Record)]
        cases = {
            "value": (r.with_value(10), 10),
            "key": (r.with_key("z"), "z"),
            "event_time": (r.with_event_time(7.0), 7.0),
            "sign": (r.as_retraction(), -1),
        }
        for changed, (copy, expected) in cases.items():
            assert type(copy) is Record
            assert getattr(copy, changed) == expected
            for name in fields:
                if name != changed:
                    assert getattr(copy, name) is getattr(r, name), (changed, name)

    def test_copy_helpers_keep_equality_and_hash(self):
        r = Record(value=("a", 1), event_time=2.0, key="k", ingest_time=0.5, trace=object())
        twin = Record(value=("a", 1), event_time=2.0, key="k", ingest_time=0.5)
        assert r.with_value(("a", 1)) == r
        assert hash(r.with_value(("a", 1))) == hash(r)
        assert r.with_key("k") == twin.with_key("k")
        assert hash(r.with_event_time(2.0)) == hash(twin)
        assert r.as_retraction().as_retraction() == r
        assert hash(r.as_retraction()) == hash(twin.as_retraction())
        assert r.as_retraction() != r

    def test_is_record_flag(self):
        assert record(1).is_record
        assert not Watermark(1.0).is_record
        assert not EndOfStream().is_record


class TestWatermark:
    def test_ordering(self):
        assert Watermark(1.0) < Watermark(2.0)
        assert not Watermark(2.0) < Watermark(1.0)

    def test_equality(self):
        assert Watermark(1.5) == Watermark(1.5)


class TestPunctuation:
    def test_matches_dict_attribute(self):
        p = Punctuation(attribute="ts", bound=10)
        assert p.matches({"ts": 5})
        assert p.matches({"ts": 10})
        assert not p.matches({"ts": 11})

    def test_matches_object_attribute(self):
        class Event:
            ts = 3

        p = Punctuation(attribute="ts", bound=5)
        assert p.matches(Event())

    def test_missing_attribute_does_not_match(self):
        p = Punctuation(attribute="ts", bound=5)
        assert not p.matches({"other": 1})

    def test_custom_predicate_wins(self):
        p = Punctuation(attribute="ts", bound=0, predicate=lambda v: v["x"] == 1)
        assert p.matches({"x": 1, "ts": 99})


class TestControlElements:
    def test_barrier_fields(self):
        b = CheckpointBarrier(checkpoint_id=3, timestamp=1.0)
        assert b.checkpoint_id == 3

    def test_heartbeat_fields(self):
        h = Heartbeat(source_id="s", timestamp=2.0)
        assert h.source_id == "s"
        assert h.timestamp == 2.0

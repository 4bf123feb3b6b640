"""Tests for trace recording and time units."""

import pytest

from repro.sim.trace import Trace
from repro.sim.units import (
    MS,
    SEC,
    US,
    fmt_time,
    from_ms,
    from_sec,
    from_us,
    to_ms,
    to_sec,
    to_us,
)


class TestUnits:
    def test_constants_compose(self):
        assert US == 1000
        assert MS == 1000 * US
        assert SEC == 1000 * MS

    def test_from_us_rounds(self):
        assert from_us(1.4) == 1400
        assert from_us(0.0004) == 0

    def test_from_ms_and_sec(self):
        assert from_ms(2.5) == 2_500_000
        assert from_sec(0.25) == 250 * MS

    def test_to_conversions_roundtrip(self):
        assert to_us(1500) == 1.5
        assert to_ms(2_500_000) == 2.5
        assert to_sec(SEC // 2) == 0.5

    def test_fmt_time_unit_selection(self):
        assert fmt_time(5) == "5ns"
        assert fmt_time(1500) == "1.500us"
        assert fmt_time(2_340_000) == "2.340ms"
        assert fmt_time(3 * SEC) == "3.000s"

    def test_fmt_time_negative(self):
        assert fmt_time(-1500) == "-1.500us"


class TestTrace:
    @pytest.fixture
    def trace(self):
        trace = Trace("test")
        trace.record(0, "txn", "a", duration=10)
        trace.record(5, "txn", "b", duration=20)
        trace.record(15, "lax", "a", duration=3)
        trace.record(30, "txn", "a", duration=5)
        trace.record(30, "alloc", "b", remaining=99)
        return trace

    def test_len_and_iter(self, trace):
        assert len(trace) == 5
        assert len(list(trace)) == 5

    def test_filter_by_kind(self, trace):
        assert len(trace.filter(kind="txn")) == 3

    def test_filter_by_client(self, trace):
        assert len(trace.filter(client="a")) == 3

    def test_filter_by_window_is_half_open(self, trace):
        assert len(trace.filter(start=5, end=30)) == 2

    def test_filter_combined(self, trace):
        events = trace.filter(kind="txn", client="a", start=1)
        assert len(events) == 1 and events[0].time == 30

    def test_total_duration(self, trace):
        assert trace.total_duration(kind="txn", client="a") == 15

    def test_count(self, trace):
        assert trace.count(kind="lax") == 1

    def test_clients_in_first_appearance_order(self, trace):
        assert trace.clients() == ["a", "b"]

    def test_event_end_property(self, trace):
        event = trace.filter(kind="txn", client="b")[0]
        assert event.end == 25

    def test_info_payload(self, trace):
        alloc = trace.filter(kind="alloc")[0]
        assert alloc.info["remaining"] == 99

"""Tests for ASes, routing, and the event scheduler."""

from datetime import timedelta

import pytest

from repro.inet.asn import AS_REGISTRY, as_by_number, generic_ases, table4_symbol
from repro.inet.clock import EventScheduler
from repro.inet.routing import RoutingTable
from repro.util.timeutil import utc_datetime


class TestAsRegistry:
    def test_paper_cast_present(self):
        for asn in (15169, 8560, 54054, 44050, 16509, 14061, 36692, 29073, 24940):
            assert as_by_number(asn) is not None

    def test_google_symbol(self):
        assert AS_REGISTRY[15169].symbol == "★"
        assert table4_symbol(15169) == "★15169"

    def test_unknown_asn_symbol_falls_back_to_number(self):
        assert table4_symbol(99999) == "99999"

    def test_quasi_is_bulletproof(self):
        assert AS_REGISTRY[29073].category == "bulletproof"
        assert not AS_REGISTRY[29073].follows_scanning_best_practices

    def test_generic_ases_unique_and_addressable(self):
        tail = generic_ases(76)
        assert len({a.asn for a in tail}) == 76
        assert all(a.ipv4_blocks for a in tail)


class TestRoutingTable:
    def test_contains_routed_prefix(self):
        table = RoutingTable([(185, 199)])
        assert "185.199.1.2" in table
        assert "185.200.1.2" not in table

    def test_from_ases(self):
        table = RoutingTable.from_ases([AS_REGISTRY[15169]])
        assert table.contains("74.125.3.4")

    def test_global_table_covers_registry(self):
        table = RoutingTable.global_table()
        assert "104.131.5.5" in table  # DigitalOcean
        assert "203.0.113.66" not in table  # TEST-NET-3, unrouted

    def test_malformed_addresses_rejected(self):
        table = RoutingTable([(1, 2)])
        assert not table.contains("1.2.3")
        assert not table.contains("a.b.c.d")
        assert not table.contains("")

    def test_len(self):
        assert len(RoutingTable([(1, 2), (3, 4)])) == 2


class TestEventScheduler:
    def test_runs_in_time_order(self):
        scheduler = EventScheduler()
        seen = []
        t0 = utc_datetime(2018, 4, 12, 14, 0)
        scheduler.schedule(t0 + timedelta(seconds=30), lambda t: seen.append("b"))
        scheduler.schedule(t0 + timedelta(seconds=10), lambda t: seen.append("a"))
        scheduler.schedule(t0 + timedelta(seconds=60), lambda t: seen.append("c"))
        scheduler.run_all()
        assert seen == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        scheduler = EventScheduler()
        seen = []
        t = utc_datetime(2018, 4, 12, 14, 0)
        scheduler.schedule(t, lambda _: seen.append(1))
        scheduler.schedule(t, lambda _: seen.append(2))
        scheduler.run_all()
        assert seen == [1, 2]

    def test_run_until_boundary_inclusive(self):
        scheduler = EventScheduler()
        seen = []
        t0 = utc_datetime(2018, 4, 12, 14, 0)
        scheduler.schedule(t0, lambda _: seen.append("at"))
        scheduler.schedule(t0 + timedelta(seconds=1), lambda _: seen.append("after"))
        ran = scheduler.run_until(t0)
        assert ran == 1
        assert seen == ["at"]
        assert scheduler.pending() == 1

    def test_callbacks_may_schedule_more(self):
        scheduler = EventScheduler()
        seen = []
        t0 = utc_datetime(2018, 4, 12, 14, 0)

        def first(now):
            seen.append("first")
            scheduler.schedule(now + timedelta(seconds=5), lambda _: seen.append("chained"))

        scheduler.schedule(t0, first)
        scheduler.run_all()
        assert seen == ["first", "chained"]

    def test_scheduling_into_past_rejected(self):
        scheduler = EventScheduler()
        t0 = utc_datetime(2018, 4, 12, 14, 0)
        scheduler.schedule(t0, lambda _: None)
        scheduler.run_all()
        with pytest.raises(ValueError):
            scheduler.schedule(t0 - timedelta(seconds=1), lambda _: None)

    def test_processed_counter(self):
        scheduler = EventScheduler()
        t0 = utc_datetime(2018, 4, 12, 14, 0)
        for i in range(3):
            scheduler.schedule(t0 + timedelta(seconds=i), lambda _: None)
        scheduler.run_all()
        assert scheduler.processed == 3

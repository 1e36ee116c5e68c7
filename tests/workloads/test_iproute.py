"""Tests for the IP-routing workload, including the TCAM-vs-oracle check."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.errors import WorkloadError
from repro.tcam import ArrayGeometry
from repro.workloads.iproute import (
    Route,
    RoutingTable,
    synthetic_routing_table,
    trace_addresses,
)


class TestRoute:
    def test_covers_inside_prefix(self):
        r = Route(prefix=0xC0A80000, length=16, next_hop=1)  # 192.168/16
        assert r.covers(0xC0A80101)
        assert not r.covers(0xC0A90101)

    def test_default_route_covers_all(self):
        r = Route(prefix=0, length=0, next_hop=1)
        assert r.covers(0)
        assert r.covers(0xFFFFFFFF)

    def test_rejects_host_bits_below_mask(self):
        with pytest.raises(WorkloadError):
            Route(prefix=0xC0A80001, length=16, next_hop=1)

    def test_rejects_bad_length(self):
        with pytest.raises(WorkloadError):
            Route(prefix=0, length=33, next_hop=1)

    def test_word_has_prefix_specificity(self):
        r = Route(prefix=0xC0A80000, length=16, next_hop=1)
        w = r.to_word()
        assert str(w).count("X") == 32 - 16
        assert len(w) == 32


class TestRoutingTable:
    def test_sorted_longest_first(self):
        routes = [
            Route(prefix=0, length=0, next_hop=0),
            Route(prefix=0xC0A80000, length=16, next_hop=1),
            Route(prefix=0xC0A80100, length=24, next_hop=2),
        ]
        table = RoutingTable(routes)
        assert [r.length for r in table.routes] == [24, 16, 0]

    def test_reference_lpm_picks_longest(self):
        table = RoutingTable(
            [
                Route(prefix=0, length=0, next_hop=0),
                Route(prefix=0xC0A80000, length=16, next_hop=1),
                Route(prefix=0xC0A80100, length=24, next_hop=2),
            ]
        )
        hit = table.lookup_reference(0xC0A80142)
        assert hit is not None and hit.length == 24

    def test_reference_falls_back_to_default(self):
        table = RoutingTable(
            [
                Route(prefix=0, length=0, next_hop=0),
                Route(prefix=0xC0A80000, length=16, next_hop=1),
            ]
        )
        hit = table.lookup_reference(0x08080808)
        assert hit is not None and hit.length == 0

    def test_rejects_empty_table(self):
        with pytest.raises(WorkloadError):
            RoutingTable([])


class TestTCAMAgreement:
    @pytest.fixture(scope="class")
    def deployed(self):
        rng = np.random.default_rng(17)
        table = synthetic_routing_table(40, rng)
        array = build_array(get_design("fefet2t"), ArrayGeometry(64, 32))
        table.deploy(array)
        return table, array, rng

    def test_tcam_matches_oracle_on_trace(self, deployed):
        table, array, rng = deployed
        for addr in trace_addresses(table, 40, rng):
            via_tcam, outcome = table.lookup_tcam(array, addr)
            oracle = table.lookup_reference(addr)
            if oracle is None:
                assert via_tcam is None
            else:
                assert via_tcam is not None
                # Priority order guarantees equal prefix length (the specific
                # winning route may tie in length).
                assert via_tcam.length == oracle.length
                assert via_tcam.covers(addr)
            assert outcome.functional_errors == 0

    def test_deploy_rejects_wrong_width(self, deployed):
        table, _, _ = deployed
        narrow = build_array(get_design("fefet2t"), ArrayGeometry(64, 16))
        with pytest.raises(WorkloadError):
            table.deploy(narrow)

    def test_deploy_rejects_too_few_rows(self, deployed):
        table, _, _ = deployed
        tiny = build_array(get_design("fefet2t"), ArrayGeometry(8, 32))
        with pytest.raises(WorkloadError):
            table.deploy(tiny)


class TestSynthesis:
    def test_requested_route_count(self, rng):
        assert len(synthetic_routing_table(25, rng)) == 25

    def test_routes_unique(self, rng):
        table = synthetic_routing_table(50, rng)
        seen = {(r.prefix, r.length) for r in table.routes}
        assert len(seen) == 50

    def test_prefix_length_distribution_peaks_at_24(self, rng):
        table = synthetic_routing_table(400, rng)
        lengths = [r.length for r in table.routes]
        counts = {length: lengths.count(length) for length in set(lengths)}
        assert max(counts, key=counts.get) == 24

    def test_trace_hit_fraction(self, rng):
        table = synthetic_routing_table(30, rng)
        addrs = trace_addresses(table, 200, rng, hit_fraction=1.0)
        hits = sum(1 for a in addrs if table.lookup_reference(a) is not None)
        assert hits == 200

    def test_rejects_bad_args(self, rng):
        with pytest.raises(WorkloadError):
            synthetic_routing_table(0, rng)
        table = synthetic_routing_table(5, rng)
        with pytest.raises(WorkloadError):
            trace_addresses(table, 10, rng, hit_fraction=2.0)

"""Scaling-campaign record structure and the fabric service model."""

from __future__ import annotations

import json

import pytest

from repro.cluster import (
    FabricBackend,
    RuleTable,
    TCAMFabric,
    run_cluster_campaign,
    synthetic_rule_table,
)
from repro.cluster.campaign import FabricServiceModel
from repro.errors import ClusterError
from repro.tcam.outcome import SCHEMA_VERSION
from repro.tcam.trit import random_word


class TestSyntheticRuleTable:
    def test_shape_and_priority_order(self):
        table = synthetic_rule_table(20, 16, seed=1)
        assert len(table) == 20
        assert table.width == 16
        # LPM convention: earlier rules are at least as specific.
        spec = [sum(1 for t in w if t != 2) for w in table.rules]
        assert spec == sorted(spec, reverse=True)

    def test_deterministic(self):
        a = synthetic_rule_table(8, 12, seed=5)
        b = synthetic_rule_table(8, 12, seed=5)
        assert all(list(x) == list(y) for x, y in zip(a.rules, b.rules))

    def test_validation(self):
        with pytest.raises(ClusterError):
            synthetic_rule_table(0, 16)
        with pytest.raises(ClusterError, match="cols must be >= 4"):
            synthetic_rule_table(4, 3)


class TestFabricServiceModel:
    def _fabric(self, rng, n_chips, topology="p2p"):
        table = RuleTable(tuple(random_word(12, rng) for _ in range(8)))
        return TCAMFabric(
            table, n_chips=n_chips, policy="range", topology=topology
        )

    def test_disjoint_shards_overlap(self, rng):
        """Queries on different shard ports must not serialize."""
        fabric = self._fabric(rng, 4)
        keys = [random_word(12, rng, x_fraction=0.0) for _ in range(16)]
        out = fabric.search_batch(keys)
        model = FabricServiceModel()
        t = model.batch_service_time(out)
        serialized = model.t_overhead + sum(o.cycle_time for o in out)
        per_shard: dict[int, float] = {}
        for o in out:
            for s, c in o.shard_cycles:
                per_shard[s] = per_shard.get(s, 0.0) + c
        assert t == pytest.approx(model.t_overhead + max(per_shard.values()))
        if len(per_shard) > 1:
            assert t < serialized

    def test_bus_medium_serializes(self, rng):
        fabric = self._fabric(rng, 4, topology="bus")
        keys = [random_word(12, rng, x_fraction=0.0) for _ in range(16)]
        out = fabric.search_batch(keys)
        medium = sum(o.link_occupancy for o in out)
        assert medium > 0.0
        t = FabricServiceModel().batch_service_time(out)
        assert t >= FabricServiceModel().t_overhead + medium

    def test_empty_batch_costs_overhead(self):
        model = FabricServiceModel()
        assert model.batch_service_time([]) == model.t_overhead


class TestFabricBackend:
    def test_protocol(self, rng):
        table = RuleTable(tuple(random_word(12, rng) for _ in range(6)))
        backend = FabricBackend(TCAMFabric(table, n_chips=2))
        assert backend.cols == 12
        out = backend.search_batch([random_word(12, rng)], banks=0)
        assert len(out) == 1


class TestCampaignRecord:
    @pytest.fixture(scope="class")
    def record(self):
        return run_cluster_campaign(
            n_rules=24,
            cols=16,
            chip_counts=(1, 2),
            policies=("hash", "range"),
            n_requests=60,
            churn_updates=16,
            seed=3,
        )

    def test_schema_and_shape(self, record):
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["campaign"] == "cluster-scaling"
        assert len(record["points"]) == 4
        assert record["config"]["chip_counts"] == [1, 2]

    def test_every_point_conserved(self, record):
        for p in record["points"]:
            assert p["conserved"]
            assert p["offered"] == p["completed"] + p["rejected"]
            assert p["churn_integrity"]

    def test_frontier_fields_sane(self, record):
        for p in record["points"]:
            assert p["throughput"] > 0.0
            assert p["energy_per_query"] > 0.0
            assert 0.0 <= p["link_fraction"] <= 1.0
            assert p["probes_per_query"] >= 1.0
            assert 0.0 <= p["availability"] <= 1.0
            assert p["latency_p50"] <= p["latency_p95"] <= p["latency_p99"]

    def test_probe_counts_match_policy(self, record):
        for p in record["points"]:
            if p["policy"] == "hash":
                assert p["probes_per_query"] == pytest.approx(p["n_chips"])
            elif p["policy"] == "range":
                assert p["probes_per_query"] <= p["n_chips"]

    def test_record_is_json_serializable(self, record):
        parsed = json.loads(json.dumps(record))
        assert parsed["schema_version"] == SCHEMA_VERSION

    def test_validation(self):
        with pytest.raises(ClusterError, match="topology"):
            run_cluster_campaign(topology="mesh", chip_counts=(1,))
        with pytest.raises(ClusterError, match="unknown policy"):
            run_cluster_campaign(policies=("lpm",), chip_counts=(1,))

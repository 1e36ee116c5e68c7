"""Live churn, estimator-priced writes, and the wear/repair loop."""

from __future__ import annotations

import pytest

from repro.cluster import (
    RuleTable,
    RuleUpdate,
    TCAMFabric,
    UpdateEngine,
    age_and_repair,
    logical_winner,
    synthesize_churn,
)
from repro.errors import ClusterError
from repro.tcam.trit import prefix_word, random_word

COLS = 16


def _table(rng, n=12):
    words = []
    for _ in range(n):
        plen = int(rng.integers(3, COLS + 1))
        words.append(prefix_word(int(rng.integers(1 << 16)), plen, COLS))
    return RuleTable(tuple(words))


def _fabric(table, n_chips=2, headroom=6, **kw):
    kw.setdefault("spare_rows", 0)
    load = max(
        len(s)
        for s in TCAMFabric(table, n_chips=n_chips, **kw).placement.shard_rules
    )
    return TCAMFabric(
        table, n_chips=n_chips, bank_rows=load + headroom + kw["spare_rows"], **kw
    )


class TestRuleUpdate:
    def test_op_validation(self, rng):
        with pytest.raises(ClusterError, match="add/withdraw"):
            RuleUpdate("replace")
        with pytest.raises(ClusterError, match="rule word"):
            RuleUpdate("add")
        with pytest.raises(ClusterError, match="rule id"):
            RuleUpdate("withdraw")


class TestSynthesizeChurn:
    def test_deterministic(self):
        a = synthesize_churn(8, COLS, 40, seed=7)
        b = synthesize_churn(8, COLS, 40, seed=7)
        assert [(u.op, u.rule_id) for u in a] == [(u.op, u.rule_id) for u in b]

    def test_withdraw_targets_are_live(self):
        updates = synthesize_churn(4, COLS, 60, seed=3)
        live = set(range(4))
        next_id = 4
        for u in updates:
            if u.op == "add":
                live.add(next_id)
                next_id += 1
            else:
                assert u.rule_id in live
                live.discard(u.rule_id)

    def test_parameter_validation(self):
        with pytest.raises(ClusterError, match="non-negative"):
            synthesize_churn(-1, COLS, 5)
        with pytest.raises(ClusterError, match="width must be >= 4"):
            synthesize_churn(4, 3, 5)


@pytest.mark.parametrize("policy", ["hash", "range", "replicated"])
class TestChurnIntegrity:
    def test_winners_track_logical_oracle(self, rng, policy):
        table = _table(rng)
        fabric = _fabric(table, n_chips=2, policy=policy)
        engine = UpdateEngine(fabric)
        report = engine.apply(synthesize_churn(len(table), COLS, 30, seed=5))
        assert report.rejected_withdrawals == 0
        probes = [random_word(COLS, rng, x_fraction=0.1) for _ in range(16)]
        for key in probes:
            assert fabric.search(key).rule == logical_winner(
                fabric.rule_words, key
            )

    def test_kernel_flushed_after_churn(self, rng, policy):
        """A stale kernel table would keep matching withdrawn rules."""
        table = _table(rng)
        fabric = _fabric(table, n_chips=2, policy=policy)
        engine = UpdateEngine(fabric)
        engine.apply(synthesize_churn(len(table), COLS, 24, seed=9))
        probes = [random_word(COLS, rng, x_fraction=0.1) for _ in range(12)]
        for key in probes:
            assert fabric.search(key).rule == logical_winner(
                fabric.rule_words, key
            )


class TestUpdateAccounting:
    def test_add_books_write_and_link_energy(self, rng):
        table = _table(rng)
        fabric = _fabric(table, n_chips=2, policy="hash")
        report = UpdateEngine(fabric).apply(
            [RuleUpdate("add", rule=random_word(COLS, rng)) for _ in range(4)]
        )
        assert report.adds == 4
        assert report.replicas_written == 4  # hash: one replica per rule
        d = report.energy.as_dict()
        assert d["link"] > 0.0
        assert d["distribution"] > 0.0
        assert report.energy.total > d["link"] + d["distribution"]
        assert report.latency > 0.0

    def test_withdraw_erase_is_priced(self, rng):
        table = _table(rng)
        fabric = _fabric(table, n_chips=2, policy="hash")
        report = UpdateEngine(fabric).apply([RuleUpdate("withdraw", rule_id=0)])
        assert report.withdrawals == 1
        assert report.energy.total > 0.0
        assert 0 not in fabric.rule_sites
        assert 0 not in fabric.rule_words

    def test_withdrawn_rule_stops_matching(self, rng):
        table = _table(rng)
        fabric = _fabric(table, n_chips=2, policy="hash")
        # Rule 0 matches itself and outranks everything, so probing
        # with its own word pins the winner deterministically.
        key = table[0]
        winner = fabric.search(key).rule
        assert winner == 0
        UpdateEngine(fabric).apply([RuleUpdate("withdraw", rule_id=winner)])
        assert fabric.search(key).rule != winner

    def test_unknown_withdraw_rejected(self, rng):
        fabric = _fabric(_table(rng), n_chips=2)
        report = UpdateEngine(fabric).apply(
            [RuleUpdate("withdraw", rule_id=999)]
        )
        assert report.rejected_withdrawals == 1
        assert report.withdrawals == 0

    def test_replicated_add_fans_out(self, rng):
        table = _table(rng)
        fabric = _fabric(
            table,
            n_chips=3,
            policy="replicated",
        )
        # Live adds join the priority tail, so they land on one home
        # shard (only the initial hot prefix is replicated everywhere).
        report = UpdateEngine(fabric).apply(
            [RuleUpdate("add", rule=random_word(COLS, rng))]
        )
        assert report.adds == 1
        assert report.replicas_written == 1


class TestCapacity:
    def test_full_fabric_rejects_add_all_or_nothing(self, rng):
        table = _table(rng)
        fabric = _fabric(table, n_chips=2, headroom=0, policy="hash")
        sites_before = {g: list(s) for g, s in fabric.rule_sites.items()}
        next_before = fabric.next_rule_id
        report = UpdateEngine(fabric).apply(
            [RuleUpdate("add", rule=random_word(COLS, rng))]
        )
        assert report.rejected_adds == 1
        assert report.adds == 0
        assert fabric.next_rule_id == next_before
        assert {g: list(s) for g, s in fabric.rule_sites.items()} == sites_before

    def test_add_reuses_withdrawn_row(self, rng):
        table = _table(rng)
        fabric = _fabric(table, n_chips=1, headroom=0, policy="hash")
        engine = UpdateEngine(fabric)
        engine.apply([RuleUpdate("withdraw", rule_id=3)])
        report = engine.apply(
            [RuleUpdate("add", rule=random_word(COLS, rng))]
        )
        assert report.adds == 1


class TestWearAndRepair:
    def test_repair_relocations_keep_answers_exact(self, rng):
        table = _table(rng)
        fabric = _fabric(table, n_chips=2, spare_rows=4, policy="hash")
        report = age_and_repair(fabric, density=0.03, seed=4)
        assert report.repaired_rows > 0
        assert report.unrepaired_rows == 0
        # Every broken row was relocated into a spare, so the fabric
        # must answer exactly as the undamaged logical rule set.
        probes = [random_word(COLS, rng, x_fraction=0.1) for _ in range(16)]
        for key in probes:
            assert fabric.search(key).rule == logical_winner(
                fabric.rule_words, key
            )

    def test_spare_exhaustion_degrades_availability(self, rng):
        table = _table(rng, n=10)
        fabric = _fabric(table, n_chips=1, spare_rows=1, headroom=0)
        report = age_and_repair(fabric, density=0.6, seed=2)
        assert report.unrepaired_rows > 0
        assert report.banks_exhausted >= 1
        assert report.availability < 1.0
        assert report.degraded_rules

    def test_wear_mode_uses_write_counts(self, rng):
        """Churn-hammered rows must be in the early fault population."""
        table = _table(rng)
        fabric = _fabric(table, n_chips=1, spare_rows=2, headroom=4)
        engine = UpdateEngine(fabric)
        # Hammer row churn: repeated add/withdraw cycles concentrate
        # writes on the first free rows.
        for _ in range(6):
            r = engine.apply([RuleUpdate("add", rule=random_word(COLS, rng))])
            assert r.adds == 1
            engine.apply(
                [RuleUpdate("withdraw", rule_id=fabric.next_rule_id - 1)]
            )
        report = age_and_repair(fabric, density=0.1, seed=4, mode="wear")
        assert report.faults_injected > 0
        assert report.energy.total >= 0.0

    def test_density_validation(self, rng):
        fabric = _fabric(_table(rng), n_chips=1, spare_rows=1)
        with pytest.raises(ClusterError, match="density"):
            age_and_repair(fabric, density=1.5)

    def test_report_serializes(self, rng):
        fabric = _fabric(_table(rng), n_chips=1, spare_rows=2)
        d = age_and_repair(fabric, density=0.02, seed=3).to_dict()
        assert set(d) >= {
            "faults_injected",
            "repaired_rows",
            "unrepaired_rows",
            "availability",
            "repair_energy",
        }

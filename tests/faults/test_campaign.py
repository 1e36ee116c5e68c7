"""Fault-campaign generators: nested plans and their statistical shape."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FaultError
from repro.faults import (
    DEFAULT_KIND_WEIGHTS,
    GENERATOR_MODES,
    FaultCampaign,
    FaultKind,
    FaultPlan,
)

ROWS, COLS = 12, 10
N = ROWS * COLS


@pytest.fixture
def campaign() -> FaultCampaign:
    return FaultCampaign(ROWS, COLS)


def _cells(fm) -> set[tuple[int, int]]:
    return {(int(r), int(c)) for r, c in zip(*np.nonzero(fm.faulty_cell_mask()))}


class TestPlanStructure:
    @pytest.mark.parametrize("mode", GENERATOR_MODES)
    def test_order_is_a_full_permutation(self, campaign, rng, mode):
        wear = rng.integers(0, 5, size=(ROWS, COLS)) if mode == "wear" else None
        plan = campaign.draw(mode, rng, wear_counts=wear)
        assert isinstance(plan, FaultPlan)
        assert sorted(plan.order.tolist()) == list(range(N))
        assert plan.kinds.shape == (N,)
        assert plan.values.shape == (N,)

    def test_at_density_cell_counts(self, campaign, rng):
        plan = campaign.draw_random(rng)
        assert plan.at_density(0.0).is_empty()
        assert plan.at_density(1.0).n_faulty_cells() == N
        assert plan.at_density(0.1).n_faulty_cells() == round(0.1 * N)

    def test_at_density_validates(self, campaign, rng):
        plan = campaign.draw_random(rng)
        with pytest.raises(FaultError):
            plan.at_density(-0.01)
        with pytest.raises(FaultError):
            plan.at_density(1.5)

    def test_nested_subset_property(self, campaign, rng):
        """Lower densities are strict subsets: the monotonicity backbone."""
        plan = campaign.draw_random(rng)
        prev: set[tuple[int, int]] = set()
        for density in (0.0, 0.02, 0.05, 0.2, 0.7):
            cells = _cells(plan.at_density(density))
            assert prev <= cells
            prev = cells

    def test_same_seed_same_plan(self, campaign):
        a = campaign.draw_random(np.random.default_rng(99))
        b = campaign.draw_random(np.random.default_rng(99))
        assert np.array_equal(a.order, b.order)
        assert np.array_equal(a.kinds, b.kinds)
        assert np.array_equal(a.values, b.values)

    def test_kinds_respect_weights(self, campaign, rng):
        fm = campaign.draw_random(rng).at_density(1.0)
        drawn = set(np.unique(fm.kind).tolist())
        assert drawn == {int(k) for k in DEFAULT_KIND_WEIGHTS}

    def test_retention_values_use_vt_shift_scale(self, campaign, rng):
        fm = campaign.draw_random(rng).at_density(1.0)
        shifts = fm.value[fm.kind == int(FaultKind.RETENTION)]
        assert shifts.size
        assert ((shifts >= 0.5 * 0.3) & (shifts <= 1.5 * 0.3)).all()


class TestModesAndErrors:
    def test_clustered_plans_differ_from_random(self, campaign):
        random_plan = campaign.draw_random(np.random.default_rng(5))
        clustered_plan = campaign.draw_clustered(np.random.default_rng(5))
        assert not np.array_equal(random_plan.order, clustered_plan.order)

    def test_wear_orders_hot_cells_first(self, campaign, rng):
        wear = np.zeros((ROWS, COLS), dtype=np.int64)
        hot = 3 * COLS + 7
        wear.flat[hot] = 10**6
        plan = campaign.draw_wear(rng, wear)
        assert int(plan.order[0]) == hot

    def test_wear_requires_counts(self, campaign, rng):
        with pytest.raises(FaultError):
            campaign.draw("wear", rng)
        with pytest.raises(FaultError):
            campaign.draw_wear(rng, np.zeros((ROWS, COLS + 1)))
        with pytest.raises(FaultError):
            campaign.draw_wear(rng, np.full((ROWS, COLS), -1.0))

    def test_unknown_mode_rejected(self, campaign, rng):
        with pytest.raises(FaultError):
            campaign.draw("bogus", rng)

    def test_campaign_validation(self):
        with pytest.raises(FaultError):
            FaultCampaign(0, 4)

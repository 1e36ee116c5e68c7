"""Tests for the chip-level bank organization and power gating."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.energy import EnergyComponent
from repro.errors import CapacityError, TCAMError
from repro.tcam import ArrayGeometry, HierarchicalBank, SegmentedBank, random_word
from repro.tcam.cells import FeFET2TCell
from repro.tcam.chip import GatingPolicy, TCAMChip

GEO = ArrayGeometry(rows=8, cols=16)


def _fefet_bank():
    return build_array(get_design("fefet2t"), GEO)


def _cmos_bank():
    return build_array(get_design("cmos16t"), GEO)


def _chip(gated=False, n_banks=4) -> TCAMChip:
    policy = GatingPolicy(gate_idle_banks=gated)
    return TCAMChip(_fefet_bank, n_banks=n_banks, gating=policy)


class TestConstruction:
    def test_capacity(self):
        chip = _chip()
        assert chip.rows_total == 32

    def test_rejects_zero_banks(self):
        with pytest.raises(TCAMError):
            TCAMChip(_fefet_bank, n_banks=0)

    def test_volatile_chip_cannot_gate(self):
        with pytest.raises(TCAMError):
            GatingPolicy(gate_idle_banks=True, retention_required=True)

    def test_rejects_negative_wake_costs(self):
        with pytest.raises(TCAMError):
            GatingPolicy(wakeup_latency=-1.0)


class TestAddressing:
    def test_global_rows_map_to_banks(self, rng):
        chip = _chip()
        words = [random_word(16, rng) for _ in range(20)]
        chip.load(words)
        # Word 10 lives in bank 1, local row 2.
        assert chip.banks[1].word_at(2) == words[10]

    def test_search_reports_global_row(self, rng):
        chip = _chip()
        words = [random_word(16, rng) for _ in range(20)]
        chip.load(words)
        result = chip.search(words[10], bank=1)
        assert result.row == 10

    def test_load_rejects_overflow(self, rng):
        chip = _chip()
        with pytest.raises(CapacityError):
            chip.load([random_word(16, rng) for _ in range(33)])

    def test_rejects_bad_bank(self, rng):
        chip = _chip()
        with pytest.raises(TCAMError):
            chip.search(random_word(16, rng), bank=4)


def _call_search(chip, key, bank, idle_time=0.0):
    return chip.search(key, bank=bank, idle_time=idle_time)


def _call_search_batch(chip, key, bank, idle_time=0.0):
    # A valid bank 0 first: the bad index must be caught before any wake.
    return chip.search_batch([key, key], [0, bank], idle_time=idle_time)


def _call_search_batch_broadcast(chip, key, bank, idle_time=0.0):
    return chip.search_batch([key, key], bank, idle_time=idle_time)


CALLERS = {
    "search": _call_search,
    "search_batch": _call_search_batch,
    "search_batch_broadcast": _call_search_batch_broadcast,
}


def _api(caller: str) -> str:
    return "search" if caller == "search" else "search_batch"


class TestBankAndIdleValidation:
    """Malformed bank indices and idle windows raise a TCAMError naming
    the API before the gating state machine moves."""

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    @pytest.mark.parametrize(
        "bank", [True, False, 1.7, 1.0, np.float64(1.0), "1", None, -1, 4, np.int64(4)],
        ids=repr,
    )
    def test_bad_bank_rejected_without_waking(self, caller, bank, rng):
        chip = _chip(gated=True)
        powered = chip._powered.copy()
        with pytest.raises(TCAMError, match=rf"\b{_api(caller)}\b"):
            CALLERS[caller](chip, random_word(16, rng), bank)
        assert np.array_equal(chip._powered, powered)

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    @pytest.mark.parametrize(
        "idle_time", [-1.0, float("nan"), float("inf"), -np.inf, True, "1e-9", None],
        ids=repr,
    )
    def test_bad_idle_time_rejected_without_waking(self, caller, idle_time, rng):
        chip = _chip(gated=True)
        powered = chip._powered.copy()
        with pytest.raises(TCAMError, match=rf"\b{_api(caller)}\b.*idle_time"):
            CALLERS[caller](chip, random_word(16, rng), 1, idle_time)
        assert np.array_equal(chip._powered, powered)

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    @pytest.mark.parametrize(
        ("bank", "idle_time"),
        [(1, 0), (np.int64(1), 1e-9), (np.uint8(1), np.float32(1e-9))],
        ids=repr,
    )
    def test_integer_banks_and_finite_idle_times_accepted(
        self, caller, bank, idle_time, rng
    ):
        chip = _chip(gated=True)
        out = CALLERS[caller](chip, random_word(16, rng), bank, idle_time)
        result = out if caller == "search" else out[-1]
        assert result.bank == 1 and type(result.bank) is int
        assert bool(chip._powered[1])


class TestGating:
    def test_gated_chip_standby_power_one_bank(self, rng):
        chip = _chip(gated=True)
        chip.load([random_word(16, rng) for _ in range(8)])
        chip.search(random_word(16, rng), bank=0)
        ungated = _chip(gated=False)
        assert chip.standby_power() == pytest.approx(ungated.standby_power() / 4)

    def test_first_search_on_gated_bank_pays_wakeup(self, rng):
        chip = _chip(gated=True)
        chip.load([random_word(16, rng) for _ in range(8)])
        result = chip.search(random_word(16, rng), bank=2)
        assert result.energy.get(EnergyComponent.CLOCK) > 0.0
        assert result.latency > result.outcome.search_delay

    def test_warm_bank_pays_no_wakeup(self, rng):
        chip = _chip(gated=True)
        chip.load([random_word(16, rng) for _ in range(8)])
        chip.search(random_word(16, rng), bank=2)
        again = chip.search(random_word(16, rng), bank=2)
        assert again.energy.get(EnergyComponent.CLOCK) == 0.0

    def test_idle_leakage_scales_with_powered_banks(self, rng):
        gated = _chip(gated=True)
        ungated = _chip(gated=False)
        for chip in (gated, ungated):
            chip.load([random_word(16, rng) for _ in range(8)])
            chip.search(random_word(16, rng), bank=0)  # settle gating state
        idle = 1e-3
        e_gated = gated.search(random_word(16, rng), bank=0, idle_time=idle)
        e_ungated = ungated.search(random_word(16, rng), bank=0, idle_time=idle)
        leak_gated = e_gated.energy.get(EnergyComponent.LEAKAGE)
        leak_ungated = e_ungated.energy.get(EnergyComponent.LEAKAGE)
        assert leak_ungated > 3.0 * leak_gated


class TestDutyCycleCrossover:
    def test_gating_wins_at_low_search_rates(self, rng):
        """The R-F12 claim in miniature: at 1 kHz the gated FeFET chip's
        amortized energy undercuts the ungated one; at 100 MHz they tie."""
        gated = _chip(gated=True)
        ungated = _chip(gated=False)
        for chip in (gated, ungated):
            chip.load([random_word(16, rng) for _ in range(8)])
            chip.search(random_word(16, rng), bank=0)
        slow_gated = gated.energy_per_search_at_rate(1e3)
        slow_ungated = ungated.energy_per_search_at_rate(1e3)
        assert slow_gated < slow_ungated
        fast_gated = gated.energy_per_search_at_rate(1e8)
        fast_ungated = ungated.energy_per_search_at_rate(1e8)
        assert fast_gated == pytest.approx(fast_ungated, rel=0.05)

    def test_rate_must_be_positive(self):
        with pytest.raises(TCAMError):
            _chip().energy_per_search_at_rate(0.0)

    def test_cmos_chip_leaks_more_in_standby(self):
        fefet = TCAMChip(_fefet_bank, n_banks=4)
        cmos = TCAMChip(_cmos_bank, n_banks=4)
        assert cmos.standby_power() > fefet.standby_power()


def _segmented_bank():
    return SegmentedBank(FeFET2TCell(), GEO, probe_cols=4)


def _hierarchical_bank():
    return HierarchicalBank(FeFET2TCell(), GEO, segment_cols=[3, 5, 8])


class TestSegmentedBankStandby:
    """Chips of segmented and hierarchical banks book idle leakage: the
    bank's standby power is its stage arrays' standby powers added left
    to right, i.e. every cell of the bank leaks."""

    BANKS = [_segmented_bank, _hierarchical_bank]

    @pytest.mark.parametrize("make", BANKS)
    def test_bank_standby_is_stage_sum(self, make):
        bank = make()
        total = 0.0
        for stage in bank.stages:
            total += stage.standby_power()
        assert bank.standby_power() == total
        assert bank.standby_power() == pytest.approx(_fefet_bank().standby_power(), rel=1e-12)

    @pytest.mark.parametrize("make", BANKS)
    def test_chip_idle_leakage(self, make, rng):
        chip = TCAMChip(make, n_banks=3)
        assert chip.standby_power() == 3 * chip.banks[0].standby_power()
        key = random_word(16, rng)
        idle, busy = TCAMChip(make, n_banks=3), TCAMChip(make, n_banks=3)
        out_idle = idle.search(key, bank=1, idle_time=1e-6)
        out_busy = busy.search(key, bank=1)
        extra = out_idle.energy.get(EnergyComponent.LEAKAGE) - out_busy.energy.get(
            EnergyComponent.LEAKAGE
        )
        assert extra == pytest.approx(chip.standby_power() * 1e-6, rel=1e-9)
        assert chip.energy_per_search_at_rate(1e3) > chip.energy_per_search_at_rate(1e8)

    @pytest.mark.parametrize("make", BANKS)
    def test_batch_idle_equals_serial_loop(self, make, rng, per_key_search):
        gating = GatingPolicy(gate_idle_banks=True)
        ref = TCAMChip(make, n_banks=3, gating=gating)
        got = TCAMChip(make, n_banks=3, gating=gating)
        keys = [random_word(16, rng, 0.3) for _ in range(7)]
        banks = [0, 2, 2, 1, 0, 1, 2]
        with per_key_search():
            serial = [ref.search(k, b, idle_time=2e-7) for k, b in zip(keys, banks)]
        batch = got.search_batch(keys, banks, idle_time=2e-7)
        assert [o.to_dict() for o in serial] == [o.to_dict() for o in batch]

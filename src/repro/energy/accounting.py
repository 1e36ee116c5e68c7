"""Per-component energy ledger.

Every array operation returns an :class:`EnergyLedger` that attributes each
joule to a named component (``ml_precharge``, ``sl``, ``sa``...).  Ledgers
add, merge and scale; the breakdown benchmark (R-F7) is a direct read-out
of one.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Iterator, Mapping

from ..errors import ReproError


class EnergyComponent(str, enum.Enum):
    """Canonical component names used by the TCAM accounting."""

    ML_PRECHARGE = "ml_precharge"
    ML_DISSIPATION = "ml_dissipation"
    SEARCHLINE = "sl"
    SENSE_AMP = "sa"
    RACE_SOURCE = "race_source"
    PRIORITY_ENCODER = "priority_encoder"
    LEAKAGE = "leakage"
    WRITE = "write"
    CLOCK = "clock"
    REPAIR = "repair"


class EnergyLedger:
    """Additive map from component name to joules.

    Components may be :class:`EnergyComponent` members or free-form strings
    (for ad-hoc experiments); they are normalized to strings internally.

    >>> led = EnergyLedger()
    >>> led.add(EnergyComponent.SEARCHLINE, 1e-15)
    >>> led.add("sl", 2e-15)
    >>> round(led.total * 1e15, 3)
    3.0
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, float] | None = None) -> None:
        self._entries: dict[str, float] = {}
        if entries:
            for name, joules in entries.items():
                self.add(name, joules)

    @staticmethod
    def _key(component: EnergyComponent | str) -> str:
        return component.value if isinstance(component, EnergyComponent) else str(component)

    @classmethod
    def _from_booked(cls, entries: dict[str, float]) -> "EnergyLedger":
        """Adopt ``entries`` as the component map without re-validation.

        Internal fast path for the batch kernels, which assemble thousands
        of single-search ledgers per call: the caller promises the keys are
        canonical component strings in booking order and the values are the
        exact floats the equivalent :meth:`add` sequence would have stored
        (non-negative, finite).  The dict is adopted, not copied.
        """
        led = cls.__new__(cls)
        led._entries = entries
        return led

    def add(self, component: EnergyComponent | str, joules: float) -> None:
        """Accumulate ``joules`` under ``component``.

        Raises:
            ReproError: for negative or non-finite energy.
        """
        if not 0.0 <= joules < math.inf:  # also catches NaN
            raise ReproError(f"energy must be non-negative and finite, got {joules}")
        key = self._key(component)
        self._entries[key] = self._entries.get(key, 0.0) + joules

    def get(self, component: EnergyComponent | str) -> float:
        """Energy booked under ``component`` so far [J] (0.0 if absent)."""
        return self._entries.get(self._key(component), 0.0)

    @property
    def total(self) -> float:
        """Sum over all components [J]."""
        return sum(self._entries.values())

    # -- stable read surface -------------------------------------------------
    # The supported way to consume a ledger (benchmarks, workloads and the
    # trace exporter all go through these); ``_entries`` stays private.

    def components(self) -> tuple[str, ...]:
        """Component names with booked energy, in booking order."""
        return tuple(self._entries)

    def as_dict(self) -> dict[str, float]:
        """Copy of the component map in booking order (cf. sorted
        :meth:`breakdown`)."""
        return dict(self._entries)

    def __iter__(self) -> "Iterator[tuple[str, float]]":
        """Iterate ``(component, joules)`` pairs in booking order."""
        return iter(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def fraction(self, component: EnergyComponent | str) -> float:
        """``component``'s share of the total (0.0 for an empty ledger)."""
        total = self.total
        if total == 0.0:
            return 0.0
        return self.get(component) / total

    def breakdown(self) -> dict[str, float]:
        """Copy of the component map, largest first."""
        return dict(sorted(self._entries.items(), key=lambda kv: -kv[1]))

    def fractions(self) -> dict[str, float]:
        """Breakdown normalized to the total (empty ledger -> empty dict)."""
        total = self.total
        if total == 0.0:
            return {}
        return {k: v / total for k, v in self.breakdown().items()}

    def merge(self, other: "EnergyLedger") -> None:
        """Add every component of ``other`` into this ledger.

        ``other``'s entries were validated and normalized when they were
        booked, so they accumulate directly (the same float sums
        :meth:`add` would form).
        """
        entries = self._entries
        for name, joules in other._entries.items():
            entries[name] = entries.get(name, 0.0) + joules

    def scaled(self, factor: float) -> "EnergyLedger":
        """Return a new ledger with every entry multiplied by ``factor``."""
        if factor < 0.0:
            raise ReproError(f"scale factor must be non-negative, got {factor}")
        return EnergyLedger({k: v * factor for k, v in self._entries.items()})

    def __add__(self, other: "EnergyLedger") -> "EnergyLedger":
        out = EnergyLedger(self._entries)
        out.merge(other)
        return out

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:.3e}" for k, v in self.breakdown().items())
        return f"EnergyLedger({parts})"

    @classmethod
    def sum(cls, ledgers: Iterable["EnergyLedger"]) -> "EnergyLedger":
        """Merge an iterable of ledgers into a fresh one."""
        out = cls()
        for ledger in ledgers:
            out.merge(ledger)
        return out

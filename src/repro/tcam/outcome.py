"""The common read surface of every search outcome.

Four outcome types grew up independently -- :class:`~repro.tcam.array.
SearchOutcome`, :class:`~repro.tcam.bank.SegmentedSearchOutcome`,
:class:`~repro.tcam.chip.ChipSearchOutcome` and :class:`~repro.tcam.
array.NearestMatchOutcome` -- with four incompatible shapes.  They all
answer the same five questions, so :class:`BaseOutcome` names them once:

* ``match_mask`` -- per-row verdicts (``None`` where not modeled),
* ``first_match`` -- winning row index, or ``None``,
* ``energy`` -- the operation's :class:`~repro.energy.accounting.
  EnergyLedger`,
* ``search_delay`` -- key-to-result latency [s],
* ``cycle_time`` -- minimum time before the next operation [s].

Subclasses keep their historical field names (no caller breaks); where a
canonical name is not already a dataclass field they add a delegating
property.  :meth:`BaseOutcome.to_dict` renders the canonical surface
plus each type's extra fields as one JSON-ready dict -- the single
serialization used by the trace exporter and the CLI ``--json`` mode.

A batch of outcomes has a read surface of its own, :class:`BatchColumns`:
per-key first rows, energy totals and cycle times, and the merged
ledger.  :class:`~repro.tcam.batch.SearchBatch` answers it from its
columns without building a per-key outcome; :func:`as_batch` gives any
other outcome list the same methods.
"""

from __future__ import annotations

from typing import Any

from ..energy.accounting import EnergyLedger

#: Version of the serialized outcome format emitted by
#: :meth:`BaseOutcome.to_dict` (and hence every CLI ``--json`` payload
#: and trace export).  Bump on any change to the canonical key set or
#: the meaning of an existing key; see DESIGN.md section 7.
SCHEMA_VERSION = 1


class BaseOutcome:
    """Uniform accessor surface + serializer shared by all outcomes.

    Deliberately field-free: concrete outcome dataclasses own their
    storage, this base only reads it through the canonical names above.
    """

    @property
    def energy_total(self) -> float:
        """Total operation energy [J]."""
        return self.energy.total

    def _extra_dict(self) -> dict[str, Any]:
        """Type-specific fields appended to :meth:`to_dict`."""
        return {}

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict with one canonical shape for every outcome.

        Canonical keys (always present): ``schema_version``, ``type``,
        ``match_mask``, ``first_match``, ``energy`` (component map),
        ``energy_total``, ``search_delay``, ``cycle_time``.
        Type-specific extras follow.  Downstream consumers should
        check ``schema_version`` (currently :data:`SCHEMA_VERSION`)
        before relying on the shape.
        """
        mask = self.match_mask
        out: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "type": type(self).__name__,
            "match_mask": None if mask is None else [bool(m) for m in mask],
            "first_match": None if self.first_match is None else int(self.first_match),
            "energy": self.energy.as_dict(),
            "energy_total": self.energy.total,
            "search_delay": self.search_delay,
            "cycle_time": self.cycle_time,
        }
        out.update(self._extra_dict())
        return out


class BatchColumns:
    """Whole-batch read surface shared by every batch of outcomes.

    These defaults read the outcomes one by one;
    :class:`~repro.tcam.batch.SearchBatch` overrides them with reads of
    its columns that return the same values.
    """

    __slots__ = ()

    def first_rows(self) -> list[int | None]:
        """Each key's winning row as a Python int, or ``None``."""
        return [None if o.first_match is None else int(o.first_match) for o in self]

    def energy_totals(self, extra: float | None = None) -> list[float]:
        """Each key's total energy [J]: builtin ``sum`` over its booked
        values in booking order, then ``extra`` when given.

        That is ``EnergyLedger.total`` of the ledger with ``extra``
        booked last under a component of its own, on every Python
        version: 3.12's ``sum`` compensates rounding, so a total formed
        any other way (a numpy row sum, ``sum(...) + extra``) can differ
        in the last bit.
        """
        tail = () if extra is None else (extra,)
        return [sum((*(j for _, j in o.energy), *tail)) for o in self]

    def cycle_times(self) -> list[float]:
        """Each key's cycle time [s]."""
        return [o.cycle_time for o in self]

    def energy_ledger(self) -> EnergyLedger:
        """The batch's ledgers merged in key order (``EnergyLedger.sum``)."""
        return EnergyLedger.sum(o.energy for o in self)


class OutcomeList(BatchColumns, list):
    """A plain list of outcomes with the :class:`BatchColumns` reads."""


def as_batch(outcomes) -> BatchColumns:
    """``outcomes`` with the :class:`BatchColumns` reads: a
    :class:`~repro.tcam.batch.SearchBatch` as it is, any other sequence
    of outcomes as an :class:`OutcomeList`."""
    return outcomes if isinstance(outcomes, BatchColumns) else OutcomeList(outcomes)

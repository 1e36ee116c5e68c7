"""Tabulated match-line discharge endpoints.

A match line's strobe-time voltage depends only on its mismatch class
``(n_miss, driven_cols)`` and the array's electrical configuration, so
for a fixed configuration the whole class space is a dense
``driven_cols x n_miss`` triangle that can be integrated **once** and
answered by lookup forever after -- the per-action-estimator-over-
tabulated-physics move that makes architecture sweeps cheap.

:class:`WaveformTable` materializes that triangle by rows (one row per
``driven`` value, holding every ``n_miss in [0, driven]`` class).  All
the rows one request is missing integrate together in **one** stacked
RK4 pass: each stage evaluates the composite line current of every
class in one array call
(:func:`~repro.circuits.matchline.composite_current` over the cell's
numpy I-V).  The device model is numpy arithmetic for scalars and arrays
alike, so a tabulated endpoint is bit-for-bit the value
:func:`repro.circuits.rc.discharge_waveform` produces for the class
alone.  The RK4 integrator stays the reference path:
:meth:`WaveformTable.validate` re-integrates tabulated classes one at a
time and checks the relative error against a ``<= 1e-9`` budget (in
practice it is exactly zero), and any class outside the tabulated grid
falls back to RK4 at the engine layer.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from ..circuits.matchline import composite_current
from ..circuits.rc import discharge_waveform, discharge_waveform_batch
from ..errors import KernelError


def as_driven(driven) -> int:
    """``driven`` as a Python ``int``; only integers are accepted.

    Raises:
        KernelError: for anything but a Python or NumPy integer (floats
            and booleans included).
    """
    if isinstance(driven, (bool, np.bool_)) or not isinstance(driven, (int, np.integer)):
        raise KernelError(f"driven must be an integer, got {driven!r}")
    return int(driven)


class WaveformTable:
    """Dense discharge-endpoint table for one sensing configuration.

    One instance captures the electrical knobs of a precharge-style
    match line (capacitance, cell I-V callables, precharge target,
    evaluation window) and tabulates ``v(t_eval)`` for every mismatch
    class on the ``driven x n_miss`` grid.  Rows materialize lazily --
    :meth:`rows` integrates every requested row not built yet in one
    stacked RK4 pass -- or eagerly via :meth:`precompute`.

    Args:
        capacitance: Match-line capacitance [F].
        i_pulldown: Per-cell mismatch pull-down current ``i(v)`` [A],
            elementwise over a voltage array.
        i_leak: Per-cell matched-cell leakage current ``i(v)`` [A],
            elementwise over a voltage array.
        v_start: Precharge target the discharge starts from [V].
        t_eval: Evaluation window (strobe time) [s].
        max_driven: Largest tabulated ``driven_cols``; classes beyond it
            are out-of-grid and must use the RK4 fallback.
        n_steps: RK4 grid points over ``[0, t_eval]`` (the reference
            integrator's 65-point grid by default).
        v_floor: Clamp voltage of the discharge [V].
    """

    def __init__(
        self,
        capacitance: float,
        i_pulldown: Callable[[float], float],
        i_leak: Callable[[float], float],
        v_start: float,
        t_eval: float,
        *,
        max_driven: int,
        n_steps: int = 65,
        v_floor: float = 0.0,
    ) -> None:
        if capacitance <= 0.0:
            raise KernelError(f"capacitance must be positive, got {capacitance}")
        if t_eval <= 0.0:
            raise KernelError(f"t_eval must be positive, got {t_eval}")
        if max_driven < 0:
            raise KernelError(f"max_driven must be >= 0, got {max_driven}")
        if n_steps < 2:
            raise KernelError(f"n_steps must be >= 2, got {n_steps}")
        self.capacitance = capacitance
        self.i_pulldown = i_pulldown
        self.i_leak = i_leak
        self.v_start = v_start
        self.t_eval = t_eval
        self.max_driven = int(max_driven)
        self.n_steps = int(n_steps)
        self.v_floor = v_floor
        self._grid = np.linspace(0.0, t_eval, self.n_steps)
        self._rows: dict[int, np.ndarray] = {}

    # -- grid membership ---------------------------------------------------

    def _check_driven(self, driven) -> int:
        d = as_driven(driven)
        if not 0 <= d <= self.max_driven:
            raise KernelError(
                f"driven {d} outside tabulated grid [0, {self.max_driven}]"
            )
        return d

    def in_grid(self, n_miss: int, driven: int) -> bool:
        """True when the class lies on the tabulated triangle."""
        return 0 <= driven <= self.max_driven and 0 <= n_miss <= driven

    @property
    def rows_built(self) -> int:
        """Number of ``driven`` rows materialized so far."""
        return len(self._rows)

    @property
    def classes_tabulated(self) -> int:
        """Number of ``(n_miss, driven)`` endpoints materialized so far."""
        return sum(row.size for row in self._rows.values())

    # -- construction ------------------------------------------------------

    def rows(self, drivens: Iterable[int]) -> list[np.ndarray]:
        """Endpoint rows ``v_end[n_miss]`` for several ``driven`` values.

        Entry ``i`` has ``drivens[i] + 1`` endpoints (``n_miss = 0 ..
        driven``).  Every requested row not built yet integrates in one
        stacked RK4 pass, whose stages evaluate the composite current of
        all the missing classes in one array call; each endpoint is
        bitwise equal to a standalone scalar RK4 run of its class.
        Returned arrays are read-only and cached.
        """
        ds = [self._check_driven(d) for d in drivens]
        missing = sorted({d for d in ds if d not in self._rows})
        # A fully masked key drives no column: nothing can discharge the
        # line and its endpoint is the precharge target itself.
        if 0 in missing:
            self._store(0, np.array([self.v_start]))
        integrate = [d for d in missing if d]
        if integrate:
            sizes = np.array(integrate) + 1
            starts = np.cumsum(sizes) - sizes
            driven = np.repeat(integrate, sizes)
            n_miss = np.arange(int(sizes.sum())) - np.repeat(starts, sizes)
            n_match = driven - n_miss
            i_pulldown, i_leak = self.i_pulldown, self.i_leak
            v_end = discharge_waveform_batch(
                self.capacitance,
                lambda v: composite_current(v, i_pulldown, i_leak, n_miss, n_match),
                np.full(n_miss.size, self.v_start),
                self._grid,
                self.v_floor,
            )
            for d, row in zip(integrate, np.split(v_end, starts[1:])):
                self._store(d, row)
        return [self._rows[d] for d in ds]

    def _store(self, driven: int, row: np.ndarray) -> None:
        row.setflags(write=False)
        self._rows[driven] = row

    def row(self, driven: int) -> np.ndarray:
        """Endpoint row for one ``driven`` value (``rows([driven])[0]``)."""
        return self.rows([driven])[0]

    def precompute(self, drivens: "range | list[int] | None" = None) -> None:
        """Materialize rows eagerly (all of them by default), in one pass."""
        if drivens is None:
            drivens = range(self.max_driven + 1)
        self.rows(drivens)

    # -- queries -----------------------------------------------------------

    def v_end(self, n_miss: int, driven: int) -> float:
        """Tabulated endpoint of one integer mismatch class [V]."""
        if not self.in_grid(n_miss, driven):
            raise KernelError(
                f"class (n_miss={n_miss}, driven={driven}) outside the "
                f"tabulated grid (max_driven={self.max_driven}); use the "
                f"RK4 fallback"
            )
        return float(self.row(driven)[n_miss])

    # -- validation --------------------------------------------------------

    def validate(
        self,
        rtol: float = 1e-9,
        drivens: "list[int] | None" = None,
    ) -> float:
        """Check tabulated endpoints against the scalar RK4 reference.

        Every requested class (all materialized rows by default; rows
        are materialized on demand when ``drivens`` is given) is
        re-integrated with :func:`~repro.circuits.rc.discharge_waveform`
        and compared.  Returns the worst relative error and raises when
        it exceeds ``rtol``.

        The table is built through the stacked integrator and the numpy
        device model, both elementwise identical to a lone scalar class,
        so the expected error is exactly 0.0; a
        nonzero value indicates the two integration paths diverged and
        the ``<= 1e-9`` budget bounds how far the sensing decisions
        could drift before this check fails the build.
        """
        if drivens is None:
            if not self._rows:
                self.precompute()
            drivens = sorted(self._rows)
        worst = 0.0
        i_pulldown, i_leak = self.i_pulldown, self.i_leak
        for d, row in zip(drivens, self.rows(drivens)):
            for n_miss in range(int(d) + 1):
                reference = float(
                    discharge_waveform(
                        self.capacitance,
                        lambda v, m=n_miss: composite_current(
                            v, i_pulldown, i_leak, m, d - m
                        ),
                        self.v_start,
                        self._grid,
                        self.v_floor,
                    )[-1]
                )
                got = float(row[n_miss])
                denom = max(abs(reference), 1e-30)
                err = abs(got - reference) / denom
                worst = max(worst, err)
        if worst > rtol:
            raise KernelError(
                f"waveform table diverged from the RK4 reference: worst "
                f"relative error {worst:.3e} exceeds rtol {rtol:.1e}"
            )
        return worst

"""The named TCAM design registry.

Five designs span the comparison space of the paper:

======================= =====================================================
``cmos16t``             16T CMOS NOR TCAM, full-swing precharge (baseline A)
``reram2t2r``           2T-2R ReRAM TCAM, full-swing precharge (baseline B)
``fefet2t``             2-FeFET TCAM, full-swing precharge (FeTCAM substrate)
``fefet2t_lv``          Design LV: 2-FeFET cell + clamped low-swing match
                        line; energy scales linearly instead of
                        quadratically with the ML swing
``fefet_cr``            Design CR: 2-FeFET cell + precharge-free
                        current-race sensing; miss-dominated traffic pays
                        only the (small) race-source burn
======================= =====================================================

A :class:`DesignSpec` is declarative; :func:`build_array` turns one into a
live :class:`~repro.tcam.array.TCAMArray` for a given geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits.precharge import ClampedPrecharge
from ..errors import DesignError
from ..tcam.array import ArrayGeometry, TCAMArray
from ..tcam.cell import CellDescriptor
from ..tcam.cells import get_cell

DEFAULT_LV_SWING = 0.55
"""Default clamped ML swing of Design LV [V].

Chosen so the nominal sense margin keeps a >= 6 sigma guardband against the
literature variation corner; benchmark R-F5 sweeps this knob and
:func:`repro.core.ml_voltage.minimum_ml_voltage` solves for its floor.
"""


@dataclass(frozen=True)
class DesignSpec:
    """Declarative description of one TCAM design.

    Attributes:
        name: Registry key.
        display_name: Human-readable label for tables.
        cell_name: Registry key of the design's cell in
            :mod:`repro.tcam.cells`.
        sensing: ``"precharge"``, ``"current_race"`` or ``"nand"``.
        ml_swing: Absolute match-line swing [V] for precharge sensing;
            ``None`` means full VDD.
        is_proposed: True for the paper's energy-aware designs.
        description: One-line summary for reports.
    """

    name: str
    display_name: str
    cell_name: str
    sensing: str
    ml_swing: float | None
    is_proposed: bool
    description: str

    def build_cell(self, vdd: float | None = None) -> CellDescriptor:
        """Instantiate a fresh cell descriptor from the cell registry.

        Args:
            vdd: Array supply [V].  CMOS and ReRAM compare gates ride the
                array supply, so their cells are re-characterized at it;
                the FeFET cell's search gates run from a separate
                (boosted) search-line supply and ignore it.
        """
        return get_cell(self.cell_name, vdd=vdd)


_REGISTRY: dict[str, DesignSpec] = {}


def _register(spec: DesignSpec) -> DesignSpec:
    if spec.name in _REGISTRY:
        raise DesignError(f"duplicate design name {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


CMOS_16T = _register(
    DesignSpec(
        name="cmos16t",
        display_name="CMOS 16T",
        cell_name="cmos16t",
        sensing="precharge",
        ml_swing=None,
        is_proposed=False,
        description="Conventional 16T NOR TCAM, full-swing ML precharge.",
    )
)

RERAM_2T2R = _register(
    DesignSpec(
        name="reram2t2r",
        display_name="ReRAM 2T-2R",
        cell_name="reram2t2r",
        sensing="precharge",
        ml_swing=None,
        is_proposed=False,
        description="Resistive 2T-2R TCAM, full-swing ML precharge.",
    )
)

FEFET_2T = _register(
    DesignSpec(
        name="fefet2t",
        display_name="FeFET 2T",
        cell_name="fefet2t",
        sensing="precharge",
        ml_swing=None,
        is_proposed=False,
        description="2-FeFET TCAM substrate, full-swing ML precharge.",
    )
)

FEFET_2T_LV = _register(
    DesignSpec(
        name="fefet2t_lv",
        display_name="FeFET 2T + LV (proposed)",
        cell_name="fefet2t",
        sensing="precharge",
        ml_swing=DEFAULT_LV_SWING,
        is_proposed=True,
        description="Design LV: clamped low-swing match line on the 2-FeFET cell.",
    )
)

FEFET_CR = _register(
    DesignSpec(
        name="fefet_cr",
        display_name="FeFET 2T + CR (proposed)",
        cell_name="fefet2t",
        sensing="current_race",
        ml_swing=None,
        is_proposed=True,
        description="Design CR: precharge-free current-race sensing on the 2-FeFET cell.",
    )
)

FEFET_NAND = _register(
    DesignSpec(
        name="fefet_nand",
        display_name="FeFET NAND (extension)",
        cell_name="fefet2t",
        sensing="nand",
        ml_swing=None,
        is_proposed=True,
        description=(
            "Extension: series (NAND) FeFET TCAM -- only matching words "
            "discharge, at a quadratic string-delay cost."
        ),
    )
)

DESIGN_NAMES = tuple(_REGISTRY)
"""Registry keys in registration (presentation) order."""


def get_design(name: str) -> DesignSpec:
    """Look up a design by registry key.

    Raises:
        DesignError: for unknown names (message lists the valid keys).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DesignError(
            f"unknown design {name!r}; valid designs: {', '.join(DESIGN_NAMES)}"
        ) from None


def all_designs() -> tuple[DesignSpec, ...]:
    """Every registered design, baselines first."""
    return tuple(_REGISTRY.values())


def build_array(
    spec: DesignSpec,
    geometry: ArrayGeometry,
    *,
    vdd: float | None = None,
    ml_swing: float | None = None,
) -> TCAMArray:
    """Instantiate a live array for a design.

    The array derives its own sensing chain (full-swing precharge, an SA
    at half the precharge target, a race amp at the supply); a design
    only adds its clamped precharge when it sets an ML swing.

    Args:
        spec: The design to build.
        geometry: Array shape.
        vdd: Supply override [V].
        ml_swing: ML swing override for precharge designs [V]; defaults to
            the spec's value (or full VDD when the spec has none).

    Raises:
        DesignError: when an ML swing is supplied for a current-race design.
    """
    supply = vdd if vdd is not None else geometry.node.vdd_nominal

    if spec.sensing == "nand":
        if ml_swing is not None:
            raise DesignError("the NAND design has no ML swing to set")
        from ..tcam.nand_array import NANDTCAMArray

        return NANDTCAMArray(geometry, vdd=supply)

    if spec.sensing == "current_race" and ml_swing is not None:
        raise DesignError("current-race designs have no ML swing to set")
    swing = ml_swing if ml_swing is not None else spec.ml_swing
    if swing is not None and not 0.0 < swing <= supply:
        raise DesignError(f"ML swing {swing} V outside (0, vdd={supply}] V")
    return TCAMArray(
        spec.build_cell(vdd=supply),
        geometry,
        sensing=spec.sensing,
        vdd=supply,
        precharge=None if swing is None else ClampedPrecharge(vdd=supply, v_target=swing),
    )

"""Lambda-rule area estimates.

Cell areas are carried in F^2 (squared minimum feature sizes), the unit the
TCAM literature uses for technology-independent comparison.  Physical
dimensions (needed for wire lengths) come from a :class:`TechNode`.
Cells are assumed to lay out with a 2:1 width:height aspect ratio, typical
for NOR TCAM cells whose match line runs along the word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import TCAMError
from ..units import NANO


@dataclass(frozen=True)
class TechNode:
    """A manufacturing node.

    Attributes:
        name: Label ("45nm").
        feature_size: Minimum feature F [m].
        vdd_nominal: Nominal supply [V].
    """

    name: str
    feature_size: float
    vdd_nominal: float

    def __post_init__(self) -> None:
        if self.feature_size <= 0.0:
            raise TCAMError(f"feature size must be positive, got {self.feature_size}")
        if self.vdd_nominal <= 0.0:
            raise TCAMError(f"vdd must be positive, got {self.vdd_nominal}")

    def area_m2(self, area_f2: float) -> float:
        """Convert an F^2 area to square metres."""
        if area_f2 <= 0.0:
            raise TCAMError(f"area must be positive, got {area_f2}")
        return area_f2 * self.feature_size**2


TECH_45NM = TechNode(name="45nm", feature_size=45 * NANO, vdd_nominal=0.9)
"""Default node for every design in the comparison."""

_ASPECT_W_OVER_H = 2.0


def cell_dimensions(area_f2: float, node: TechNode) -> tuple[float, float]:
    """Physical (width, height) [m] of a cell with a 2:1 aspect ratio.

    Width is the dimension along the match line (one cell pitch of ML wire);
    height is along the search lines.

    >>> w, h = cell_dimensions(100.0, TECH_45NM)
    >>> round(w / h, 2)
    2.0
    """
    area = node.area_m2(area_f2)
    height = math.sqrt(area / _ASPECT_W_OVER_H)
    width = _ASPECT_W_OVER_H * height
    return width, height

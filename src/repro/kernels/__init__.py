"""Compiled search kernels: tabulated waveforms + SoA batch state.

The hot path of every energy/delay figure is the match-line discharge.
This package compiles it: :class:`WaveformTable` tabulates the RK4
discharge endpoints over the dense mismatch-class grid once per
electrical configuration, :class:`SoAState` re-expresses the stored
trits as contiguous planes so batch mismatch counting is one matmul,
and :class:`KernelEngine` stitches both into flat per-class sensing
tables the vectorized ``TCAMArray.search_batch`` path gathers from.
Every batch tail adds its per-key energies up the same way: a dense
``(keys, classes)`` term matrix reduced by :func:`class_sums`, a
strictly left-to-right ``np.cumsum`` whose zero-count classes add
exactly ``0.0`` -- bit for bit the scalar path's per-class
``ledger.add`` loop.

Every ``TCAMArray`` builds its engine on first use (``array.kernel``)
and answers all four ``*_batch`` operations from it; the scalar
per-key operations and the RK4 integrator remain the reference path --
tables validate against it to ``<= 1e-9`` relative error and
out-of-grid classes automatically fall back to it.  See DESIGN.md §11.
"""

from .engine import KernelEngine, PrechargeClassRow, RaceClassRow, class_sums
from .soa import SoAState
from .waveform import WaveformTable

__all__ = [
    "KernelEngine",
    "PrechargeClassRow",
    "RaceClassRow",
    "SoAState",
    "WaveformTable",
    "class_sums",
]

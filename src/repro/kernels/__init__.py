"""Compiled search kernels: per-class sensing tables + SoA batch state.

The hot path of every energy/delay figure is the match-line discharge.
This package compiles it: :class:`KernelEngine` tabulates the sensing
results of every mismatch class ``(n_miss, driven)`` of an array's
width once per electrical configuration into dense ``[driven, n_miss]``
planes -- precharge endpoints in one stacked RK4 pass through the
array's own class integrator -- and
:class:`SoAState` re-expresses the stored trits as contiguous planes so
batch mismatch counting is one matmul; the vectorized
``TCAMArray.search_batch`` path indexes both.  Every batch tail
adds its per-key energies up the same way: a dense ``(keys, classes)``
term matrix reduced by :func:`class_sums`, a strictly left-to-right
``np.cumsum`` whose zero-count classes add exactly ``0.0`` -- bit for
bit the scalar path's per-class ``ledger.add`` loop.

Every ``TCAMArray`` builds its engine on first use (``array.kernel``)
and answers all four search operations from it; the per-key bodies of
:mod:`repro.tcam.reference` and the scalar RK4 integrator remain the
test oracle -- :meth:`KernelEngine.validate` checks the tables against
it to ``<= 1e-9`` relative error.  See DESIGN.md §11.
"""

from .engine import KernelEngine, class_sums
from .soa import SoAState

__all__ = ["KernelEngine", "SoAState", "class_sums"]

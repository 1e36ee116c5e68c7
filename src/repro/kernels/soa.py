"""Structure-of-arrays snapshot of a TCAM array's stored state.

The array keeps the stored trits as one ``(rows, cols)`` int8 matrix,
and the per-key reference counts mismatches with a broadcast compare
over it (``mismatch_counts_batch`` does the same over a
``(n_keys, rows, cols)`` boolean cube).  The kernel path re-expresses the
same content as two float32 *trit planes* -- ``plane0[r, c] = 1``
where row ``r`` stores a 0, ``plane1`` likewise for stored 1s --
stacked into one ``(2*cols, rows)`` matrix, so the whole batch's
mismatch counts collapse into one matmul:

``miss = [K1 | K0] @ [plane0.T ; plane1.T]``

where ``K1``/``K0`` are the key batch's "drives 1"/"drives 0" indicator
planes.  Every product term is 0 or 1 and every partial sum is an
integer bounded by ``cols``, so float32 BLAS accumulates the counts
*exactly* (all intermediates are integers below 2**24) in any summation
order -- the result is bit-identical to the broadcast count.

With a non-empty fault map attached, the snapshot also carries
:class:`FaultPlanes`: the same kind of integer-exact planes over the
content the faulted hardware compares against, so the fault-aware batch
path (:meth:`TCAMArray._search_batch_faulty_kernel`) gets every per-row
pull-down count from one matmul as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError

# Trit encoding (see repro.tcam.trit): 0 -> 0, 1 -> 1, X -> 2.
_X = 2

# FaultKind codes (see repro.faults.faultmap), kept local so the kernel
# package does not import the fault layer.
_STUCK_MATCH = 1
_STUCK_MISS = 2
_RETENTION = 4


def _stacked(zero: np.ndarray, one: np.ndarray) -> np.ndarray:
    """``(2*cols, rows)`` float32 stack of two ``(rows, cols)`` indicators.

    The top half pairs with a key's "drives 1" columns, the bottom half
    with its "drives 0" columns (see :func:`key_planes`).
    """
    return np.vstack([zero.T, one.T]).astype(np.float32)


def key_planes(packed: np.ndarray) -> np.ndarray:
    """``(n_keys, 2*cols)`` float32 "drives 1" | "drives 0" indicators."""
    cols = packed.shape[1]
    kd = np.empty((packed.shape[0], 2 * cols), dtype=np.float32)
    np.equal(packed, 1, out=kd[:, :cols], casting="unsafe")
    np.equal(packed, 0, out=kd[:, cols:], casting="unsafe")
    return kd


@dataclass
class FaultPlanes:
    """Fault-injected compare planes for one (content, fault-map) version.

    ``counts`` returns, per key, three ``(rows,)`` integer vectors from
    one float32 matmul against :attr:`weights` (every partial sum is an
    integer ``<= cols``, so the counts are exact):

    * ``n_pull`` -- intact pull-downs: mismatches against the *compare*
      content (the effective content with ``STUCK_MATCH`` and
      ``STUCK_MISS`` cells acting as X) plus driven ``STUCK_MISS``
      cells.  A pull-down plane is the compare plane OR the stuck-miss
      indicator, since a stuck-miss cell never mismatches as X;
    * ``miss_eff`` -- mismatches against the effective content (the
      hardware histogram);
    * ``miss`` -- mismatches against the intended content (the
      functional-error oracle).

    Retention cells are few, so they are kept as flat row-major lists:
    a retention cell is a weak pull-down for a key exactly when the key
    drives the complement of its compare trit.

    Attributes:
        version: The fault map's version counter at build time.
        weights: ``(2*cols, 3*rows)`` float32 ``[pull | effective |
            intended]`` planes.
        dead: ``(rows,)`` bool dead-row mask.
        sa_offset: ``(rows,)`` float64 sense-amp offsets [V].
        ret_row: Row of each retention cell (row-major order).
        ret_col: Column of each retention cell.
        ret_value: Vt shift of each retention cell [V].
        ret_target: Key trit that makes the cell pull down (``-1`` when
            its compare trit is X, i.e. never).
    """

    version: int
    weights: np.ndarray
    dead: np.ndarray
    sa_offset: np.ndarray
    ret_row: np.ndarray
    ret_col: np.ndarray
    ret_value: np.ndarray
    ret_target: np.ndarray

    @classmethod
    def from_fault_map(cls, stored: np.ndarray, faults) -> "FaultPlanes":
        """Fold ``faults`` into planes over the intended content ``stored``."""
        kind = faults.kind
        eff = faults.effective_stored(stored)
        stuck_miss = kind == _STUCK_MISS
        compare = np.where((kind == _STUCK_MATCH) | stuck_miss, _X, eff)
        weights = np.hstack(
            [
                _stacked((compare == 0) | stuck_miss, (compare == 1) | stuck_miss),
                _stacked(eff == 0, eff == 1),
                _stacked(stored == 0, stored == 1),
            ]
        )
        ret_row, ret_col = np.nonzero(kind == _RETENTION)
        ret_cmp = compare[ret_row, ret_col].astype(np.int64)
        return cls(
            version=faults.version,
            weights=np.ascontiguousarray(weights),
            dead=faults.dead_rows.copy(),
            sa_offset=np.asarray(faults.sa_offset, dtype=np.float64).copy(),
            ret_row=ret_row,
            ret_col=ret_col,
            ret_value=faults.value[ret_row, ret_col].astype(np.float64),
            ret_target=np.where(ret_cmp == _X, -1, 1 - ret_cmp),
        )

    def counts(
        self, kd: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(n_pull, miss_eff, miss)``, each ``(n_keys, rows)`` int64."""
        rows = self.dead.size
        out = (kd @ self.weights).astype(np.int64)
        return out[:, :rows], out[:, rows : 2 * rows], out[:, 2 * rows :]

    def weak_cells(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(key, retention-cell)`` index pairs of every weak pull-down.

        Pairs come key-major, then in the row-major cell order, so one
        key's weak cells on one row are contiguous and in column order.
        """
        hit = packed[:, self.ret_col] == self.ret_target[np.newaxis, :]
        return np.nonzero(hit)


@dataclass
class SoAState:
    """Planes + per-row vectors derived from one array content version.

    Attributes:
        version: The array content version this snapshot was built from;
            the array rebuilds the snapshot when its counter moves (every
            write, invalidate and fault-map change moves it).
        planes: ``(2*cols, rows)`` float32 stack of the two trit planes:
            1.0 where the row stores 0 (top half) or 1 (bottom half).
        valid: ``(rows,)`` bool copy of the valid bits.
        faults: :class:`FaultPlanes` of the attached non-empty fault map,
            or ``None`` for a nominal array.
    """

    version: int
    planes: np.ndarray
    valid: np.ndarray
    faults: FaultPlanes | None = None

    @classmethod
    def from_array(cls, array, version: int, faults=None) -> "SoAState":
        """Snapshot ``array``'s stored content (and ``faults``, if given)."""
        stored = array._stored
        if array.geometry.cols >= 2**24:
            # float32 accumulation is only exact while every partial sum
            # (bounded by cols) stays an exact float32 integer.
            raise KernelError("SoA matmul counts require cols < 2**24")
        return cls(
            version=version,
            planes=_stacked(stored == 0, stored == 1),
            valid=array._valid.copy(),
            faults=None if faults is None else FaultPlanes.from_fault_map(stored, faults),
        )

    def mismatch_counts(self, packed: np.ndarray) -> np.ndarray:
        """Matmul mismatch counts for a stacked key batch.

        Args:
            packed: ``(n_keys, cols)`` int8 key matrix (trit codes).

        Returns:
            ``(n_keys, rows)`` int64 counts, bit-identical to
            :func:`repro.tcam.trit.mismatch_counts_batch` on the
            snapshot's content.
        """
        packed = np.asarray(packed)
        if packed.ndim != 2 or 2 * packed.shape[1] != self.planes.shape[0]:
            raise KernelError(
                f"key batch shape {packed.shape} does not match stacked plane shape "
                f"{self.planes.shape}"
            )
        # A driven-1 column mismatches stored 0s; a driven-0 column
        # mismatches stored 1s; X on either side never mismatches.  Both
        # products run as ONE matmul over vertically stacked planes: every
        # partial sum is still an exact integer below 2**24, so float32
        # accumulation order cannot change the (integer) result.
        miss = key_planes(packed) @ self.planes
        return miss.astype(np.int64)

"""Adaptive box quadrature with a defensible error bound.

Cell rule: tensor-product Simpson on the 3^d lattice.  Cell error charge:
cell volume times the Y-norm of the per-component lattice range.  The range
charge dominates the true error for the integrand classes this package
feeds it (piecewise-constant jumps land between lattice points of some cell
straddler, monotone singular tails have their range attained at lattice
corners, smooth entries are far below the charge), which is what makes the
oracle-agreement tests meaningful rather than circular.

The engine is deliberately independent of the exact-integral oracles in
corpus: it only ever touches eval_batch.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from .errors import ToleranceUnreachable
from .geometry import NormKind, norm_batch

_POP_ROUND = 256


def _lattice_offsets(dim: int) -> np.ndarray:
    # 3^d lattice in barycentric steps {0, 0.5, 1} per axis
    return np.array(list(itertools.product((0.0, 0.5, 1.0), repeat=dim)))


def _simpson_weights(dim: int) -> np.ndarray:
    w1 = np.array([1.0, 4.0, 1.0]) / 6.0
    w = np.ones(1)
    for _ in range(dim):
        w = np.outer(w, w1).ravel()
    return w


def adaptive_box_quadrature(eval_batch, lo, hi, m: int, tol: float,
                            y_norm=None, max_cells: int = 200_000,
                            strict: bool = True):
    """Integrate a vector map over a box; returns (value (m,), error bound).

    eval_batch maps an (N, d) point array to an (N, m) value array.  The
    returned bound is the sum of per-cell range charges in the Y-norm
    (Euclidean unless y_norm says otherwise).  With strict=False, running
    out of cell budget returns the looser certified enclosure instead of
    raising.
    """
    if y_norm is None:
        y_norm = NormKind.TWO
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    dim = len(lo)
    offsets = _lattice_offsets(dim)
    weights = _simpson_weights(dim)
    npt = len(offsets)

    def assess(los: np.ndarray, his: np.ndarray):
        """Simpson values and range charges for a stack of boxes."""
        k = len(los)
        pts = (los[:, None, :] + offsets[None, :, :] * (his - los)[:, None, :])
        vals = np.asarray(eval_batch(pts.reshape(k * npt, dim)), dtype=float)
        vals = vals.reshape(k, npt, m)
        vols = np.prod(his - los, axis=1)
        cell_vals = (weights[None, :, None] * vals).sum(axis=1) * vols[:, None]
        rng = vals.max(axis=1) - vals.min(axis=1)
        charges = norm_batch(rng, y_norm) * vols
        return cell_vals, charges

    total_val = np.zeros(m)
    heap: list = []
    counter = 0

    vals, charges = assess(lo[None, :], hi[None, :])
    total_val += vals[0]
    total_err = float(charges[0])
    if total_err > tol:
        heapq.heappush(heap, (-charges[0], 0, lo, hi, vals[0]))
        counter = 1
    cells = 1

    while total_err > tol and heap:
        if cells > max_cells:
            if strict:
                raise ToleranceUnreachable(
                    f"quadrature budget exhausted at error {total_err:.3e} "
                    f"(target {tol:.3e})")
            break
        los_new = []
        his_new = []
        for _ in range(min(_POP_ROUND, len(heap))):
            charge, _, blo, bhi, bval = heapq.heappop(heap)
            total_err -= -charge
            total_val -= bval
            mid = 0.5 * (blo + bhi)
            for corner in itertools.product((0, 1), repeat=dim):
                clo = np.where(np.array(corner) == 0, blo, mid)
                chi = np.where(np.array(corner) == 0, mid, bhi)
                los_new.append(clo)
                his_new.append(chi)
        los_new = np.array(los_new)
        his_new = np.array(his_new)
        vals, charges = assess(los_new, his_new)
        total_val += vals.sum(axis=0)
        for i in range(len(los_new)):
            c = float(charges[i])
            total_err += c
            if c > 1e-300:
                heapq.heappush(heap, (-c, counter, los_new[i], his_new[i], vals[i]))
                counter += 1
        cells += len(los_new)

    return total_val, float(total_err)

"""Adaptive box quadrature with a range-based error bound.

Cell rule: tensor-product Simpson on the 3^d lattice.  Cell error charge:
cell volume times the Y-norm of the per-component range of the values
sampled on that lattice.  The charge bounds the true error only where the
sampled range is the true range.  That holds for the current corpus
(piecewise-constant jumps land between lattice points of some straddling
cell, monotone singular tails attain their range at lattice corners, smooth
entries sit far below the charge) but not for an arbitrary integrand, so
the bound is an enclosure for the corpus only, not a proof in general.

Refinement rule: each round splits the _POP_ROUND cells with the largest
charges into their 2^d halves, ties going to the oldest cell.  A cell whose
charge is at most 1e-300 is set aside and never split.  The bound is the
correctly rounded sum (math.fsum) of the charges of all current cells;
refinement stops once it is within tol, or, before a round, once more than
max_cells cells have been assessed.

The engine is deliberately independent of the exact-integral oracles in
corpus: it only ever touches eval_batch.
"""

from __future__ import annotations

import itertools
import math

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
    out of cell budget returns the looser bound instead of raising.
    """
    if y_norm is None:
        y_norm = NormKind.TWO
    lo = np.asarray(lo, dtype=float)[None, :]
    hi = np.asarray(hi, dtype=float)[None, :]
    dim = lo.shape[1]
    offsets = _lattice_offsets(dim)
    weights = _simpson_weights(dim)
    npt = len(offsets)
    # child c of a cell takes the upper half on the axes where upper[c] is set
    upper = np.array(list(itertools.product((False, True), repeat=dim)))

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

    # the pool holds the splittable cells in creation order; set-aside cells
    # keep only their value sum and their nonzero charges
    val, charge = assess(lo, hi)
    set_val = np.zeros(m)
    set_err: list[float] = []
    cells = 1
    while (err := math.fsum(charge.tolist() + set_err)) > tol and len(charge):
        if cells > max_cells:
            if strict:
                raise ToleranceUnreachable(
                    f"quadrature budget exhausted at error {err:.3e} "
                    f"(target {tol:.3e})")
            break
        order = np.argsort(-charge, kind="stable")
        pick, rest = order[:_POP_ROUND], np.sort(order[_POP_ROUND:])
        plo, phi = lo[pick][:, None], hi[pick][:, None]
        mid = 0.5 * (plo + phi)
        clo = np.where(upper, mid, plo).reshape(-1, dim)
        chi = np.where(upper, phi, mid).reshape(-1, dim)
        cval, cchg = assess(clo, chi)
        cells += len(clo)
        keep = cchg > 1e-300
        set_val += cval[~keep].sum(axis=0)
        tiny = cchg[~keep]
        set_err += tiny[tiny != 0].tolist()
        lo = np.concatenate([lo[rest], clo[keep]])
        hi = np.concatenate([hi[rest], chi[keep]])
        val = np.concatenate([val[rest], cval[keep]])
        charge = np.concatenate([charge[rest], cchg[keep]])

    return set_val + val.sum(axis=0), err

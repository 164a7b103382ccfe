"""Compact continuity sets: the Lusin step of the paper for piecewise
constant integrands.

lusin_compact_set shrinks each constant piece of the integrand inward until
the omitted measure is below eps; the shrunken pieces are closed boxes on
which f is constant, and pieces with different values sit a certified
distance apart.  The pieces are (k, d) corner arrays until the result is
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusFunction
from .errors import NotPiecewise
from .geometry import Box, bisect_last
from .measure import RadonMeasure, measure_box, measure_box_batch


@dataclass(frozen=True)
class CompactContinuitySet:
    pieces: tuple[Box, ...]
    separation: float
    omitted_measure: float
    piece_values: tuple = field(default=())

    def __post_init__(self):
        if self.omitted_measure < 0:
            raise ValueError("omitted measure must be nonnegative")
        if not self.separation > 0:
            raise ValueError("separation certificate must be positive")


def lusin_compact_set(f: CorpusFunction, omega: Box, eps: float,
                      mu: RadonMeasure) -> CompactContinuitySet:
    """Closed piece-interior boxes missing less than eps of omega, on which
    f is continuous with a positive separation certificate.

    The shrink margin is bisected so the omitted measure lands at eps / 2,
    keeping the strict < eps claim safely away from float noise.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    structure = f.piece_structure()
    if structure is None:
        raise NotPiecewise(f"{f.name} declares no piece structure")
    # the pieces clipped to omega, keeping those of positive volume
    lo, hi, vals = structure
    lo, hi = np.maximum(lo, omega.lo), np.minimum(hi, omega.hi)
    meet = np.clip(hi - lo, 0.0, None).prod(axis=1) > 0
    lo, hi, vals = lo[meet], hi[meet], vals[meet]
    omega_mass = measure_box(mu, omega)
    target = 0.5 * eps

    def shrink(t: float):
        """Every face not on the boundary of omega pulled inward by t, and
        which pieces keep a positive width on every axis."""
        a = np.where(lo > omega.lo, lo + t, lo)
        b = np.where(hi < omega.hi, hi - t, hi)
        return a, b, np.all(a < b, axis=1)

    def omitted(t: float) -> float:
        a, b, kept = shrink(t)
        # piece by piece in order, so the margin keeps its bits
        return omega_mass - sum(
            measure_box_batch(mu, a[kept], b[kept]).tolist(), 0.0)

    t = bisect_last(lambda t: omitted(t) <= target, 0.0,
                    0.5 * float((hi - lo).min()), 60)
    a, b, kept = shrink(t)
    a, b, vals = a[kept], b[kept], vals[kept]
    om = omitted(t)
    if not len(a):
        raise NotPiecewise("every piece collapsed; eps too demanding for the grid")
    # the sup-norm gap of every pair of pieces whose values differ
    differ = (vals[:, None] != vals[None, :]).any(axis=2)
    gaps = np.maximum(a[None, :] - b[:, None], a[:, None] - b[None, :]).max(axis=2)
    sep = float(np.maximum(gaps[differ], 0.0).min(initial=math.inf))
    if sep <= 0:
        # same-valued pieces may touch; a zero gap only matters for
        # different values, and t > 0 forces those apart
        sep = 2.0 * t if t > 0 else math.inf
    return CompactContinuitySet(
        pieces=tuple(Box(tuple(p), tuple(q))
                     for p, q in zip(a.tolist(), b.tolist())),
        separation=sep,
        omitted_measure=max(om, 0.0),
        piece_values=tuple(vals),
    )

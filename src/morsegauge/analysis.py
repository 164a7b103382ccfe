"""Compact continuity sets: the Lusin step of the paper for piecewise
constant integrands.

lusin_compact_set shrinks each constant piece of the integrand inward until
the omitted measure is below eps; the shrunken pieces are closed boxes on
which f is constant, and pieces with different values sit a certified
distance apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusFunction
from .errors import NotPiecewise
from .geometry import Box, bisect_last
from .measure import RadonMeasure, measure_box


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


def _shrink_pieces(pieces, omega: Box, t: float):
    """Pull every face that does not lie on the boundary of omega inward
    by t; drop pieces that collapse."""
    out = []
    for box, val in pieces:
        lo = []
        hi = []
        dead = False
        for k in range(omega.dim):
            a, b = box.lo[k], box.hi[k]
            a2 = a + t if a > omega.lo[k] else a
            b2 = b - t if b < omega.hi[k] else b
            if a2 >= b2:
                dead = True
                break
            lo.append(a2)
            hi.append(b2)
        if not dead:
            out.append((Box(tuple(lo), tuple(hi)), val))
    return out


def _pieces_separation(shrunk, ynorm) -> float:
    sep = math.inf
    for i in range(len(shrunk)):
        for j in range(i + 1, len(shrunk)):
            (ba, va), (bb, vb) = shrunk[i], shrunk[j]
            if ynorm(np.asarray(va) - np.asarray(vb)) == 0.0:
                continue
            gaps = [max(bb.lo[k] - ba.hi[k], ba.lo[k] - bb.hi[k], 0.0)
                    for k in range(ba.dim)]
            sep = min(sep, max(gaps))
    return sep


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
    pieces = []
    for box, val in structure:
        inter = box.intersect(omega)
        if inter is not None and inter.volume() > 0:
            pieces.append((inter, val))
    omega_mass = measure_box(mu, omega)
    target = 0.5 * eps

    def omitted(t: float) -> float:
        kept = _shrink_pieces(pieces, omega, t)
        return omega_mass - sum(measure_box(mu, b) for b, _ in kept)

    t = bisect_last(lambda t: omitted(t) <= target, 0.0,
                    0.5 * min(b - a for box, _ in pieces
                              for a, b in zip(box.lo, box.hi)), 60)
    shrunk = _shrink_pieces(pieces, omega, t)
    om = omitted(t)
    sep = _pieces_separation(shrunk, f.ynorm)
    if not shrunk:
        raise NotPiecewise("every piece collapsed; eps too demanding for the grid")
    if sep <= 0:
        # same-valued pieces may touch; a zero gap only matters for
        # different values, and t > 0 forces those apart
        sep = 2.0 * t if t > 0 else math.inf
    return CompactContinuitySet(
        pieces=tuple(b for b, _ in shrunk),
        separation=sep,
        omitted_measure=max(om, 0.0),
        piece_values=tuple(np.asarray(v, dtype=float) for _, v in shrunk),
    )

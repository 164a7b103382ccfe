"""Density-weighted volume on a bounded universe box.

The measure is Lebesgue measure weighted by a nonnegative piecewise-constant
density on a dyadic grid of the universe.  The command line measures
against the uniform unit density.  The verifiers, the gauge and the Lusin
step take any uniform density and refuse a graded one through w0, since
their certificates bound Lebesgue means.  A graded grid (from_grid) reaches
only the scalar box masses, which run in rational arithmetic so that
additivity over dyadic splits holds with zero error; the batch path, plain
float for the hot loops, takes uniform densities only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import OutOfUniverse, PreconditionUncertified
from .geometry import Box


class RadonMeasure:
    """Nonnegative density on a dyadic grid over a universe box.

    values has shape (2^level,) * dim in C order; cell (i_0, ..., i_{d-1})
    covers the product of [lo_k + i_k * step_k, lo_k + (i_k + 1) * step_k].
    w0 is a uniform grid's density; reading it on a graded grid raises
    PreconditionUncertified, which is how every uniform-only step refuses one.
    """

    def __init__(self, universe: Box, level: int, values: np.ndarray):
        if level < 0:
            raise ValueError("grid level must be >= 0")
        side = 2 ** level
        values = np.asarray(values, dtype=float).reshape((side,) * universe.dim)
        if values.min() < 0:
            raise ValueError("density must be nonnegative")
        if not np.isfinite(values).all():
            raise ValueError("density must be finite")
        self.universe = universe
        self.level = level
        self.values = values
        self.values.setflags(write=False)
        self.uniform = bool(values.max() == values.min())
        self._w0 = float(values.flat[0])
        self.total = measure_box(self, universe)

    @property
    def w0(self) -> float:
        if not self.uniform:
            raise PreconditionUncertified(
                "only uniform densities are supported here; the density grid "
                f"ranges over [{float(self.values.min())}, "
                f"{float(self.values.max())}]")
        return self._w0

    @property
    def dim(self) -> int:
        return self.universe.dim

    @staticmethod
    def unit(universe: Box) -> "RadonMeasure":
        return RadonMeasure(universe, 0, np.ones((1,) * universe.dim))

    @staticmethod
    def from_grid(universe: Box, level: int, values: Sequence[float]) -> "RadonMeasure":
        return RadonMeasure(universe, level, np.asarray(values, dtype=float))


def _axis_overlaps_exact(mu: RadonMeasure, axis: int, lo: float, hi: float):
    """Per-slab overlap lengths of [lo, hi] along one axis, as Fractions."""
    a = Fraction(mu.universe.lo[axis])
    b = Fraction(mu.universe.hi[axis])
    side = 2 ** mu.level
    step = (b - a) / side
    lo_f, hi_f = Fraction(lo), Fraction(hi)
    out = []
    for i in range(side):
        s0 = a + i * step
        s1 = s0 + step
        seg = min(hi_f, s1) - max(lo_f, s0)
        out.append(seg if seg > 0 else Fraction(0))
    return out


def measure_box_exact(mu: RadonMeasure, b: Box) -> Fraction:
    """The box measure in exact rational arithmetic.

    Exactness makes additivity over dyadic splits an identity rather than a
    tolerance check.
    """
    if b.dim != mu.dim:
        raise OutOfUniverse("box dimension mismatch")
    if not mu.universe.contains_box(b):
        raise OutOfUniverse(f"box {b} escapes the universe {mu.universe}")
    per_axis = [_axis_overlaps_exact(mu, k, b.lo[k], b.hi[k]) for k in range(b.dim)]
    total = Fraction(0)
    it = np.ndindex(mu.values.shape)
    for idx in it:
        w = mu.values[idx]
        if w == 0.0:
            continue
        v = Fraction(float(w))
        for k, i in enumerate(idx):
            v *= per_axis[k][i]
            if v == 0:
                break
        total += v
    return total


def measure_box(mu: RadonMeasure, b: Box) -> float:
    """Exact measure of a box inside the universe."""
    if mu.uniform:
        if b.dim != mu.dim:
            raise OutOfUniverse("box dimension mismatch")
        if not mu.universe.contains_box(b):
            raise OutOfUniverse(f"box {b} escapes the universe {mu.universe}")
        return mu.w0 * b.volume()
    return float(measure_box_exact(mu, b))


def measure_box_clipped(mu: RadonMeasure, b: Box) -> float:
    """Measure of b intersected with the universe; 0 when disjoint."""
    inter = mu.universe.intersect(b)
    if inter is None:
        return 0.0
    return measure_box(mu, inter)


def measure_box_batch(mu: RadonMeasure, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Float fast path: measures of N boxes given as (N, d) corner arrays,
    for a uniform density.

    Boxes must already lie inside the universe (not rechecked here).
    """
    los = np.atleast_2d(np.asarray(los, dtype=float))
    his = np.atleast_2d(np.asarray(his, dtype=float))
    return mu.w0 * np.prod(his - los, axis=1)

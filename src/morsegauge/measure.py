"""Density-weighted volume on a bounded universe box.

The measure is Lebesgue measure weighted by a nonnegative piecewise-constant
density on a dyadic grid of the universe.  The command line measures
against the uniform unit density.  The verifiers, the gauge and the Lusin
step take any uniform density and refuse a graded one through w0, since
their certificates bound Lebesgue means.  A graded grid (from_grid) reaches
only the scalar box masses, which run in rational arithmetic so that
additivity over dyadic splits holds with zero error; the batch path, plain
float for the hot loops, takes uniform densities only.  The shell annuli behind the
gauge budgets are measured in closed form where one exists and otherwise
bounded by sup-norm boxes, from above for the outer ball and from below for
the inner one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import OutOfUniverse, PreconditionUncertified
from .geometry import Box, NormKind, norm_batch, norm_ratio


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


def ball_volume(kind: NormKind, dim: int, r: float) -> float:
    """Lebesgue volume of the radius-r ball in the given norm."""
    if r <= 0:
        return 0.0
    if kind is NormKind.INF:
        return (2.0 * r) ** dim
    if kind is NormKind.ONE:
        return (2.0 * r) ** dim / math.factorial(dim)
    if dim == 1:
        return 2.0 * r
    if dim == 2:
        return math.pi * r * r
    if dim == 3:
        return 4.0 * math.pi * r ** 3 / 3.0
    raise ValueError("dim must be in {1, 2, 3}")


# --------------------------------------------------------------------------
# spatial shells

def _ball_cap_volume(mu: RadonMeasure, R: float, domain_norm: NormKind,
                     lower: bool = False) -> float:
    """mu(B(0, R) intersected with the universe).

    Exact when the ball covers the universe, is a sup-norm box, or sits
    inside a uniform universe.  Otherwise the mass of the clipped sup-norm
    box that holds the ball (an upper bound) or, with lower=True, of the one
    the ball holds (a lower bound).
    """
    if R <= 0:
        return 0.0
    d = mu.dim
    if norm_batch(mu.universe.corners(), domain_norm).max() <= R \
            and mu.universe.contains_point((0.0,) * d):
        return mu.total
    exact_box = domain_norm is NormKind.INF or d == 1
    if not exact_box and mu.uniform \
            and mu.universe.contains_box(Box((-R,) * d, (R,) * d)):
        return mu.w0 * ball_volume(domain_norm, d, R)
    r = R / norm_ratio(NormKind.INF, domain_norm, d) if lower else R
    return measure_box_clipped(mu, Box((-r,) * d, (r,) * d))


def annulus_measure(mu: RadonMeasure, n: int, domain_norm: NormKind) -> float:
    """Measure inside the universe of the shell B(0, n+1) minus B(0, n-2);
    the inner ball is empty for n <= 2.  Never below the true value."""
    if n < 1:
        raise ValueError("shell index starts at 1")
    outer = _ball_cap_volume(mu, float(n + 1), domain_norm)
    inner = _ball_cap_volume(mu, float(n - 2), domain_norm, lower=True) \
        if n > 2 else 0.0
    return max(outer - inner, 0.0)

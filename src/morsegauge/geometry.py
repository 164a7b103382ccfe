"""Norms, boxes and gauges.

The domain norm (1, 2 or sup) measures how far a cell reaches from its tag;
norm_ratio converts between norms, so a cube of half-side h about its tag
reaches h * norm_ratio(INF, domain_norm, d).  Boxes are closed and
axis-aligned.  A gauge is a batch map from points to sizes in (0, 1].
bisect_last is the one bisection the gauge tubes and the compact sets
solve their widths with, exact_parts the one exact sum of the totals.

Everything in this module is immutable and pure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import MalformedShape

Point = tuple[float, ...]


class NormKind(enum.Enum):
    ONE = "1"
    TWO = "2"
    INF = "inf"


def norm_batch(V: np.ndarray, kind: NormKind) -> np.ndarray:
    """Row-wise norms of an (N, d) array."""
    V = np.asarray(V, dtype=float)
    if V.ndim == 1 or V.shape[1] == 1:
        # one column: every norm is the component's absolute value
        return np.abs(V.ravel())
    if kind is NormKind.ONE:
        return np.abs(V).sum(axis=1)
    if kind is NormKind.TWO:
        return np.sqrt((V * V).sum(axis=1))
    return np.abs(V).max(axis=1)


def norm_ratio(src: NormKind, dst: NormKind, dim: int) -> float:
    """Tight constant c with |x|_dst <= c * |x|_src for all x in R^dim.

    Equivalently max of |x|_dst over the unit src-ball.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if src is dst or dim == 1:
        return 1.0
    pair = (src, dst)
    if pair in ((NormKind.ONE, NormKind.TWO), (NormKind.ONE, NormKind.INF),
                (NormKind.TWO, NormKind.INF)):
        return 1.0
    if pair in ((NormKind.TWO, NormKind.ONE), (NormKind.INF, NormKind.TWO)):
        return math.sqrt(dim)
    # INF -> ONE
    return float(dim)


def bisect_last(ok: Callable[[float], bool], lo: float, hi: float,
                steps: int) -> float:
    """hi if ok(hi); else the last midpoint where ok held in up to steps
    halvings of [lo, hi], or lo if it held at none.

    The halving stops once the midpoint rounds to an end: for a
    deterministic ok neither end can move after that, so the result is the
    float that all steps would give.
    """
    if ok(hi):
        return hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def exact_parts(a: np.ndarray) -> np.ndarray:
    """A few floats whose exact sum is that of the 1-d array a while its
    magnitudes sum below 2^1024, so that math.fsum of them is a's correctly
    rounded sum in any order; a plain, non-finite sum if a has an inf or nan.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008): with n < 2^m
    entries, each pass cuts them all at the 2^s that leaves 53 - m bits of
    the largest above it, so their multiples of 2^s sum exactly, and what
    lies below 2^s goes on; a cut under 2^-1074 leaves nothing.
    """
    a = np.array(a, dtype=float)
    r = np.empty_like(a)
    m = max(len(a), 1).bit_length()
    top = float(np.abs(a, out=r).max(initial=0.0))
    if not math.isfinite(top):
        return np.array([a.sum()])
    parts = []
    while top:
        s = math.frexp(top)[1] + m - 53
        np.ldexp(a, -s, out=r)
        np.trunc(r, out=r)
        parts.append(np.ldexp(r.sum(), s))
        np.ldexp(r, s, out=r)
        a -= r
        top = float(np.abs(a, out=r).max())
    return np.array(parts)


# --------------------------------------------------------------------------
# boxes

@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box prod_k [lo_k, hi_k]."""

    lo: Point
    hi: Point

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise MalformedShape("lo/hi dimension mismatch")
        if any(not (math.isfinite(a) and math.isfinite(b)) for a, b in zip(self.lo, self.hi)):
            raise MalformedShape("non-finite box corner")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise MalformedShape("lo exceeds hi")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def volume(self) -> float:
        out = 1.0
        for a, b in zip(self.lo, self.hi):
            out *= b - a
        return out

    def contains_box(self, other: "Box") -> bool:
        return all(a <= oa and ob <= b
                   for a, b, oa, ob in zip(self.lo, self.hi, other.lo, other.hi))

    def intersect(self, other: "Box") -> Union["Box", None]:
        lo = tuple(max(a, oa) for a, oa in zip(self.lo, other.lo))
        hi = tuple(min(b, ob) for b, ob in zip(self.hi, other.hi))
        if any(a > b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def corners(self) -> list[Point]:
        """The 2^d corner points."""
        pts: list[Point] = [()]
        for a, b in zip(self.lo, self.hi):
            pts = [p + (v,) for p in pts for v in (a, b)]
        return pts


# --------------------------------------------------------------------------
# gauges

@dataclass(frozen=True)
class Gauge:
    """Strictly positive pointwise size bound, valued in (0, 1].

    batch maps an (N, d) point array to an (N,) array of sizes; provenance
    records how the gauge was built (budgets, tubes, caps) for reports.
    delta_batch raises ValueError if any size is NaN or outside (0, 1].
    bounds_batch, if set, maps (N, d) box corners lo, hi to (N,) lower and
    upper bounds on the sizes delta_batch gives anywhere in each box.
    """

    batch: Callable[[np.ndarray], np.ndarray]
    provenance: dict = field(default_factory=dict)
    bounds_batch: Callable | None = None

    def delta_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.asarray(self.batch(X), dtype=float)
        # written so that a NaN, which fails every comparison, is rejected
        if out.size and not (out.min() > 0.0 and out.max() <= 1.0):
            raise ValueError("gauge batch value outside (0, 1]")
        return out

    def scaled(self, factor: float) -> "Gauge":
        """Pointwise multiply by factor, re-capped at 1, with no bounds.  Used
        by the falsification hooks; a factor > 1 deliberately voids soundness."""
        base = self.batch
        prov = dict(self.provenance)
        prov["scaled_by"] = factor
        return Gauge(batch=lambda X: np.minimum(1.0, factor * np.asarray(base(X))),
                     provenance=prov)

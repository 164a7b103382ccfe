"""Integrand library with exact oracles.

Each entry is a vector-valued function on a bounded universe box together
with everything the pipeline needs in certified form: closed-form box
integrals, absolute integrals, mean-deviation certificates for centered
cubes, declared jump pieces as corner arrays with their one-sided values,
and the absolute-continuity modulus.  The piecewise-constant entries are value
tables on a rectilinear grid of the universe, and every oracle of theirs
is derived from the table.

Conventions that the rest of the package leans on:

* functions vanish off the universe, and the reference measure is zero
  there, so every integral identity below is stated for boxes clipped to
  the universe;
* oracle values are plain Lebesgue integrals; callers weight by the
  (uniform) density themselves;
* tags are cell centers, so deviation certificates are issued for centered
  cubes and remain valid under clipping by the universe (each certificate
  below bounds the one-sided means separately where that matters).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .geometry import Box, NormKind, norm_batch


class CorpusFunction:
    """Base class; subclasses fill in oracles and certificates."""

    name: str = ""
    dim_in: int = 1
    dim_out: int = 1
    universe: Box = Box((0.0,), (1.0,))
    sup_norm: float = 0.0
    aligned_depth: int = 0

    def __init__(self, y_norm: NormKind = NormKind.TWO):
        self.y_norm = y_norm

    # -- evaluation ---------------------------------------------------------

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def ynorm(self, v) -> float:
        return float(self.ynorm_rows(v)[0])

    def ynorm_rows(self, V: np.ndarray) -> np.ndarray:
        return norm_batch(np.atleast_2d(np.asarray(V, dtype=float)), self.y_norm)

    # -- exact oracles ------------------------------------------------------

    def exact_integral(self, b: Box) -> np.ndarray:
        lo, hi = np.asarray(b.lo, dtype=float), np.asarray(b.hi, dtype=float)
        return self.integral_batch(lo[None, :], hi[None, :])[0]

    def integral_batch(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def abs_integral_batch(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def abs_total(self) -> float:
        u = self.universe
        return float(self.abs_integral_batch(np.array([u.lo], dtype=float),
                                             np.array([u.hi], dtype=float))[0])

    def dev_integral_for_tags(self, los, his, tags, V) -> tuple[np.ndarray, np.ndarray]:
        """Per-box integral of ||f - v||_Y with a certified error split.

        Returns (values, error_bounds); truth lies in [v - e, v + e]
        component-wise.  The windows are centered on their tags unless the
        universe clips them; entries whose oracle depends on the window's
        shape read the tags, the others ignore them.
        """
        raise NotImplementedError

    # -- jump metadata ------------------------------------------------------

    def discontinuities(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The k declared jump pieces: (k, d) lo and hi corners of degenerate
        boxes and (k, dim_out) one-sided values; k = 0 without jumps."""
        return (np.empty((0, self.dim_in)),) * 2 + (np.empty((0, self.dim_out)),)

    def on_discontinuity_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.zeros(len(X), dtype=bool)

    # -- certificates -------------------------------------------------------

    def certified_halfside_batch(self, X: np.ndarray, budgets: np.ndarray) -> np.ndarray:
        """Largest h per point such that every centered cube of half-side
        <= h (clipped to the universe or not) has mean ||f - f(x)|| within
        the budget.  Zero at declared jumps."""
        raise NotImplementedError

    # set where the half-side depends on the point's norm alone: per row, lower and upper
    # bounds on certified_halfside_batch over norms [near, far], budgets [b_lo, b_hi]
    halfside_bounds = None

    # -- concentration ------------------------------------------------------

    def ac_modulus(self, eps: float, w0: float = 1.0) -> float:
        """gamma such that mu(E) < gamma forces the mu-integral of ||f||
        over E below eps."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        if self.sup_norm == 0.0:
            vol = self.universe.volume() * w0
            return vol if vol > 0 else 1.0
        if not math.isfinite(self.sup_norm):
            raise NotImplementedError("unbounded entries override this")
        return eps / self.sup_norm

    def piece_structure(self):
        """(lo, hi, values) arrays of the constant pieces, one row each, for
        piecewise-constant entries, else None."""
        return None


class _PiecewiseConstant(CorpusFunction):
    """A value table on a rectilinear grid of the universe.

    cuts[k] lists the interior grid lines on axis k in increasing order and
    values the cell values in C order (axis 0 slowest).  A point on a cut
    takes the value of the cell above it, or jump_value where that is set.
    The jump set is the cuts inside the universe, declared one cell face a
    row.
    """

    cuts: tuple
    values: tuple
    jump_value = None

    def __init__(self, y_norm: NormKind = NormKind.TWO):
        super().__init__(y_norm)
        self._values = np.asarray(self.values, dtype=float)
        self._values.setflags(write=False)
        self.sup_norm = max(self.ynorm(v) for v in self._values)
        # the (lo, hi) of every cell along each axis
        self._spans = [list(zip((a, *cuts), (*cuts, b))) for a, b, cuts
                       in zip(self.universe.lo, self.universe.hi, self.cuts)]

    @staticmethod
    def _grid(spans):
        """The boxes of the grid with the given (lo, hi) pairs per axis, in
        C order, as a (2, k, d) array of their lo and hi corners."""
        at = np.indices([len(s) for s in spans]).reshape(len(spans), -1)
        return np.stack([np.array(s, dtype=float)[i].T
                         for s, i in zip(spans, at)], axis=-1)

    def piece_structure(self):
        return *self._grid(self._spans), self._values

    def eval_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        cell = np.zeros(len(X), dtype=np.intp)
        for k, cuts in enumerate(self.cuts):
            # counting the cuts at or below x puts a point on a cut in the
            # upper cell; a contiguous column keeps the comparisons cheap
            col = np.ascontiguousarray(X[:, k])
            cell *= len(cuts) + 1
            for c in cuts:
                cell += col >= c
        out = self._values.take(cell, axis=0)
        if self.jump_value is not None:
            out[self.on_discontinuity_batch(X)] = self.jump_value
        return out

    def discontinuities(self):
        """One piece per cell face on a cut, valued by eval_batch at its
        centre: axis by axis, cut by cut, the faces in C order."""
        lo, hi = np.concatenate([np.empty((2, 0, self.dim_in))] + [
            self._grid([[(c, c)] if j == k else s
                        for j, s in enumerate(self._spans)])
            for k, cuts in enumerate(self.cuts) for c in cuts], axis=1)
        return lo, hi, self.eval_batch(0.5 * (lo + hi))

    def on_discontinuity_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        hit = np.zeros(len(X), dtype=bool)
        inside = np.ones(len(X), dtype=bool)
        for k, cuts in enumerate(self.cuts):
            for c in cuts:
                hit |= X[:, k] == c
            inside &= (X[:, k] >= self.universe.lo[k]) & (X[:, k] <= self.universe.hi[k])
        return hit & inside

    def dist_inf_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.full(len(X), np.inf)
        for k, cuts in enumerate(self.cuts):
            for c in cuts:
                np.minimum(out, np.abs(X[:, k] - c), out=out)
        return out

    def certified_halfside_batch(self, X, budgets):
        # zero deviation up to the jump set, at any scale
        return self.dist_inf_batch(X)

    def _overlaps(self, los, his):
        """Each cell's overlap volume with every window, and the cell's
        value, cell by cell in C order; the oracles below sum them from
        zero in that order."""
        los = np.atleast_2d(los); his = np.atleast_2d(his)
        per_axis = [[np.clip(np.minimum(his[:, k], b) - np.maximum(los[:, k], a), 0.0, None)
                     for a, b in spans] for k, spans in enumerate(self._spans)]
        for parts, val in zip(itertools.product(*per_axis), self._values):
            yield math.prod(parts), val

    def integral_batch(self, los, his):
        return sum(ov[:, None] * val for ov, val in self._overlaps(los, his))

    def abs_integral_batch(self, los, his):
        return sum(ov * self.ynorm(val) for ov, val in self._overlaps(los, his))

    def dev_integral_for_tags(self, los, his, tags, V):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        out = sum(ov * self.ynorm_rows(val - V) for ov, val in self._overlaps(los, his))
        return out, np.zeros(len(out))


# --------------------------------------------------------------------------
# entries

class ConstantFn(_PiecewiseConstant):
    """f == (0.6, -0.8) on [0, 1]."""

    name = "constant"
    dim_in = 1
    dim_out = 2
    universe = Box((0.0,), (1.0,))
    cuts = ((),)
    values = ((0.6, -0.8),)
    aligned_depth = 0


class Linear1Fn(CorpusFunction):
    """f(x) = x on [0, 1], scalar."""

    name = "linear1"
    dim_in = 1
    dim_out = 1
    universe = Box((0.0,), (1.0,))
    sup_norm = 1.0
    aligned_depth = 0

    def eval_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X[:, :1].copy()

    def integral_batch(self, los, his):
        los = np.atleast_2d(los); his = np.atleast_2d(his)
        return 0.5 * (his[:, :1] ** 2 - los[:, :1] ** 2)

    def abs_integral_batch(self, los, his):
        # x >= 0 on the universe
        return self.integral_batch(los, his)[:, 0]

    def dev_integral_for_tags(self, los, his, tags, V):
        los = np.atleast_2d(los)[:, 0]; his = np.atleast_2d(his)[:, 0]
        v = np.atleast_2d(np.asarray(V, dtype=float))[:, 0]
        c = np.clip(v, los, his)
        vals = 0.5 * ((his - c) ** 2 + (c - los) ** 2) \
            + (c - v) * ((his - c) - (c - los))
        return np.abs(vals), np.zeros(len(los))

    def certified_halfside_batch(self, X, budgets):
        # mean |y - x| over any window [x-h1, x+h2], h_i <= h, is <= h/2
        return 2.0 * np.asarray(budgets, dtype=float) * np.ones(len(np.atleast_2d(X)))

    def halfside_bounds(self, near, far, b_lo, b_hi):
        return 2.0 * b_lo, 2.0 * b_hi


class Step2Fn(_PiecewiseConstant):
    """f = (1,0) on [0, 0.5), (0,1) on [0.5, 1]; the jump value is the
    right-hand one."""

    name = "step2"
    dim_in = 1
    dim_out = 2
    universe = Box((0.0,), (1.0,))
    cuts = ((0.5,),)
    values = ((1.0, 0.0), (0.0, 1.0))
    aligned_depth = 1


class Step2AvgFn(Step2Fn):
    """step2 with the averaged value at the jump; 0.5 becomes a point where
    ||f|| is a.e. constant but ||f(0.5)|| disagrees."""

    name = "step2_avg"
    jump_value = (0.5, 0.5)


class Sign1Fn(_PiecewiseConstant):
    """f(x) = sign(x) on [-1, 1] with f(0) = 1; ||f|| is constant."""

    name = "sign1"
    dim_in = 1
    dim_out = 1
    universe = Box((-1.0,), (1.0,))
    cuts = ((0.0,),)
    values = ((-1.0,), (1.0,))
    aligned_depth = 1


class Checker2DFn(_PiecewiseConstant):
    """4x4 checkerboard on [0,1]^2 with values (i+j) mod 2, scalar output.

    Jump pieces are the interior grid segments between cell crossings; the
    declared value on each segment is the upper/right cell's (the same rule
    eval uses).
    """

    name = "checker2d"
    dim_in = 2
    dim_out = 1
    universe = Box((0.0, 0.0), (1.0, 1.0))
    cuts = ((0.25, 0.5, 0.75),) * 2
    values = tuple((float((i + j) % 2),) for i in range(4) for j in range(4))
    aligned_depth = 2


class Lipschitz2DFn(CorpusFunction):
    """f(x, y) = amp * sin(pi x) * sin(pi y) on [0,1]^2, scalar."""

    name = "lipschitz2d"
    dim_in = 2
    dim_out = 1
    universe = Box((0.0, 0.0), (1.0, 1.0))
    amp = 0.1
    sup_norm = amp

    def eval_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (self.amp * np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1]))[:, None]

    def integral_batch(self, los, his):
        los = np.atleast_2d(los); his = np.atleast_2d(his)
        cx = np.cos(np.pi * los[:, 0]) - np.cos(np.pi * his[:, 0])
        cy = np.cos(np.pi * los[:, 1]) - np.cos(np.pi * his[:, 1])
        return (self.amp / math.pi ** 2 * cx * cy)[:, None]

    def abs_integral_batch(self, los, his):
        # f >= 0 on the universe
        return self.integral_batch(los, his)[:, 0]

    def dev_integral_for_tags(self, los, his, tags, V):
        """Interval certificate from a gradient bound, sharpened from below
        by the exact signed integral."""
        los = np.atleast_2d(np.asarray(los, dtype=float))
        his = np.atleast_2d(np.asarray(his, dtype=float))
        tags = np.atleast_2d(np.asarray(tags, dtype=float))
        V = np.atleast_2d(np.asarray(V, dtype=float))[:, 0]
        centers = 0.5 * (los + his)
        widths = his - los
        centered = (norm_batch(centers - tags, NormKind.INF) <= 1e-14) \
            & (np.abs(widths[:, 0] - widths[:, 1]) <= 1e-14)
        h = 0.5 * widths.max(axis=1)
        vol = widths.prod(axis=1)
        coef, beta = self._mean_dev_coefficients(centers)
        # a clipped window keeps only the global gradient bound, which
        # holds pointwise
        reach = norm_batch(np.maximum(np.abs(los - tags), np.abs(his - tags)),
                           NormKind.TWO)
        upper = np.where(centered, (coef * h + beta * h * h) * vol,
                         self.amp * math.pi * reach * vol)
        signed = np.abs(self.integral_batch(los, his)[:, 0] - V * vol)
        upper = np.maximum(upper, signed)
        return 0.5 * (upper + signed), 0.5 * (upper - signed)

    def _gradient_parts(self, X):
        gx = np.abs(np.cos(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1]))
        gy = np.abs(np.sin(np.pi * X[:, 0]) * np.cos(np.pi * X[:, 1]))
        a = self.amp * math.pi * np.maximum(gx, gy)
        b = self.amp * math.pi * np.minimum(gx, gy)
        return a, b

    def _mean_dev_coefficients(self, X):
        # mean of |g . q| over the centered cube is coef * h exactly;
        # the Hessian remainder contributes at most beta * h^2 to the mean
        a, b = self._gradient_parts(X)
        coef = np.where(a > 0, 0.5 * (a + np.divide(b * b, 3.0 * a,
                        out=np.zeros_like(a), where=a > 0)), 0.0)
        beta = (2.0 / 3.0) * self.amp * math.pi ** 2
        return coef, beta

    def certified_halfside_batch(self, X, budgets):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        budgets = np.asarray(budgets, dtype=float) * np.ones(len(X))
        coef, beta = self._mean_dev_coefficients(X)
        h_int = 2.0 * budgets / (coef + np.sqrt(coef * coef + 4.0 * beta * budgets))
        # near the boundary the window clips; fall back to the sup bound,
        # which holds for any sub-window
        crude = budgets / (math.sqrt(2.0) * self.amp * math.pi)
        bdist = np.minimum(
            (X - np.asarray(self.universe.lo)).min(axis=1),
            (np.asarray(self.universe.hi) - X).min(axis=1))
        return np.where(bdist >= h_int, h_int, np.minimum(h_int, np.maximum(crude, 0.0)))


class Spike1Fn(CorpusFunction):
    """f(x) = |x|^(-1/2) on [-1,1] away from 0, f(0) = 0; integrable but
    unbounded, scalar."""

    name = "spike1"
    dim_in = 1
    dim_out = 1
    universe = Box((-1.0,), (1.0,))
    sup_norm = math.inf
    aligned_depth = 1

    def eval_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        x = X[:, 0]
        out = np.zeros(len(x))
        nz = x != 0.0
        out[nz] = 1.0 / np.sqrt(np.abs(x[nz]))
        return out[:, None]

    @staticmethod
    def _anti(t):
        # antiderivative of sign(t)/sqrt(|t|)
        return 2.0 * np.sign(t) * np.sqrt(np.abs(t))

    def integral_batch(self, los, his):
        los = np.atleast_2d(los)[:, 0]; his = np.atleast_2d(his)[:, 0]
        return (self._anti(his) - self._anti(los))[:, None]

    def abs_integral_batch(self, los, his):
        # f > 0 off the singular point
        return self.integral_batch(los, his)[:, 0]

    def dev_integral_for_tags(self, los, his, tags, V):
        """Exact: a box across the singularity is the sum of its halves on
        either side, each taken as a one-sided box."""
        a = np.atleast_2d(los)[:, 0]; b = np.atleast_2d(his)[:, 0]
        v = np.atleast_2d(np.asarray(V, dtype=float))[:, 0]
        out = self._one_sided_dev(np.minimum(np.abs(a), np.abs(b)),
                                  np.maximum(np.abs(a), np.abs(b)), v)
        across = (a < 0) & (b > 0)
        if across.any():
            va = v[across]
            out[across] = self._one_sided_dev(0.0, -a[across], va) \
                + self._one_sided_dev(0.0, b[across], va)
        return out, np.zeros(len(a))

    @staticmethod
    def _one_sided_dev(aa, bb, v):
        # integral of |t^(-1/2) - v| over 0 <= aa <= t <= bb
        with np.errstate(divide="ignore"):
            cross = np.where(v > 0, 1.0 / (v * v), np.inf)
        c = np.clip(cross, aa, bb)
        left = 2.0 * np.sqrt(c) - 2.0 * np.sqrt(aa) - v * (c - aa)
        right = v * (bb - c) - (2.0 * np.sqrt(bb) - 2.0 * np.sqrt(c))
        return left + right

    def discontinuities(self):
        return np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))

    def on_discontinuity_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X[:, 0] == 0.0

    def certified_halfside_batch(self, X, budgets):
        """Solve the one-sided mean bound 2/(sqrt(x)+sqrt(x-h)) - 1/sqrt(x)
        <= budget for h; the left-of-tag mean dominates every clipped or
        centered window, so the certificate survives clipping."""
        x = np.abs(np.atleast_2d(np.asarray(X, dtype=float))[:, 0])
        # h = x - s^2, s = 2/(b + 1/r) - r, r = sqrt(x), is 4 b r^3/(1 + b r)^2,
        # which does not cancel (x = 0 gives the jump's 0); with 1 - 8u on the
        # 4 (u = 2^-53) h is never above it and at most 16u under it
        br = np.sqrt(x)
        br *= budgets
        h = np.multiply(x, br)
        h *= 4.0 - 2.0 ** -48
        br += 1.0
        h /= br
        h /= br
        # clipped to [0, x/2], or x/2 where b r >= 1; in place: few temporaries
        np.maximum(h, 0.0, out=h)
        x *= 0.5
        np.minimum(h, x, out=h)
        np.copyto(h, x, where=br >= 2.0)
        return h

    def halfside_bounds(self, near, far, b_lo, b_hi):
        # h rises with |x| and b and lies within 16u under it: 32u covers its steps
        return (self.certified_halfside_batch(near[:, None], b_lo) * (1 - 2.0 ** -48),
                self.certified_halfside_batch(far[:, None], b_hi) * (1 + 2.0 ** -48))

    def ac_modulus(self, eps: float, w0: float = 1.0) -> float:
        if eps <= 0:
            raise ValueError("eps must be positive")
        # invert w0 * 2 sqrt(2 leb) = eps, then convert back to mu-measure;
        # past sqrt(2 vol) every set qualifies, and the clamp keeps the
        # square finite
        root = min(eps / (2.0 * w0), math.sqrt(2.0 * self.universe.volume()))
        leb = root ** 2 / 2.0
        return w0 * leb


_REGISTRY = {
    cls.name: cls
    for cls in (ConstantFn, Linear1Fn, Step2Fn, Step2AvgFn, Sign1Fn,
                Checker2DFn, Lipschitz2DFn, Spike1Fn)
}

MANDATORY = ("constant", "linear1", "step2", "checker2d", "lipschitz2d", "spike1")


def corpus_names() -> list[str]:
    return sorted(_REGISTRY)


def corpus_function(name: str, y_norm: NormKind = NormKind.TWO) -> CorpusFunction:
    if name not in _REGISTRY:
        raise KeyError(f"no corpus entry named {name!r} (have {corpus_names()})")
    return _REGISTRY[name](y_norm=y_norm)

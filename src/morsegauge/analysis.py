"""Density-point radii and compact continuity sets.

The radius operations answer: how large may a centered family set at x be
so that the mean (or tail-fraction) of ||f - f(x)|| stays within budget?
Certification is entirely via the corpus closed forms; the returned radius
bounds the reach |y - x| of admissible sets in the family's domain norm, so
a cube of half-side h qualifies when its circumradius lies below the radius.

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
from .errors import (BoundViolated, NotApproxContinuous, NotLebesgue,
                     NotPiecewise, PreconditionUncertified)
from .gauge import _density_ratio_adjust
from .geometry import Box, NormKind, norm_ratio
from .measure import (RadonMeasure, ball_volume, measure_box,
                      measure_box_batch, require_uniform)

_RADIUS_CAP = 1.0


@dataclass(frozen=True)
class CoverFamily:
    """Which tagged sets the partitioner will emit: centered cubes or balls
    in a domain norm."""

    shape: str = "cube"
    domain_norm: NormKind = NormKind.TWO

    def __post_init__(self):
        if self.shape not in ("cube", "ball"):
            raise ValueError(f"unknown family shape {self.shape!r}")

    def lam(self, dim: int) -> float:
        if self.shape == "ball":
            return 1.0
        return norm_ratio(NormKind.INF, self.domain_norm, dim)

    def tag_reach(self, halfside: float, dim: int) -> float:
        """Circumradius (in the domain norm) of the family set with the
        given half-side about its tag."""
        if self.shape == "ball":
            return halfside
        return halfside * norm_ratio(NormKind.INF, self.domain_norm, dim)

    def halfside_from_reach(self, reach: float, dim: int) -> float:
        if self.shape == "ball":
            return reach
        return reach / norm_ratio(NormKind.INF, self.domain_norm, dim)

    def mean_factor(self, dim: int) -> float:
        """Worst ratio between the family-set mean and the enclosing-cube
        mean; converts cube certificates into family certificates."""
        if self.shape == "cube":
            return 1.0
        return 2.0 ** dim / ball_volume(self.domain_norm, dim, 1.0)


@dataclass(frozen=True)
class RadiusResult:
    radius: float
    certified: bool
    budget: float

    def __post_init__(self):
        if self.radius > _RADIUS_CAP + 1e-15:
            raise ValueError("radius exceeds the gauge cap")
        if self.certified and not self.radius > 0:
            raise ValueError("certified radius must be positive")


def lebesgue_radius(f: CorpusFunction, x, eps: float, mu: RadonMeasure,
                    family: CoverFamily = CoverFamily()) -> RadiusResult:
    """Largest certified reach R such that every family set tagged at x
    within B(x, R) has mean ||f - f(x)|| at most eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if f.on_discontinuity(x):
        raise NotLebesgue(f"{tuple(np.atleast_1d(x))} is a declared jump point")
    X = np.atleast_2d(np.asarray(x, dtype=float))
    budget = eps * _density_ratio_adjust(mu) / family.mean_factor(f.dim_in)
    h = float(f.certified_halfside_batch(X, np.array([budget]))[0])
    if h <= 0.0:
        raise NotLebesgue(
            f"no positive certified radius at {tuple(X[0])} (budget {budget})")
    reach = family.tag_reach(h, f.dim_in)
    return RadiusResult(min(reach, _RADIUS_CAP), True, eps)


def _norm_lebesgue_radius(f: CorpusFunction, x, eps: float, mu: RadonMeasure,
                          family: CoverFamily) -> RadiusResult:
    """Same certificate for the scalar map ||f||."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    budget = eps * _density_ratio_adjust(mu) / family.mean_factor(f.dim_in)
    h = float(f.norm_certified_halfside_batch(X, np.array([budget]))[0])
    if h <= 0.0:
        raise NotLebesgue(
            f"||f|| has no certified density radius at {tuple(X[0])}")
    return RadiusResult(min(family.tag_reach(h, f.dim_in), _RADIUS_CAP), True, eps)


def approx_continuity_radius(f: CorpusFunction, x, eps: float, eta: float,
                             mu: RadonMeasure,
                             family: CoverFamily = CoverFamily()) -> RadiusResult:
    """Certified reach for the tail-fraction bound: within every admissible
    family set, the part where ||f - f(x)|| exceeds eta has measure fraction
    at most eps.

    Two routes, best wins: a sup-deviation radius (the exceedance set is
    empty), and Markov applied to the mean certificate at budget eps * eta.
    """
    if eps <= 0 or eta <= 0:
        raise ValueError("eps and eta must be positive")
    X = np.atleast_2d(np.asarray(x, dtype=float))
    dim = f.dim_in
    if f.on_discontinuity(x):
        bad = f.bad_fraction_limit(x, eta)
        if bad > eps:
            raise NotApproxContinuous(
                f"limiting exceedance fraction {bad:.3f} > eps {eps} at "
                f"{tuple(X[0])}")
        # fraction <= eps at all window scales that stay clear of the rest
        # of the jump set and of the universe boundary
        reach = min(_clearance(f, X[0]), _RADIUS_CAP)
        if reach <= 0:
            raise NotApproxContinuous("no clear window at the probe")
        return RadiusResult(reach, True, eps)
    adjust = _density_ratio_adjust(mu)
    h_sup = float(f.sup_dev_halfside_batch(X, eta)[0])
    mean_budget = eps * eta * adjust / family.mean_factor(dim)
    h_markov = float(f.certified_halfside_batch(X, np.array([mean_budget]))[0])
    h = max(h_sup, h_markov)
    if h <= 0.0:
        raise NotApproxContinuous(
            f"no certified radius at {tuple(X[0])} (eps {eps}, eta {eta})")
    return RadiusResult(min(family.tag_reach(h, dim), _RADIUS_CAP), True, eps)


def _clearance(f: CorpusFunction, x: np.ndarray) -> float:
    """Distance from x to the jump pieces not containing it, and to the
    universe boundary."""
    out = min(
        min(float(c) - lo for c, lo in zip(x, f.universe.lo)),
        min(hi - float(c) for c, hi in zip(x, f.universe.hi)),
    )
    for piece in f.discontinuities():
        gaps = [max(a - c, c - b, 0.0)
                for c, a, b in zip(x, piece.region.lo, piece.region.hi)]
        d = max(gaps)
        if d > 0:
            out = min(out, d)
    return out


def verify_deviation_budget(f: CorpusFunction, x, eps: float, mu: RadonMeasure,
                  family: CoverFamily = CoverFamily()) -> dict:
    """Certify both hypotheses at x, then sweep centered cubes below the
    combined radius checking the 4-eps mean bound."""
    try:
        r_ac = approx_continuity_radius(f, x, eps, eps, mu, family)
        r_nl = _norm_lebesgue_radius(f, x, eps, mu, family)
    except (NotApproxContinuous, NotLebesgue) as exc:
        raise PreconditionUncertified(str(exc)) from exc
    reach = min(r_ac.radius, r_nl.radius)
    dim = f.dim_in
    h_top = family.halfside_from_reach(reach, dim)
    x_arr = np.asarray(x, dtype=float).reshape(-1)
    fx = f.eval(x_arr)
    scales = h_top * 0.5 ** np.arange(8)
    los = np.maximum(x_arr[None, :] - scales[:, None], f.universe.lo)
    his = np.minimum(x_arr[None, :] + scales[:, None], f.universe.hi)
    tags = np.tile(x_arr, (len(scales), 1))
    V = np.tile(np.atleast_1d(fx), (len(scales), 1))
    vals, errs = f.dev_integral_for_tags(los, his, tags, V)
    require_uniform(mu)
    w0 = mu.w0
    masses = measure_box_batch(mu, los, his)
    lhs = w0 * (vals + errs)
    rhs = 4.0 * eps * masses
    ratios = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs > 0)
    report = {
        "x": [float(c) for c in x_arr],
        "eps": eps,
        "radius_ac": r_ac.radius,
        "radius_norm_lebesgue": r_nl.radius,
        "n_sets": int(len(scales)),
        "max_ratio": float(ratios.max()),
        "pass": bool((lhs <= rhs * (1.0 + 1e-12) + 1e-300).all()),
    }
    if not report["pass"]:
        raise BoundViolated("mean-deviation bound exceeded 4*eps", report)
    return report


# --------------------------------------------------------------------------
# compact continuity sets

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
    omega_mass = measure_box(mu, omega).value
    target = 0.5 * eps

    def omitted(t: float) -> float:
        kept = _shrink_pieces(pieces, omega, t)
        return omega_mass - sum(measure_box(mu, b).value for b, _ in kept)

    t_hi = 0.5 * min(b - a for box, _ in pieces
                     for a, b in zip(box.lo, box.hi))
    if omitted(t_hi) <= target:
        t = t_hi
    else:
        t_lo = 0.0
        for _ in range(60):
            mid = 0.5 * (t_lo + t_hi)
            if omitted(mid) <= target:
                t_lo = mid
            else:
                t_hi = mid
        t = t_lo
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

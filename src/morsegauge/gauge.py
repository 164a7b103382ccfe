"""Gauge construction from corpus metadata.

The gauge has two branches.  Points on the declared jump set get half their
distance to the boundary of a thin open tube drawn around the jump pieces;
everyone else gets the certified mean-deviation radius for the budget of
their spatial shell.  Tube widths are solved so that each value-bin's tube
measure stays under its share of the budget and so that the total jump-mass
caught in the tubes stays under a quarter of the target accuracy; both caps
matter (the singular corpus entry exhausts the second one long before the
first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusFunction
from .errors import BoundViolated, PreconditionUncertified, TubeInfeasible
from .geometry import Box, Gauge, NormKind, norm, norm_batch, norm_ratio
from .measure import (RadonMeasure, annulus_measure, measure_box_batch,
                      measure_box_clipped, require_uniform)
from .quadrature import adaptive_box_quadrature

_WIDTH_FLOOR = 1e-300


def shell_index(x, domain_norm: NormKind) -> int:
    """The unique n >= 1 with n-1 <= |x| < n."""
    r = norm(np.atleast_1d(np.asarray(x, dtype=float)), domain_norm)
    return int(math.floor(r)) + 1


def shell_index_batch(X: np.ndarray, domain_norm: NormKind) -> np.ndarray:
    r = norm_batch(np.atleast_2d(np.asarray(X, dtype=float)), domain_norm)
    return np.floor(r).astype(int) + 1


def shell_budget(eps: float, n: int, mu: RadonMeasure,
                 domain_norm: NormKind = NormKind.TWO) -> float:
    """Per-shell mean-deviation budget eps * 2^(-n-2) / (1 + mu(E_n))."""
    if eps <= 0 or n < 1:
        raise ValueError("need eps > 0 and n >= 1")
    return eps * 2.0 ** (-n - 2) / (1.0 + annulus_measure(mu, n, domain_norm))


def shell_budget_table(eps: float, mu: RadonMeasure,
                       domain_norm: NormKind) -> np.ndarray:
    """Budgets of shells 1..n_max, where n_max is the shell of the farthest
    universe corner; entry n - 1 belongs to shell n."""
    n_max = max(shell_index(c, domain_norm) for c in mu.universe.corners())
    return np.array([shell_budget(eps, n, mu, domain_norm)
                     for n in range(1, n_max + 1)])


def _density_ratio_adjust(mu: RadonMeasure) -> float:
    """Budget shrink factor that makes Lebesgue-mean certificates valid for
    the weighted mean."""
    if mu.uniform:
        return 1.0
    wmin = float(mu.values.min())
    wmax = float(mu.values.max())
    if wmin <= 0.0:
        raise PreconditionUncertified(
            "radius certification needs a density bounded away from zero")
    return wmin / wmax


def value_bin(v_norm: float) -> int:
    """Half-open value bin: n - 1 <= ||f(x)|| < n."""
    return int(math.floor(v_norm)) + 1


@dataclass(frozen=True)
class GaugeBuildParams:
    eps: float
    domain_norm: NormKind = NormKind.TWO
    tube_safety: float = 0.5
    margin: float = 0.9  # fraction of each shell budget handed to the radius certificates

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not (0.0 < self.tube_safety < 1.0):
            raise ValueError("tube_safety must sit in (0, 1)")
        if not (0.0 < self.margin <= 1.0):
            raise ValueError("margin must sit in (0, 1]")


@dataclass(frozen=True)
class NullTube:
    """Open box-union around the jump pieces of one value bin."""

    n: int
    boxes: tuple[Box, ...]
    measure: float
    width: float
    budget: float

    def contains_strict(self, x) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        return any(all(a < c < b for c, a, b in zip(x, bx.lo, bx.hi))
                   for bx in self.boxes)

    def clearance(self, x) -> float:
        """sup over boxes holding x of the minimal face distance."""
        x = np.asarray(x, dtype=float).reshape(-1)
        best = 0.0
        for bx in self.boxes:
            if all(a < c < b for c, a, b in zip(x, bx.lo, bx.hi)):
                best = max(best, min(min(c - a, b - c)
                                     for c, a, b in zip(x, bx.lo, bx.hi)))
        return best

    def to_dict(self) -> dict:
        return {"n": self.n,
                "boxes": [[list(b.lo), list(b.hi)] for b in self.boxes],
                "measure": self.measure,
                "width": self.width,
                "budget": self.budget}


def _tube_boxes(f: CorpusFunction, pieces, w: float) -> list[Box]:
    out = []
    for piece in pieces:
        lo = tuple(a - w for a in piece.region.lo)
        hi = tuple(b + w for b in piece.region.hi)
        out.append(Box(lo, hi))
    return out


def _tube_measure(mu: RadonMeasure, boxes) -> float:
    return float(sum(measure_box_clipped(mu, b).value for b in boxes))


def _tube_abs_mass(f: CorpusFunction, mu: RadonMeasure, boxes) -> float:
    """Upper bound on the weighted jump mass inside the boxes (overlaps
    double-count upward)."""
    total = 0.0
    for b in boxes:
        inter = mu.universe.intersect(b)
        if inter is None:
            continue
        lo = np.asarray(inter.lo)[None, :]
        hi = np.asarray(inter.hi)[None, :]
        total += float(f.abs_integral_batch(lo, hi)[0]) * mu.w0
    return total


def build_null_tubes(f: CorpusFunction, eps: float, mu: RadonMeasure,
                     tube_safety: float = 0.5) -> list[NullTube]:
    """Open tubes around the declared jump pieces, one per value bin.

    Per bin the tube measure is bisected to 0.99 of tube_safety * eps /
    (n * 2^(n+2)); afterwards every width is shrunk by a common factor until
    the total jump mass inside the tubes is below tube_safety * eps / 4 and
    the total measure is below the absolute-continuity modulus at eps / 4.
    """
    groups: dict[int, list] = {}
    for piece in f.discontinuities():
        if piece.region.volume() > 0:
            raise TubeInfeasible("declared jump piece has positive measure")
        n = value_bin(f.ynorm(piece.value))
        groups.setdefault(n, []).append(piece)
    if not groups:
        return []
    require_uniform(mu)

    widths: dict[int, float] = {}
    for n, pieces in sorted(groups.items()):
        target = 0.99 * tube_safety * eps / (n * 2.0 ** (n + 2))
        w_lo, w_hi = 0.0, 1.0
        if _tube_measure(mu, _tube_boxes(f, pieces, w_hi)) <= target:
            widths[n] = w_hi
            continue
        for _ in range(200):
            mid = 0.5 * (w_lo + w_hi)
            if mid <= _WIDTH_FLOOR:
                break
            if _tube_measure(mu, _tube_boxes(f, pieces, mid)) <= target:
                w_lo = mid
            else:
                w_hi = mid
        if w_lo <= 0.0:
            raise TubeInfeasible(f"no admissible width for value bin {n}")
        widths[n] = w_lo

    # common shrink for the global jump-mass and modulus caps
    gamma = f.ac_modulus(eps / 4.0, mu.w0)
    mass_cap = tube_safety * eps / 4.0
    meas_cap = 0.99 * gamma

    def caps_ok(scale: float) -> bool:
        mass = 0.0
        meas = 0.0
        for n, pieces in groups.items():
            boxes = _tube_boxes(f, pieces, scale * widths[n])
            mass += _tube_abs_mass(f, mu, boxes)
            meas += _tube_measure(mu, boxes)
        return mass <= mass_cap and meas <= meas_cap

    scale = 1.0
    if not caps_ok(scale):
        s_lo, s_hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (s_lo + s_hi)
            if mid * min(widths.values()) <= _WIDTH_FLOOR:
                break
            if caps_ok(mid):
                s_lo = mid
            else:
                s_hi = mid
        if s_lo <= 0.0:
            raise TubeInfeasible("jump-mass cap admits no positive width")
        scale = s_lo

    tubes = []
    for n, pieces in sorted(groups.items()):
        w = scale * widths[n]
        boxes = tuple(_tube_boxes(f, pieces, w))
        meas = _tube_measure(mu, boxes)
        budget = tube_safety * eps / (n * 2.0 ** (n + 2))
        if not meas < budget:
            raise TubeInfeasible(f"tube measure {meas} not under budget {budget}")
        tubes.append(NullTube(n=n, boxes=boxes, measure=meas, width=w,
                              budget=budget))
    return tubes


def build_gauge(f: CorpusFunction, mu: RadonMeasure, p: GaugeBuildParams) -> Gauge:
    """Total gauge on the universe: tube-clearance halves on the jump set,
    certified shell-budget radii elsewhere."""
    lam = norm_ratio(NormKind.INF, p.domain_norm, f.dim_in)
    tubes = build_null_tubes(f, p.eps, mu, p.tube_safety)
    tube_by_bin = {t.n: t for t in tubes}

    budgets_by_shell = shell_budget_table(p.eps, mu, p.domain_norm)
    n_max = len(budgets_by_shell)
    cert_scale = p.margin * _density_ratio_adjust(mu)

    def a_branch(x) -> float:
        fn_norm = f.ynorm(f.eval(x))
        n = value_bin(fn_norm)
        tube = tube_by_bin.get(n)
        if tube is None:
            raise BoundViolated(
                f"jump point {tuple(np.atleast_1d(x))} has no tube in bin {n}")
        clear = tube.clearance(x)
        if clear <= 0.0:
            raise BoundViolated(
                f"jump point {tuple(np.atleast_1d(x))} escapes its tube")
        return 0.5 * min(1.0, clear)

    def batch(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(len(X))
        on_a = f.on_discontinuity_batch(X)
        if on_a.any():
            for i in np.nonzero(on_a)[0]:
                out[i] = a_branch(X[i])
        rest = ~on_a
        if rest.any():
            shells = shell_index_batch(X[rest], p.domain_norm)
            shells = np.clip(shells, 1, n_max)
            budgets = budgets_by_shell[shells - 1] * cert_scale
            h = f.certified_halfside_batch(X[rest], budgets)
            reach = np.where(np.isfinite(h), h, np.inf) * lam
            out[rest] = np.minimum(1.0, reach)
        return out

    provenance = {
        "kind": "shell-budget",
        "fn": f.name,
        "eps": p.eps,
        "domain_norm": p.domain_norm.value,
        "shape": "cube",
        "lambda": lam,
        "margin": p.margin,
        "tube_safety": p.tube_safety,
        "gamma": f.ac_modulus(p.eps / 4.0, mu.w0),
        "shell_budgets": [float(b) for b in budgets_by_shell],
        "tubes": [t.to_dict() for t in tubes],
    }
    return Gauge(batch=batch, provenance=provenance)


# --------------------------------------------------------------------------
# soundness sweep

@dataclass
class SweepReport:
    fn: str
    eps: float
    probes: int = 0
    a_probes: int = 0
    violations: list = field(default_factory=list)
    max_budget_ratio: float = 0.0

    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"fn": self.fn, "eps": self.eps, "probes": self.probes,
                "a_probes": self.a_probes,
                "violations": self.violations[:32],
                "n_violations": len(self.violations),
                "max_budget_ratio": self.max_budget_ratio}


def _tube_boxes_from_provenance(g: Gauge) -> dict[int, list[Box]]:
    out: dict[int, list[Box]] = {}
    for td in g.provenance.get("tubes", []):
        out[td["n"]] = [Box(tuple(lo), tuple(hi)) for lo, hi in td["boxes"]]
    return out


def _a_probe_points(f: CorpusFunction, rng: np.random.Generator, per_piece: int):
    pts = []
    for piece in f.discontinuities():
        lo = np.asarray(piece.region.lo)
        hi = np.asarray(piece.region.hi)
        pts.append(lo)
        pts.append(hi)
        pts.append(0.5 * (lo + hi))
        if per_piece > 3:
            u = rng.uniform(size=(per_piece - 3, len(lo)))
            pts.extend(lo + u * (hi - lo))
    if not pts:
        return np.empty((0, f.dim_in))
    return np.unique(np.array(pts), axis=0)


def soundness_sweep(f: CorpusFunction, g: Gauge, mu: RadonMeasure,
                    p: GaugeBuildParams, n_probes: int = 10_000,
                    seed: int = 0, sets_per_probe: int = 2,
                    quad_probes: int = 128) -> SweepReport:
    """Probe the gauge and recheck both branch guarantees from scratch.

    Interior probes: for family sets at the probe's full gauge reach (and a
    smaller one), the weighted mean deviation must stay within the shell
    budget with no margin applied.  Jump probes: the closed reach ball must
    sit strictly inside the probe's tube.  A random subsample re-evaluates
    the deviation integral by adaptive quadrature that never touches the
    closed-form oracles, so a broken certificate and a broken oracle cannot
    cancel.
    """
    require_uniform(mu)
    rng = np.random.default_rng(seed)
    dim = f.dim_in
    lam = norm_ratio(NormKind.INF, p.domain_norm, dim)
    report = SweepReport(fn=f.name, eps=p.eps)
    w0 = mu.w0

    lo = np.asarray(mu.universe.lo)
    hi = np.asarray(mu.universe.hi)
    X = lo + rng.uniform(size=(n_probes, dim)) * (hi - lo)
    on_a = f.on_discontinuity_batch(X)
    X = X[~on_a]

    deltas = g.delta_batch(X)
    shells = shell_index_batch(X, p.domain_norm)
    # recomputed rather than read from the provenance, so the sweep stays an
    # independent check of the gauge
    table = shell_budget_table(p.eps, mu, p.domain_norm)
    budgets = table[np.clip(shells, 1, len(table)) - 1]

    scales = 1.0 / (1.6 ** np.arange(sets_per_probe))
    for s in scales:
        h = deltas * s / lam
        los = np.maximum(X - h[:, None], lo[None, :])
        his = np.minimum(X + h[:, None], hi[None, :])
        V = f.eval_batch(X)
        vals, errs = f.dev_integral_for_tags(los, his, X, V)
        masses = measure_box_batch(mu, los, his)
        lhs = w0 * (vals + errs)
        rhs = budgets * masses
        bad = lhs > rhs * (1.0 + 1e-9) + 1e-300
        ratios = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs > 0)
        report.max_budget_ratio = max(report.max_budget_ratio,
                                      float(ratios.max(initial=0.0)))
        for i in np.nonzero(bad)[0][:16]:
            report.violations.append({
                "kind": "mean-budget", "x": [float(c) for c in X[i]],
                "scale": float(s), "lhs": float(lhs[i]), "rhs": float(rhs[i])})
    report.probes = len(X) * len(scales)

    if quad_probes and len(X):
        pick = rng.choice(len(X), size=min(quad_probes, len(X)), replace=False)
        h1 = deltas[pick] / lam
        q_lo = np.maximum(X[pick] - h1[:, None], lo[None, :])
        q_hi = np.minimum(X[pick] + h1[:, None], hi[None, :])
        Vp = f.eval_batch(X[pick])
        cvals, cerrs = f.dev_integral_for_tags(q_lo, q_hi, X[pick], Vp)
        allow = budgets[pick] * np.prod(q_hi - q_lo, axis=1)

        for i in range(len(pick)):
            v = Vp[i]
            dev = lambda P: f.ynorm_rows(f.eval_batch(P) - v[None, :])[:, None]
            # the enclosure stays sound if the cell budget runs out; the
            # tolerance floor only keeps the overlap test informative
            qv, qe = adaptive_box_quadrature(
                dev, q_lo[i], q_hi[i], 1,
                tol=max(1e-12, 0.05 * float(cvals[i] + cerrs[i]),
                        0.1 * float(allow[i])),
                max_cells=6000, strict=False)
            qv = float(qv[0])
            upper = float(cvals[i] + cerrs[i])
            lower = float(cvals[i] - cerrs[i])
            if qv - qe > upper * (1 + 1e-9) + 1e-12 \
                    or qv + qe < lower * (1 - 1e-9) - 1e-12:
                report.violations.append({
                    "kind": "quadrature-disagrees",
                    "x": [float(c) for c in X[pick[i]]],
                    "closed_form": [lower, upper],
                    "quadrature": [qv - qe, qv + qe]})
        report.probes += len(pick)

    tube_boxes = _tube_boxes_from_provenance(g)
    A = _a_probe_points(f, rng, per_piece=8)
    for x in A:
        d = g(tuple(x))
        fn_norm = f.ynorm(f.eval(x))
        boxes = tube_boxes.get(value_bin(fn_norm), [])
        inside = any(all(a < c - d and c + d < b
                         for c, a, b in zip(x, bx.lo, bx.hi))
                     for bx in boxes)
        if not inside:
            report.violations.append({
                "kind": "tube-containment", "x": [float(c) for c in x],
                "delta": float(d)})
    report.a_probes = len(A)
    return report

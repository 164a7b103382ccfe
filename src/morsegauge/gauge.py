"""Gauge construction from corpus metadata.

The gauge has two branches.  Points on the declared jump set get half their
distance to the boundary of a thin open tube drawn around the jump pieces;
everyone else gets the certified mean-deviation radius for the budget of
their spatial shell.  Tube widths are solved so that each value-bin's tube
measure stays under its share of the budget and so that the total jump-mass
caught in the tubes stays under a quarter of the target accuracy; both caps
matter (the singular corpus entry exhausts the second one long before the
first).  Each tube keeps its jump pieces' corner arrays, from which its
measure, jump mass, clearance and report entry are derived, and its widths
come from bisections that stop once they converge in floats.  A width too
thin to move a piece's faces in floats makes the build infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusFunction
from .errors import BoundViolated, TubeInfeasible
from .geometry import Gauge, NormKind, bisect_last, norm_batch, norm_ratio
from .measure import RadonMeasure, measure_box_batch
from .quadrature import adaptive_box_quadrature_batch


def shell_index_batch(X: np.ndarray, domain_norm: NormKind) -> np.ndarray:
    """Per row, the unique n >= 1 with n-1 <= |x| < n."""
    r = norm_batch(np.atleast_2d(np.asarray(X, dtype=float)), domain_norm)
    return np.floor(r).astype(int) + 1


def shell_budget(eps: float, n: int, mu: RadonMeasure) -> float:
    """Per-shell mean-deviation budget eps * 2^(-n-2) / (1 + mu(universe)).

    The universe is a bounded box, so mu(E_n) <= mu(universe) for every
    shell E_n: no budget lies above the paper's eps * 2^(-n-2) / (1 + mu(E_n))
    and the sum over shells stays under eps."""
    if eps <= 0 or n < 1:
        raise ValueError("need eps > 0 and n >= 1")
    return eps * 2.0 ** (-n - 2) / (1.0 + mu.total)


def shell_budget_table(eps: float, mu: RadonMeasure,
                       domain_norm: NormKind) -> np.ndarray:
    """Budgets of shells 1..n_max, where n_max is the shell of the farthest
    universe corner; entry n - 1 belongs to shell n."""
    n_max = int(shell_index_batch(mu.universe.corners(), domain_norm).max())
    return np.array([shell_budget(eps, n, mu)
                     for n in range(1, n_max + 1)])


def value_bin(norms) -> np.ndarray:
    """Half-open value bins, per row: n - 1 <= ||f(x)|| < n."""
    return np.floor(norms).astype(int) + 1


# share of eps the jump tubes may take, as measure per value bin and as
# jump mass in all
TUBE_SAFETY = 0.5
# fraction of each shell budget handed to the radius certificates
MARGIN = 0.9


@dataclass(frozen=True)
class GaugeBuildParams:
    eps: float
    domain_norm: NormKind = NormKind.TWO

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True)
class NullTube:
    """Open box-union around the jump pieces of one value bin; box i has
    the (k, d) corner rows lo[i] and hi[i]."""

    n: int
    lo: np.ndarray
    hi: np.ndarray
    measure: float
    width: float
    budget: float

    def clearance(self, X) -> np.ndarray:
        """Per row of the (N, d) points, the sup over boxes holding it of
        the minimal face distance, or 0: a box holds a point just when
        that distance is positive."""
        X = np.atleast_2d(np.asarray(X, dtype=float))[:, None]
        gaps = np.minimum(X - self.lo, self.hi - X).min(axis=2)
        return gaps.max(axis=1, initial=0.0)

    def to_dict(self) -> dict:
        return {"n": self.n,
                "boxes": [list(b) for b in zip(self.lo.tolist(),
                                               self.hi.tolist())],
                "measure": self.measure,
                "width": self.width,
                "budget": self.budget}


def build_null_tubes(f: CorpusFunction, eps: float,
                     mu: RadonMeasure) -> list[NullTube]:
    """Open tubes around the declared jump pieces, one per value bin.

    Per bin the tube measure is bisected to 0.99 of TUBE_SAFETY * eps /
    (n * 2^(n+2)); afterwards every width is shrunk by a common factor until
    the total jump mass inside the tubes is below TUBE_SAFETY * eps / 4 and
    the total measure is below the absolute-continuity modulus at eps / 4.
    A width too thin to move a piece's faces in floats is infeasible.
    """
    lo, hi, values = f.discontinuities()
    if np.any((hi - lo).prod(axis=1) > 0):
        raise TubeInfeasible("declared jump piece has positive measure")
    bins = value_bin(f.ynorm_rows(values))
    # bins in order of first appearance, which the caps sum in so that the
    # widths keep their bits; the widths and tubes go in sorted bin order
    corners = {n: (lo[bins == n], hi[bins == n])
               for n in dict.fromkeys(bins.tolist())}

    def tube(n: int, w: float):
        """The parts inside the universe of bin n's boxes at width w, for
        the boxes that meet it, in box order."""
        lo, hi = corners[n]
        a = np.maximum(lo - w, mu.universe.lo)
        b = np.minimum(hi + w, mu.universe.hi)
        meet = np.all(a <= b, axis=1)
        return a[meet], b[meet]

    def measure(a: np.ndarray, b: np.ndarray) -> float:
        # box by box in order, not numpy's pairwise order, so the widths
        # keep their bits
        return sum(measure_box_batch(mu, a, b).tolist(), 0.0)

    widths: dict[int, float] = {}
    for n in sorted(corners):
        target = 0.99 * TUBE_SAFETY * eps / (n * 2.0 ** (n + 2))
        widths[n] = bisect_last(
            lambda w: measure(*tube(n, w)) <= target, 0.0, 1.0, 200)
        if widths[n] <= 0.0:
            raise TubeInfeasible(f"no admissible width for value bin {n}")

    # common shrink for the global jump-mass and modulus caps; overlapping
    # boxes double-count the mass upward
    mass_cap = TUBE_SAFETY * eps / 4.0
    meas_cap = 0.99 * f.ac_modulus(eps / 4.0, mu.w0)

    def caps_ok(scale: float) -> bool:
        mass = meas = 0.0
        for n in corners:
            a, b = tube(n, scale * widths[n])
            mass += sum((f.abs_integral_batch(a, b) * mu.w0).tolist(), 0.0)
            meas += measure(a, b)
        return mass <= mass_cap and meas <= meas_cap

    scale = bisect_last(caps_ok, 0.0, 1.0, 200)
    if scale <= 0.0:
        raise TubeInfeasible("jump-mass cap admits no positive width")

    tubes = []
    for n, (lo, hi) in sorted(corners.items()):
        w = scale * widths[n]
        if not (np.all(lo - w < lo) and np.all(hi + w > hi)):
            raise TubeInfeasible(f"tube width {w} of value bin {n} is below "
                                 "float resolution at its jump pieces")
        meas = measure(*tube(n, w))
        budget = TUBE_SAFETY * eps / (n * 2.0 ** (n + 2))
        if not meas < budget:
            raise TubeInfeasible(f"tube measure {meas} not under budget {budget}")
        tubes.append(NullTube(n=n, lo=lo - w, hi=hi + w, measure=meas,
                              width=w, budget=budget))
    return tubes


def build_gauge(f: CorpusFunction, mu: RadonMeasure, p: GaugeBuildParams) -> Gauge:
    """Total gauge on the universe: tube-clearance halves on the jump set,
    certified shell-budget radii elsewhere.  The density must be uniform:
    the radii certify Lebesgue means."""
    lam = norm_ratio(NormKind.INF, p.domain_norm, f.dim_in)
    tubes = build_null_tubes(f, p.eps, mu)

    budgets_by_shell = shell_budget_table(p.eps, mu, p.domain_norm)
    n_max = len(budgets_by_shell)
    cert_budgets = budgets_by_shell * MARGIN

    def a_branch(X: np.ndarray) -> np.ndarray:
        bins = value_bin(f.ynorm_rows(f.eval_batch(X)))
        clear = np.full(len(X), -1.0)  # -1 where the point's bin has no tube
        for t in tubes:
            clear[bins == t.n] = t.clearance(X[bins == t.n])
        # the first point without a positive clearance, in input order
        for i in np.nonzero(clear <= 0.0)[0][:1]:
            why = f"has no tube in bin {bins[i]}" if clear[i] < 0 else "escapes its tube"
            raise BoundViolated(f"jump point {tuple(X[i])} {why}")
        return 0.5 * np.minimum(1.0, clear)

    def batch(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        shells = np.clip(shell_index_batch(X, p.domain_norm), 1, n_max)
        h = f.certified_halfside_batch(X, cert_budgets[shells - 1])
        # an infinite halfside is an uncapped reach; a NaN stays NaN, so
        # Gauge.delta_batch rejects it
        out = np.minimum(1.0, h * lam)
        # the certified halfside is zero at declared jumps, so every point
        # takes the line above and the jump entries are then replaced
        on = f.on_discontinuity_batch(X)
        if on.any():
            out[on] = a_branch(X[on])
        return out

    def bounds(los: np.ndarray, his: np.ndarray):
        # the budgets batch reads in the shells the box's norms [near, far] meet
        near = norm_batch(np.clip(0.0, los, his), p.domain_norm)
        far = norm_batch(np.maximum(-los, his), p.domain_norm)
        shells = np.arange(1, n_max + 1)
        first, last = (np.clip(np.floor(v).astype(int) + 1, 1, n_max)[:, None]
                       for v in (near, far))
        meets = (first <= shells) & (shells <= last)
        b_lo = np.where(meets, cert_budgets, np.inf).min(axis=1)
        b_hi = np.where(meets, cert_budgets, -np.inf).max(axis=1)
        lo, hi = (np.minimum(1.0, h * lam)
                  for h in f.halfside_bounds(near, far, b_lo, b_hi))
        # none at a box holding a declared jump point, where the tubes rule
        jump_lo, jump_hi, _ = f.discontinuities()
        jump = (np.all(jump_lo[None] <= his[:, None], axis=2)
                & np.all(los[:, None] <= jump_hi[None], axis=2)).any(axis=1)
        lo[jump], hi[jump] = 0.0, 1.0
        return lo, hi

    provenance = {
        "kind": "shell-budget",
        "fn": f.name,
        "eps": p.eps,
        "domain_norm": p.domain_norm.value,
        "shape": "cube",
        "lambda": lam,
        "margin": MARGIN,
        "tube_safety": TUBE_SAFETY,
        "gamma": f.ac_modulus(p.eps / 4.0, mu.w0),
        "shell_budgets": [float(b) for b in budgets_by_shell],
        "tubes": [t.to_dict() for t in tubes],
    }
    return Gauge(batch=batch, provenance=provenance,
                 bounds_batch=None if f.halfside_bounds is None else bounds)


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


def _a_probe_points(f: CorpusFunction, rng: np.random.Generator, per_piece: int):
    """Each jump piece's corners, centre and per_piece - 3 uniform points,
    drawn piece by piece; sorted, without repeats."""
    lo, hi, _ = f.discontinuities()
    u = rng.uniform(size=(len(lo), per_piece - 3, f.dim_in))
    inner = lo[:, None] + u * (hi - lo)[:, None]
    return np.unique(np.concatenate([lo, hi, 0.5 * (lo + hi),
                                     inner.reshape(-1, f.dim_in)]), axis=0)


def soundness_sweep(f: CorpusFunction, g: Gauge, mu: RadonMeasure,
                    p: GaugeBuildParams, n_probes: int = 10_000,
                    seed: int = 0) -> SweepReport:
    """Probe the gauge and recheck both branch guarantees from scratch.

    Interior probes: for family sets at the probe's full gauge reach (and a
    smaller one), the weighted mean deviation must stay within the shell
    budget with no margin applied.  Jump probes: the closed reach ball must
    sit strictly inside the probe's tube.  Up to 128 random interior probes
    re-evaluate the deviation integral by adaptive quadrature that never
    touches the closed-form oracles, so a broken certificate and a broken
    oracle cannot cancel.
    """
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

    # each probe's full reach and a smaller one; the quadrature cross-check
    # below re-derives the full reach of up to 128 probes
    scales = 1.0 / (1.6 ** np.arange(2))
    pick = rng.choice(len(X), size=min(128, len(X)), replace=False)
    V = f.eval_batch(X)
    for s in scales:
        h = deltas * s / lam
        los = np.maximum(X - h[:, None], lo[None, :])
        his = np.minimum(X + h[:, None], hi[None, :])
        vals, errs = f.dev_integral_for_tags(los, his, X, V)
        if s == 1.0:
            q_lo, q_hi, cvals, cerrs = (a[pick]
                                        for a in (los, his, vals, errs))
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

    if len(X):
        Vp = V[pick]
        allow = budgets[pick] * np.prod(q_hi - q_lo, axis=1)

        # the enclosure stays sound if the cell budget runs out; the
        # tolerance floor only keeps the overlap test informative
        tols = [max(1e-12, 0.05 * float(cvals[i] + cerrs[i]),
                    0.1 * float(allow[i])) for i in range(len(pick))]
        qvs, qes = adaptive_box_quadrature_batch(
            lambda P, owner: f.ynorm_rows(f.eval_batch(P) - Vp[owner])[:, None],
            q_lo, q_hi, 1, tols, max_cells=6000, strict=False)
        for i in range(len(pick)):
            qv, qe = float(qvs[i, 0]), float(qes[i])
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

    # each probe's reach box must sit strictly inside a box of its bin's
    # tube, read as (k, 2, d) corner arrays from the provenance
    A = _a_probe_points(f, rng, per_piece=8)
    D = g.delta_batch(A)
    bins = value_bin(f.ynorm_rows(f.eval_batch(A)))
    a, b = (A - D[:, None])[:, None], (A + D[:, None])[:, None]
    held = np.zeros(len(A), dtype=bool)
    for t in g.provenance.get("tubes", []):
        box, mine = np.array(t["boxes"]), bins == t["n"]
        held[mine] = np.all((box[:, 0] < a[mine]) & (b[mine] < box[:, 1]),
                            axis=2).any(axis=1)
    for i in np.nonzero(~held)[0]:
        report.violations.append({
            "kind": "tube-containment", "x": [float(c) for c in A[i]],
            "delta": float(D[i])})
    report.a_probes = len(A)
    return report

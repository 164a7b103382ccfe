"""Riemann-sum certification against exact integrals.

Everything here compares three quantities per tagged family: the simple sum
Sum f(tag_i) mu(S_i), the exact weighted integral, and the certified L1
deviation Sum Int_{S_i} ||f - f(tag_i)|| plus residual and tail mass.  The
theorem verifier builds the gauge, sieves, and asserts the accuracy chain on
the base family and on randomized refinements; the corollary verifier reuses
the same family for the set-function claims.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusFunction
from .errors import BoundViolated
from .gauge import GaugeBuildParams, build_gauge, shell_budget, soundness_sweep
from .geometry import Box, Gauge, NormKind
from .measure import RadonMeasure, require_uniform
from .partition import SieveParams, TaggedFamily, dyadic_sieve, refine_family, verify_family

_REL = 1e-9


@dataclass
class ApproximationReport:
    fn: str
    eps: float
    trial: int
    cell_count: int
    residual_measure: float
    exact: tuple
    simple: tuple
    l1_partition: float
    l1_partition_error: float
    residual_abs: float
    tail_abs: float
    l1_total: float
    local_error_sum: float
    truncation_error: float
    truncation_index: int
    depth_histogram: dict = field(default_factory=dict)
    pass_flags: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return all(self.pass_flags.values())

    def to_dict(self) -> dict:
        return {
            "fn": self.fn, "eps": self.eps, "trial": self.trial,
            "cell_count": self.cell_count,
            "residual_measure": self.residual_measure,
            "exact": list(self.exact), "simple": list(self.simple),
            "l1_partition": self.l1_partition,
            "l1_partition_error": self.l1_partition_error,
            "residual_abs": self.residual_abs, "tail_abs": self.tail_abs,
            "l1_total": self.l1_total,
            "local_error_sum": self.local_error_sum,
            "truncation_error": self.truncation_error,
            "truncation_index": self.truncation_index,
            "depth_histogram": {str(k): v
                                for k, v in self.depth_histogram.items()},
            "pass_flags": self.pass_flags, "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def simple_sum(fam: TaggedFamily, f: CorpusFunction, mu: RadonMeasure) -> np.ndarray:
    """Sum of f(tag) * mu(set) over the family, in canonical order."""
    if len(fam) == 0:
        return np.zeros(f.dim_out)
    F = f.eval_batch(fam.tags)
    w = fam.measures(mu)
    return F.T @ w


def _cell_devs(fam: TaggedFamily, f: CorpusFunction) -> tuple[np.ndarray, np.ndarray]:
    if len(fam) == 0:
        z = np.zeros(0)
        return z, z
    V = f.eval_batch(fam.tags)
    return f.dev_integral_for_tags(fam.los, fam.his, fam.tags, V)


def l1_deviation_parts(fam: TaggedFamily, f: CorpusFunction,
                       mu: RadonMeasure) -> dict:
    """Certified upper bound on the L1 distance between f and its simple
    approximation, split into partition, quadrature-error, residual, and
    tail contributions."""
    require_uniform(mu)
    vals, errs = _cell_devs(fam, f)
    part = mu.w0 * float(vals.sum())
    part_err = mu.w0 * float(errs.sum())
    if len(fam.residual_los):
        res = mu.w0 * float(
            f.abs_integral_batch(fam.residual_los, fam.residual_his).sum())
    else:
        res = 0.0
    tail = f.tail_abs
    return {"partition": part, "partition_error": part_err,
            "residual_abs": res, "tail_abs": tail,
            "total": part + part_err + res + tail}


def local_error_sum(fam: TaggedFamily, f: CorpusFunction,
                    mu: RadonMeasure) -> float:
    """Sum over cells of || w0 * Int_{S_i} f - f(tag_i) mu(S_i) ||_Y."""
    if len(fam) == 0:
        return 0.0
    ints = mu.w0 * f.integral_batch(fam.los, fam.his)
    F = f.eval_batch(fam.tags)
    w = fam.measures(mu)
    return float(f.ynorm_rows(ints - F * w[:, None]).sum())


def truncation_profile(fam: TaggedFamily, f: CorpusFunction, mu: RadonMeasure,
                       threshold: float) -> tuple[float, int]:
    """Worst partial-sum error from the first canonical index at which the
    still-uncovered measure drops under the threshold."""
    if len(fam) == 0:
        return float(f.ynorm(mu.w0 * f.exact_integral(mu.universe))), 0
    F = f.eval_batch(fam.tags)
    w = fam.measures(mu)
    partial = np.cumsum(F * w[:, None], axis=0)
    # uncovered after k cells still includes the residual, so the threshold
    # passed in must sit at or above it
    uncovered = float(mu.total) - np.cumsum(w)
    eligible = uncovered <= threshold + 1e-15
    if not eligible.any():
        m0 = len(fam) - 1
    else:
        m0 = int(np.argmax(eligible))
    exact = mu.w0 * f.exact_integral(mu.universe)
    errto = f.ynorm_rows(exact[None, :] - partial[m0:])
    k = int(np.argmax(errto))
    return float(errto.max()), m0 + k


@dataclass(frozen=True)
class SetFunction:
    """The weighted vector integral as a function of finite box unions."""

    f: CorpusFunction
    mu: RadonMeasure

    def on_box(self, b: Box) -> np.ndarray:
        inter = self.mu.universe.intersect(b)
        if inter is None:
            return np.zeros(self.f.dim_out)
        return self.mu.w0 * self.f.exact_integral(inter)

    def on_boxes(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Row-wise values on disjoint boxes already inside the universe."""
        return self.mu.w0 * self.f.integral_batch(los, his)

    def total(self) -> np.ndarray:
        return self.on_box(self.mu.universe)

    def abs_total(self) -> float:
        return self.mu.w0 * self.f.abs_total() + self.f.tail_abs


def make_integral_set_function(f: CorpusFunction, mu: RadonMeasure) -> SetFunction:
    return SetFunction(f, mu)


def default_eta(f: CorpusFunction, eps: float, w0: float) -> float:
    return min(f.ac_modulus(eps / 4.0, w0), eps * 1e-2)


def default_sieve_depth(dim: int) -> int:
    # the singular 1-d entry needs ~3 extra levels for every factor-of-2 in eps
    return 56 if dim == 1 else 26


def _assert_flags(report: ApproximationReport):
    if not report.ok():
        bad = [k for k, v in report.pass_flags.items() if not v]
        raise BoundViolated(f"bounds failed: {', '.join(bad)}", report)


def _check_family(fam: TaggedFamily, g: Gauge, mu: RadonMeasure, eta: float,
                  context: str):
    notes: dict = {}
    if not verify_family(fam, g, mu, eta, report=notes):
        raise BoundViolated(
            f"family verification failed ({context}): {notes.get('reason')}",
            notes)


def build_report(fam: TaggedFamily, f: CorpusFunction, mu: RadonMeasure,
                 eps: float, trial: int) -> ApproximationReport:
    parts = l1_deviation_parts(fam, f, mu)
    exact = mu.w0 * f.exact_integral(mu.universe)
    simple = simple_sum(fam, f, mu)
    local = local_error_sum(fam, f, mu)
    gamma = f.ac_modulus(eps / 4.0, mu.w0)
    threshold = max(0.999 * gamma, fam.residual_measure * (1 + 1e-12))
    trunc, trunc_idx = truncation_profile(fam, f, mu, threshold)

    gap = float(f.ynorm(exact - simple))
    slack = parts["residual_abs"] + parts["tail_abs"]
    l1p = parts["partition"] + parts["partition_error"]
    flags = {
        "l1_partition_lt_eps": l1p < eps,
        "l1_total_lt_eps_plus_slack": parts["total"] < eps + slack + 1e-15,
        "local_error_lt_eps": local < eps,
        "truncation_lt_3eps": trunc < 3.0 * eps,
        "local_le_l1": local <= l1p * (1 + _REL) + 1e-15,
        "gap_le_l1_total": gap <= parts["total"] * (1 + _REL) + 1e-15,
        "gap_le_l1_partition_plus_slack":
            gap - slack <= l1p * (1 + _REL) + 1e-15,
    }
    return ApproximationReport(
        fn=f.name, eps=eps, trial=trial, cell_count=len(fam),
        residual_measure=fam.residual_measure,
        exact=tuple(float(v) for v in exact),
        simple=tuple(float(v) for v in simple),
        l1_partition=parts["partition"],
        l1_partition_error=parts["partition_error"],
        residual_abs=parts["residual_abs"], tail_abs=parts["tail_abs"],
        l1_total=parts["total"], local_error_sum=local,
        truncation_error=trunc, truncation_index=trunc_idx,
        depth_histogram=fam.depth_histogram(), pass_flags=flags)


def verify_theorem(f: CorpusFunction, mu: RadonMeasure, eps: float,
                   trials: int = 5, seed: int = 0,
                   domain_norm: NormKind = NormKind.TWO,
                   max_depth: int | None = None,
                   eta: float | None = None, sweep_probes: int = 256,
                   _gauge_hook=None, _family_hook=None
                   ) -> list[ApproximationReport]:
    """Build the gauge, sieve, and certify the accuracy chain per trial.

    Trial 0 is the raw sieve output; later trials randomly refine ~15% of
    its cells.  Raises BoundViolated with the offending report when any
    asserted inequality fails; the private hooks let the falsification modes
    degrade the gauge or the family before verification.
    """
    require_uniform(mu)
    p = GaugeBuildParams(eps=eps, domain_norm=domain_norm)
    g = build_gauge(f, mu, p)
    if _gauge_hook is not None:
        g = _gauge_hook(g)

    sweep = soundness_sweep(f, g, mu, p, n_probes=sweep_probes, seed=seed)
    if not sweep.ok():
        raise BoundViolated(
            f"gauge soundness sweep found {len(sweep.violations)} violations",
            sweep.to_dict())

    if eta is None:
        eta = default_eta(f, eps, mu.w0)
    if max_depth is None:
        max_depth = default_sieve_depth(f.dim_in)
    sp = SieveParams(eta=eta, max_depth=max_depth)
    base = dyadic_sieve(mu.universe, g, mu, sp, domain_norm)

    rng = np.random.default_rng(seed)
    reports = []
    for t in range(max(1, trials)):
        fam = base if t == 0 else refine_family(base, 0.15, rng)
        if _family_hook is not None:
            fam = _family_hook(fam, rng)
        _check_family(fam, g, mu, eta, context=f"trial {t}")
        report = build_report(fam, f, mu, eps, trial=t)
        report.notes["eta"] = eta
        report.notes["sweep_max_budget_ratio"] = sweep.max_budget_ratio
        _assert_flags(report)
        reports.append(report)
    return reports


@dataclass
class CorollaryReport:
    fn: str
    eps: float
    riemann_gap: float
    abs_total: float
    worst_family_mass: float
    witness_mass: float
    reconstruction_gap: float
    random_families: int
    pass_flags: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return all(self.pass_flags.values())

    def to_dict(self) -> dict:
        return {"fn": self.fn, "eps": self.eps,
                "riemann_gap": self.riemann_gap,
                "abs_total": self.abs_total,
                "worst_family_mass": self.worst_family_mass,
                "witness_mass": self.witness_mass,
                "reconstruction_gap": self.reconstruction_gap,
                "random_families": self.random_families,
                "pass_flags": self.pass_flags}


def _family_mass(G: SetFunction, fam: TaggedFamily) -> float:
    if len(fam) == 0:
        return 0.0
    vals = G.on_boxes(fam.los, fam.his)
    return float(G.f.ynorm_rows(vals).sum())


def verify_corollary(f: CorpusFunction, mu: RadonMeasure, eps: float,
                     seed: int = 0, domain_norm: NormKind = NormKind.TWO,
                     n_random: int = 20,
                     base: TaggedFamily | None = None) -> CorollaryReport:
    """Set-function form of the approximation statement.

    (a) the local Riemann gap against G stays under eps on a gauge-fine
    family; (b) every disjoint family keeps Sum ||G(S_i)|| under the total
    mass, probed on the gauge family plus n_random random partitions, while
    a piece-aligned witness gets within eps/2 of it; (c) the simple sum plus
    residual correction reconstructs G(universe) within 2 eps.
    """
    from .partition import random_dyadic_partition

    require_uniform(mu)
    G = make_integral_set_function(f, mu)
    if base is None:
        p = GaugeBuildParams(eps=eps, domain_norm=domain_norm)
        g = build_gauge(f, mu, p)
        sp = SieveParams(eta=default_eta(f, eps, mu.w0),
                         max_depth=default_sieve_depth(f.dim_in))
        base = dyadic_sieve(mu.universe, g, mu, sp, domain_norm)

    riemann_gap = local_error_sum(base, f, mu)
    abs_total = G.abs_total()

    rng = np.random.default_rng(seed)
    worst = _family_mass(G, base)
    for _ in range(n_random):
        fam = random_dyadic_partition(mu.universe, rng,
                                      max_level=min(6, default_sieve_depth(f.dim_in)),
                                      domain_norm=domain_norm)
        worst = max(worst, _family_mass(G, fam))

    witness_level = max(1, f.aligned_depth)
    witness = random_dyadic_partition(mu.universe, rng,
                                      max_level=witness_level, stop_prob=0.0,
                                      domain_norm=domain_norm)
    witness_mass = _family_mass(G, witness)

    simple = simple_sum(base, f, mu)
    if len(base.residual_los):
        residual_vec = mu.w0 * f.integral_batch(
            base.residual_los, base.residual_his).sum(axis=0)
    else:
        residual_vec = np.zeros(f.dim_out)
    recon = float(f.ynorm(G.total() - simple - residual_vec))

    flags = {
        "riemann_gap_lt_eps": riemann_gap < eps,
        "mass_bounded": worst <= abs_total + 1e-9,
        "witness_near_total": witness_mass >= abs_total - 0.5 * eps,
        "reconstruction_lt_2eps": recon < 2.0 * eps,
    }
    report = CorollaryReport(
        fn=f.name, eps=eps, riemann_gap=riemann_gap, abs_total=abs_total,
        worst_family_mass=worst, witness_mass=witness_mass,
        reconstruction_gap=recon, random_families=n_random,
        pass_flags=flags)
    if not report.ok():
        bad = [k for k, v in flags.items() if not v]
        raise BoundViolated(f"corollary bounds failed: {', '.join(bad)}",
                            report)
    return report

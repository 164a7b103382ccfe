"""Riemann-sum certification against exact integrals.

Everything here compares three quantities per tagged family: the simple sum
Sum f(tag_i) mu(S_i), the exact weighted integral, and the certified L1
deviation Sum Int_{S_i} ||f - f(tag_i)|| plus residual and tail mass.  The
theorem verifier builds the gauge, sieves, and asserts the accuracy chain on
the base family and on randomized refinements; the corollary verifier reuses
the same family for the set-function claims.  Every per-cell sum comes from
one walk over the family's chunks, so memory stays at a few chunks however
large the family grows.  In the theorem verifier that walk also checks
the family, so each trial walks it once and its verdict comes before any
bound; the residual frontier, which refinement keeps, is integrated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusFunction
from .errors import BoundViolated
from .gauge import GaugeBuildParams, build_gauge, shell_budget, soundness_sweep
from .geometry import Box, NormKind
from .measure import RadonMeasure, measure_box_batch, require_uniform
from .partition import FamilyCheck, SieveParams, TaggedFamily, dyadic_sieve, refine_family

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


def _fsum_rows(parts: list[np.ndarray], width: int) -> np.ndarray:
    """Component-wise correctly rounded sum of per-chunk partial vectors."""
    if not parts:
        return np.zeros(width)
    return np.array([math.fsum(col) for col in zip(*parts)])


def _family_sums(fam: TaggedFamily, f: CorpusFunction, mu: RadonMeasure,
                 threshold: float | None = None, deviations: bool = True,
                 check: FamilyCheck | None = None) -> dict:
    """Every per-cell sum the reports need, in one walk over the family's
    chunks: the simple sum Sum f(tag) mu(S), the local error
    Sum ||w0 Int_S f - f(tag) mu(S)||, the cells per level, the deviation
    integrals and their certified errors (if `deviations` is false, the
    family mass Sum ||w0 Int_S f|| instead) and, given a threshold, the
    truncation profile.  Given a check, each chunk is checked first and
    from the first failing chunk on only the check runs, so no sum kernel
    sees a corrupt cell; take its verdict before using the sums.

    Sums combine per-chunk numpy partials with math.fsum.  The prefix sums
    of the truncation profile carry across chunks, so they are bit for bit
    one cumsum over the whole family.
    """
    w0 = mu.w0
    simple, local, dev, dev_err, mass = [], [], [], [], []
    depths = np.zeros(int(fam.levels.max(initial=-1)) + 1, dtype=np.int64)
    exact = w0 * f.exact_integral(mu.universe)
    total = float(mu.total)
    carry_w, carry_p = 0.0, np.zeros(f.dim_out)
    m0 = None
    trunc = (float(f.ynorm(exact)), 0)
    for c in fam.chunks():
        w = measure_box_batch(mu, c.los, c.his)
        if check is not None and not check.add(c, w):
            continue
        depths += np.bincount(c.levels, minlength=len(depths))
        F = f.eval_batch(c.tags)
        Fw = F * w[:, None]
        simple.append(Fw.sum(axis=0))
        ints = w0 * f.integral_batch(c.los, c.his)
        local.append(float(f.ynorm_rows(ints - Fw).sum()))
        if deviations:
            vals, errs = f.dev_integral_for_tags(c.los, c.his, c.tags, F)
            dev.append(float(vals.sum()))
            dev_err.append(float(errs.sum()))
        else:
            mass.append(float(f.ynorm_rows(ints).sum()))
        if threshold is None:
            continue
        covered = np.cumsum(np.concatenate(([carry_w], w)))[1:]
        partial = np.cumsum(np.concatenate((carry_p[None, :], Fw)), axis=0)[1:]
        carry_w, carry_p = covered[-1], partial[-1]
        j = 0
        if m0 is None:
            # uncovered after k cells still includes the residual, so the
            # threshold passed in must sit at or above it
            eligible = total - covered <= threshold + 1e-15
            if not eligible.any():
                continue
            j = int(np.argmax(eligible))
            m0 = c.start + j
            trunc = (-math.inf, m0)
        errto = f.ynorm_rows(exact[None, :] - partial[j:])
        k = int(np.argmax(errto))
        if errto[k] > trunc[0]:
            trunc = (float(errto[k]), c.start + j + k)
    if threshold is not None and m0 is None and len(fam):
        trunc = (float(f.ynorm_rows(exact[None, :] - carry_p[None, :])[0]),
                 len(fam) - 1)
    return {"simple": _fsum_rows(simple, f.dim_out), "local": math.fsum(local),
            "dev": math.fsum(dev), "dev_err": math.fsum(dev_err),
            "mass": math.fsum(mass), "truncation": trunc,
            "depth_histogram": {k: int(v) for k, v in enumerate(depths) if v}}


def _residual_abs(fam: TaggedFamily, f: CorpusFunction,
                  mu: RadonMeasure) -> float:
    """w0 Sum Int ||f|| over the residual frontier."""
    return mu.w0 * math.fsum(float(f.abs_integral_batch(los, his).sum())
                             for los, his in fam.residual_boxes())


def _l1_parts(f: CorpusFunction, mu: RadonMeasure, sums: dict,
              res: float) -> dict:
    part = mu.w0 * sums["dev"]
    part_err = mu.w0 * sums["dev_err"]
    tail = f.tail_abs
    return {"partition": part, "partition_error": part_err,
            "residual_abs": res, "tail_abs": tail,
            "total": part + part_err + res + tail}


def simple_sum(fam: TaggedFamily, f: CorpusFunction, mu: RadonMeasure) -> np.ndarray:
    """Sum of f(tag) * mu(set) over the family, in canonical order."""
    return _family_sums(fam, f, mu)["simple"]


def l1_deviation_parts(fam: TaggedFamily, f: CorpusFunction,
                       mu: RadonMeasure) -> dict:
    """Certified upper bound on the L1 distance between f and its simple
    approximation, split into partition, quadrature-error, residual, and
    tail contributions."""
    require_uniform(mu)
    return _l1_parts(f, mu, _family_sums(fam, f, mu), _residual_abs(fam, f, mu))


def local_error_sum(fam: TaggedFamily, f: CorpusFunction,
                    mu: RadonMeasure) -> float:
    """Sum over cells of || w0 * Int_{S_i} f - f(tag_i) mu(S_i) ||_Y."""
    return _family_sums(fam, f, mu)["local"]


def truncation_profile(fam: TaggedFamily, f: CorpusFunction, mu: RadonMeasure,
                       threshold: float) -> tuple[float, int]:
    """Worst partial-sum error from the first canonical index at which the
    still-uncovered measure drops under the threshold."""
    return _family_sums(fam, f, mu, threshold)["truncation"]


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


def build_report(fam: TaggedFamily, f: CorpusFunction, mu: RadonMeasure,
                 eps: float, trial: int, check: FamilyCheck | None = None,
                 residual_abs: float | None = None) -> ApproximationReport:
    """The accuracy chain of one family, from one walk over its chunks.
    Given a check, that walk also verifies the family and a failed verdict
    raises BoundViolated; given residual_abs, the frontier is not re-walked.
    """
    require_uniform(mu)
    gamma = f.ac_modulus(eps / 4.0, mu.w0)
    threshold = max(0.999 * gamma, fam.residual_measure * (1 + 1e-12))
    sums = _family_sums(fam, f, mu, threshold, check=check)
    notes: dict = {}
    if check is not None and not check.verdict(notes):
        raise BoundViolated(f"family verification failed (trial {trial}): "
                            f"{notes.get('reason')}", notes)
    if residual_abs is None:
        residual_abs = _residual_abs(fam, f, mu)
    parts = _l1_parts(f, mu, sums, residual_abs)
    exact = mu.w0 * f.exact_integral(mu.universe)
    simple, local = sums["simple"], sums["local"]
    trunc, trunc_idx = sums["truncation"]

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
        depth_histogram=sums["depth_histogram"], pass_flags=flags)


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

    # refinement keeps the base's residual frontier, so its term is shared
    residual_abs = _residual_abs(base, f, mu)
    rng = np.random.default_rng(seed)
    reports = []
    for t in range(max(1, trials)):
        fam = base if t == 0 else refine_family(base, 0.15, rng)
        if _family_hook is not None:
            fam = _family_hook(fam, rng)
        report = build_report(fam, f, mu, eps, trial=t,
                              check=FamilyCheck(fam, g, mu, eta),
                              residual_abs=residual_abs)
        report.notes["eta"] = eta
        report.notes["sweep_max_budget_ratio"] = sweep.max_budget_ratio
        _assert_flags(report)
        reports.append(report)
        # the next trial's refinement need not coexist with this one
        del fam
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
    return math.fsum(float(G.f.ynorm_rows(G.on_boxes(c.los, c.his)).sum())
                     for c in fam.chunks())


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

    sums = _family_sums(base, f, mu, deviations=False)
    riemann_gap = sums["local"]
    abs_total = G.abs_total()

    rng = np.random.default_rng(seed)
    worst = sums["mass"]
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

    residual_vec = mu.w0 * _fsum_rows(
        [f.integral_batch(los, his).sum(axis=0)
         for los, his in base.residual_boxes()], f.dim_out)
    recon = float(f.ynorm(G.total() - sums["simple"] - residual_vec))

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

"""Riemann-sum certification against exact integrals.

Everything here compares three quantities per tagged family: the simple sum
Sum f(tag_i) mu(S_i), the exact weighted integral, and the certified L1
deviation Sum Int_{S_i} ||f - f(tag_i)|| plus residual mass.  The
theorem verifier builds the gauge, sieves, and asserts the accuracy chain on
the base family and on randomized refinements.  The corollary verifier
checks the gauge family and takes its Riemann gap and simple sum in one
walk of it, and each family's mass Sum ||w0 Int_S f|| from a separate
chunked sum, which the random partitions and the witness share.  Every
per-cell sum comes from one walk over the family's chunks, so memory stays
at a few chunks however large the family grows.  One walk carries the base
family and up to TRIALS_PER_WALK refinements of it, the base being the
refinement that splits nothing, and checks and evaluates each distinct cell
once; a refinement's sums and depth histogram are the base's, less the cells
it splits, plus their children.  Every total is one math.fsum of the exact
parts its pieces gave, the correctly rounded sum of its per-cell terms, so
no walk's cut changes it and each report is that of its built family.  The
residual frontier, which refinement keeps, is integrated once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import chain

import numpy as np

from .corpus import CorpusFunction
from .errors import BoundViolated
from .gauge import GaugeBuildParams, build_gauge, soundness_sweep
from .geometry import Gauge, NormKind, exact_parts
from .measure import RadonMeasure, measure_box_batch
from . import partition
from .partition import (FamilyCheck, TaggedFamily, check_cells, dyadic_sieve,
                        expand, random_dyadic_partition, refinement_choice)

_REL = 1e-9
# refined trials one walk of the base family carries; more trials take more
# walks, so memory does not grow with the trial count
TRIALS_PER_WALK = 8
# rows of a walk's pool of per-cell values: the local error, the deviation
# integral and its certified error, the mass w, then f(tag) w
_LOCAL, _DEV, _ERR, _W = range(4)


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
    tail_abs: float  # 0.0: the integrands vanish off the universe
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
        out = asdict(self)
        # string keys, so sort_keys orders them as text ("10" before "2")
        out["depth_histogram"] = {str(k): v
                                  for k, v in self.depth_histogram.items()}
        return out


def _cell_values(f: CorpusFunction, mu: RadonMeasure, los: np.ndarray,
                 his: np.ndarray, tags: np.ndarray, vals: np.ndarray):
    """Every per-cell term a report sums, for the cells (los, his, tags):
    the local error ||w0 Int_S f - f(tag) w||, the deviation integral with
    its certified error, the mass w and f(tag) w, cell i's in column i of
    vals.  The walk hands it one KERNEL_ROWS batch at a time, so the kernels'
    temporaries stay small however many children a chunk's trials add."""
    w = vals[_W] = measure_box_batch(mu, los, his)
    F = f.eval_batch(tags)
    Fw = F * w[:, None]
    vals[_W + 1:] = Fw.T
    vals[_LOCAL] = f.ynorm_rows(mu.w0 * f.integral_batch(los, his) - Fw)
    vals[_DEV], vals[_ERR] = f.dev_integral_for_tags(los, his, tags, F)


class _Trial:
    """One family's share of a walk: its check, if any, and its sums.

    The family's cells arrive piece by piece in canonical order, as
    positions in a pool of per-cell values, with their depth histogram and
    a few exact parts of each sum, folded once by sums(): each total is
    correctly rounded whichever pieces the cells came in, and the truncation
    profile's prefix sums carry across pieces, bit for bit one cumsum.
    """

    def __init__(self, cells: int, f: CorpusFunction, mu: RadonMeasure,
                 threshold: float | None, check: FamilyCheck | None):
        self.cells, self.f, self.check = cells, f, check
        self.threshold = threshold
        self.total = float(mu.total)
        self.exact = mu.w0 * f.exact_integral(mu.universe)
        self.parts = [[] for _ in range(_W + 1 + f.dim_out)]
        self.depths = np.zeros(64, dtype=np.int64)
        # the prefix sums of w and f(tag) w so far
        self.carry = np.zeros(1 + f.dim_out)
        self.m0 = None
        self.trunc = (float(f.ynorm(self.exact)), 0)

    def add(self, vals: np.ndarray, depths: np.ndarray, sel: np.ndarray,
            parts: list[list[float]]):
        """The next cells, the columns sel of vals, depths[k] of them at
        level k; parts[i] sums exactly to row i of vals over those cells."""
        start = int(self.depths.sum())
        self.depths += depths
        for kept, new in zip(self.parts, parts):
            kept += new
        if self.threshold is None:
            return
        prefix = np.empty((len(self.carry), len(sel) + 1))
        prefix[:, 0] = self.carry
        for row, out in zip(vals[_W:], prefix[:, 1:]):
            np.take(row, sel, out=out, mode="clip")
        prefix = np.cumsum(prefix, axis=1, out=prefix)[:, 1:]
        # a copy: a view would keep the whole piece's prefix sums alive
        self.carry = prefix[:, -1].copy()
        covered, partial = prefix[0], prefix[1:].T
        j = 0
        if self.m0 is None:
            # uncovered after k cells still includes the residual, so the
            # threshold passed in must sit at or above it; covered never
            # falls, so no cell is eligible unless the piece's last one is
            if not self.total - self.carry[0] <= self.threshold + 1e-15:
                return
            eligible = self.total - covered <= self.threshold + 1e-15
            if not eligible.any():
                return
            j = int(np.argmax(eligible))
            self.m0 = start + j
            self.trunc = (-math.inf, self.m0)
        errto = self.f.ynorm_rows(self.exact[None, :] - partial[j:])
        k = int(np.argmax(errto))
        if errto[k] > self.trunc[0]:
            self.trunc = (float(errto[k]), start + j + k)

    def sums(self) -> dict:
        """The family's sums; call once every cell is in."""
        trunc = self.trunc
        if self.threshold is not None and self.m0 is None and self.cells:
            trunc = (float(self.f.ynorm_rows(
                self.exact[None, :] - self.carry[None, 1:])[0]),
                self.cells - 1)
        # as the parts' exact sum, or not finite if a part is not
        totals = [math.fsum(exact_parts(np.array(row))) for row in self.parts]
        return {"simple": np.array(totals[_W + 1:]),
                "local": totals[_LOCAL], "dev": totals[_DEV],
                "dev_err": totals[_ERR], "measure": totals[_W], "truncation": trunc,
                "depth_histogram": {k: int(v) for k, v in
                                    enumerate(self.depths) if v}}


def _walk(fam: TaggedFamily, f: CorpusFunction, mu: RadonMeasure,
          threshold: float | None = None, g: Gauge | None = None,
          eta: float | None = None, draws: list[partition.Refinement] = ()
          ) -> list[_Trial]:
    """One walk over fam's chunks that sums fam and each refinement draws[t]
    of it, without building the refinements; draws need a gauge g.

    fam is refinement 0, the one that splits nothing, so every family takes
    the same steps per chunk: expand gives the children of every cell some
    refinement splits and each family's piece of the pool of the chunk's
    cells and those children; each distinct cell of the pool is evaluated
    once, from corners and tags derived once, and, given a gauge g, checked
    once; then one pass per family over its piece feeds both its check and
    its sums.  fam's check runs first: from its first failing chunk on only
    that check runs, so no sum kernel sees a corrupt cell and no refinement
    of a corrupt family is expanded; a refinement's check then takes its
    piece's key ranges from the pool's and the per-cell checks of the
    children it holds only, every cell it keeps having passed.  With
    refinements, fam's check also fails a cell at the last key level, whose
    children would have no keys, so expand never meets one.  A child's
    corners derive from the indices of a parent that passed, so a
    refinement's children reach the kernels whatever their own checks find,
    and its verdict names the same failure as verify_family on the built
    refinement.  Returns fam's trial followed by one per refinement; take
    each check's verdict before using its sums.
    """
    draws = [partition.Refinement(), *draws]
    fan = 2 ** fam.dim
    sizes = [len(fam) + (fan - 1) * d.count for d in draws]
    # the refinements split fam's cells, so fam's check needs each splittable
    trials = [_Trial(size, f, mu, threshold,
                     None if g is None else FamilyCheck(
                         fam, mu, eta, refined=len(draws) > 1 and t == 0))
              for t, size in enumerate(sizes)]
    for c in fam.chunks():
        ranges = c.ranges()
        cells = None if g is None else check_cells(c, g, fam)
        if cells is not None and not trials[0].check.add(*ranges, cells):
            continue
        n = len(c.levels)
        split = [d.positions(c.start, c.start + n) for d in draws]
        kids, piece = expand(c, split, fam.universe)
        # the pool's values: the chunk's cells, then the children
        vals = np.empty((_W + 1 + f.dim_out, n + len(kids.levels)))
        for rows, *box in c.batches(fam.universe):
            _cell_values(f, mu, *box, vals[:, :n][:, rows])
        # each array is let go as soon as it is done with, the pool at the chunk's
        # end, which keeps the walk's peak at about that of walking one trial alone
        levels, c = c.levels, None
        kid_checks = check_cells(kids, g, fam, lambda rows, *box: _cell_values(
            f, mu, *box, vals[:, n:][:, rows]))
        ranges = [np.concatenate(r) for r in zip(ranges, kids.ranges())]
        kids = None
        depths = np.bincount(levels, minlength=64)
        whole = [exact_parts(row).tolist() for row in vals[:, :n]]
        for t, trial in enumerate(trials):
            (sel, held), parts, hist = piece(t), whole, depths
            if t:
                # fam's check passed every cell of the chunk, so of a
                # refinement's cells only the children it holds can fail
                if cells is not None:
                    trial.check.add(*(np.take(r, sel) for r in ranges),
                                    kid_checks.take(held - n))
                # sums and depths are order-free, so a refinement's are
                # fam's, less the cells it splits, plus their children
                parts = [w + exact_parts(np.concatenate(
                    (np.take(row, held), -np.take(row, split[t])))).tolist()
                    for w, row in zip(whole, vals)]
                gone = np.bincount(levels[split[t]], minlength=64)
                hist = depths - gone + np.append(0, fan * gone[:-1])
            trial.add(vals, hist, sel, parts)
        cells = vals = ranges = kid_checks = levels = whole = None
    return trials


def _residual_abs(fam: TaggedFamily, f: CorpusFunction,
                  mu: RadonMeasure) -> float:
    """w0 Sum Int ||f|| over the residual frontier."""
    return mu.w0 * math.fsum(chain.from_iterable(
        exact_parts(f.abs_integral_batch(los, his))
        for los, his in fam.residual_boxes()))


def default_eta(f: CorpusFunction, eps: float, w0: float) -> float:
    return min(f.ac_modulus(eps / 4.0, w0), eps * 1e-2)


def default_sieve_depth(dim: int) -> int:
    # the singular 1-d entry needs ~3 extra levels for every factor-of-2 in eps
    return 56 if dim == 1 else 26


def _threshold(f: CorpusFunction, mu: RadonMeasure, eps: float,
               fam: TaggedFamily) -> float:
    """Where the truncation profile starts: under the eps/4 continuity
    modulus, but never under the residual, which stays uncovered."""
    gamma = f.ac_modulus(eps / 4.0, mu.w0)
    return max(0.999 * gamma, fam.residual_measure * (1 + 1e-12))


def _report(f: CorpusFunction, mu: RadonMeasure, eps: float, trial: int,
            cells: int, residual_measure: float, sums: dict,
            residual_abs: float) -> ApproximationReport:
    """The accuracy chain of one family of `cells` cells from its sums."""
    part, part_err = mu.w0 * sums["dev"], mu.w0 * sums["dev_err"]
    total = part + part_err + residual_abs
    exact = mu.w0 * f.exact_integral(mu.universe)
    simple, local = sums["simple"], sums["local"]
    trunc, trunc_idx = sums["truncation"]

    gap = float(f.ynorm(exact - simple))
    l1p = part + part_err
    flags = {
        "l1_partition_lt_eps": l1p < eps,
        "l1_total_lt_eps_plus_slack": total < eps + residual_abs + 1e-15,
        "local_error_lt_eps": local < eps,
        "truncation_lt_3eps": trunc < 3.0 * eps,
        "local_le_l1": local <= l1p * (1 + _REL) + 1e-15,
        "gap_le_l1_total": gap <= total * (1 + _REL) + 1e-15,
        "gap_le_l1_partition_plus_slack":
            gap - residual_abs <= l1p * (1 + _REL) + 1e-15,
    }
    return ApproximationReport(
        fn=f.name, eps=eps, trial=trial, cell_count=cells,
        residual_measure=residual_measure,
        exact=tuple(float(v) for v in exact),
        simple=tuple(float(v) for v in simple),
        l1_partition=part, l1_partition_error=part_err,
        residual_abs=residual_abs, tail_abs=0.0,
        l1_total=total, local_error_sum=local,
        truncation_error=trunc, truncation_index=trunc_idx,
        depth_histogram=sums["depth_histogram"], pass_flags=flags)


def build_report(fam: TaggedFamily, f: CorpusFunction, mu: RadonMeasure,
                 eps: float, trial: int) -> ApproximationReport:
    """The accuracy chain of one family, from one walk over its chunks."""
    sums = _walk(fam, f, mu, _threshold(f, mu, eps, fam))[0].sums()
    return _report(f, mu, eps, trial, len(fam), fam.residual_measure, sums,
                   _residual_abs(fam, f, mu))


def verify_theorem(f: CorpusFunction, mu: RadonMeasure, eps: float,
                   trials: int = 5, seed: int = 0,
                   domain_norm: NormKind = NormKind.TWO,
                   max_depth: int | None = None,
                   eta: float | None = None, _gauge_hook=None,
                   _family_hook=None
                   ) -> list[ApproximationReport]:
    """Build the gauge, sieve, and certify the accuracy chain per trial.

    Trial 0 is the raw sieve output; later trials randomly refine ~15% of
    its cells.  One walk of the base family checks and sums trial 0 and up
    to TRIALS_PER_WALK refined trials at once: each distinct cell is
    evaluated once, and each trial is checked in full and its totals are
    correctly rounded, so its report is the one a walk of its built family
    gives.
    Trials are judged in order, so the first failing trial raises, with
    BoundViolated carrying the offending report or the verifier's reason.
    The private hooks let the falsification modes degrade the gauge or
    the base family, with the rng before any refinement draws from it.
    """
    p = GaugeBuildParams(eps=eps, domain_norm=domain_norm)
    g = build_gauge(f, mu, p)
    if _gauge_hook is not None:
        g = _gauge_hook(g)

    sweep = soundness_sweep(f, g, mu, p, n_probes=256, seed=seed)
    if not sweep.ok():
        raise BoundViolated(
            f"gauge soundness sweep found {len(sweep.violations)} violations",
            sweep.to_dict())

    if eta is None:
        eta = default_eta(f, eps, mu.w0)
    if max_depth is None:
        max_depth = default_sieve_depth(f.dim_in)
    base = dyadic_sieve(mu.universe, g, mu, eta, max_depth, domain_norm)

    # refinement keeps the base's residual frontier, so its term is shared
    residual_abs = _residual_abs(base, f, mu)
    rng = np.random.default_rng(seed)
    if _family_hook is not None:
        base = _family_hook(base, rng)
    threshold = _threshold(f, mu, eps, base)
    refined = list(range(1, max(1, trials)))
    reports = []
    for first in range(0, max(1, len(refined)), TRIALS_PER_WALK):
        group = refined[first:first + TRIALS_PER_WALK]
        # drawn in trial order, as refine_family would draw them
        draws = [refinement_choice(len(base), 0.15, rng) for _ in group]
        walked = _walk(base, f, mu, threshold, g=g, eta=eta, draws=draws)
        for t, trial in zip([0] + group, walked):
            if t == 0 and first:
                # later walks re-walk the base only to carry their trials
                continue
            sums, notes = trial.sums(), {}
            if not trial.check.verdict(sums["measure"], notes):
                raise BoundViolated(f"family verification failed (trial {t}): "
                                    f"{notes.get('reason')}", notes)
            report = _report(f, mu, eps, t, trial.cells, base.residual_measure,
                             sums, residual_abs)
            report.notes["eta"] = eta
            report.notes["sweep_max_budget_ratio"] = sweep.max_budget_ratio
            if not report.ok():
                bad = [k for k, v in report.pass_flags.items() if not v]
                raise BoundViolated(f"bounds failed: {', '.join(bad)}",
                                    report)
            reports.append(report)
        del walked
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
        return asdict(self)


def _family_mass(f: CorpusFunction, mu: RadonMeasure,
                 fam: TaggedFamily) -> float:
    """Sum ||w0 Int_S f|| over the family's cells."""
    return math.fsum(chain.from_iterable(exact_parts(f.ynorm_rows(
        mu.w0 * f.integral_batch(c.los, c.his))) for c in fam.chunks()))


def verify_corollary(f: CorpusFunction, mu: RadonMeasure, eps: float,
                     seed: int = 0, domain_norm: NormKind = NormKind.TWO,
                     n_random: int = 20) -> CorollaryReport:
    """Set-function form of the approximation statement, for the set
    function G(S) = w0 Int_S f.

    (a) the local Riemann gap against G stays under eps on a gauge-fine
    family; (b) every disjoint family keeps Sum ||G(S_i)|| under the total
    mass, probed on the gauge family plus n_random random partitions, while
    a piece-aligned witness gets within eps/2 of it; (c) the simple sum plus
    residual correction reconstructs G(universe) within 2 eps.  The gauge
    family is checked in full in the walk that sums it, and a family that
    fails the check raises BoundViolated before any bound is judged.
    """
    g = build_gauge(f, mu, GaugeBuildParams(eps=eps, domain_norm=domain_norm))
    eta = default_eta(f, eps, mu.w0)
    base = dyadic_sieve(mu.universe, g, mu, eta, default_sieve_depth(f.dim_in),
                        domain_norm)

    walked = _walk(base, f, mu, g=g, eta=eta)[0]
    sums, notes = walked.sums(), {}
    if not walked.check.verdict(sums["measure"], notes):
        raise BoundViolated(
            f"family verification failed: {notes.get('reason')}", notes)
    riemann_gap = sums["local"]
    abs_total = mu.w0 * f.abs_total()

    rng = np.random.default_rng(seed)
    worst = _family_mass(f, mu, base)
    for _ in range(n_random):
        fam = random_dyadic_partition(mu.universe, rng, max_level=6)
        worst = max(worst, _family_mass(f, mu, fam))

    witness_level = max(1, f.aligned_depth)
    witness = random_dyadic_partition(mu.universe, rng,
                                      max_level=witness_level, stop_prob=0.0)
    witness_mass = _family_mass(f, mu, witness)

    residual = [exact_parts(v) for los, his in base.residual_boxes()
                for v in f.integral_batch(los, his).T]
    residual_vec = mu.w0 * np.array([math.fsum(chain.from_iterable(
        residual[j::f.dim_out])) for j in range(f.dim_out)])
    recon = float(f.ynorm(mu.w0 * f.exact_integral(mu.universe)
                          - sums["simple"] - residual_vec))

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

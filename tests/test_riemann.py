import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import cell_arrays, constant_gauge, last_passing

from morsegauge import cli, partition, riemann
from morsegauge.corpus import corpus_function
from morsegauge.errors import BoundViolated, PreconditionUncertified
from morsegauge.gauge import GaugeBuildParams, build_gauge
from morsegauge.geometry import Box, Gauge, NormKind
from morsegauge.measure import RadonMeasure, measure_box_batch
from morsegauge.partition import (
    dyadic_sieve,
    random_dyadic_partition,
    refine_family,
    sabotage_offcenter,
    verify_family,
    with_cells,
)
from morsegauge.riemann import (
    build_report,
    default_eta,
    default_sieve_depth,
    verify_corollary,
    verify_theorem,
)


def unit(f):
    return RadonMeasure.unit(f.universe)


def full_partition(f, rng, level):
    return random_dyadic_partition(f.universe, rng, max_level=level,
                                   stop_prob=0.0)


# ---------------------------------------------------------------------------
# hand-checkable pieces
# ---------------------------------------------------------------------------

def test_single_cell_linear1(rng):
    f = corpus_function("linear1")
    mu = unit(f)
    fam = full_partition(f, rng, 0)
    assert len(fam) == 1
    rep = build_report(fam, f, mu, eps=0.1, trial=0)
    assert rep.simple[0] == pytest.approx(0.5)
    # int |x - 1/2| over [0,1] = 1/4, no residual, no tail
    assert rep.l1_partition == pytest.approx(0.25)
    assert rep.l1_partition_error == 0.0
    assert rep.residual_abs == 0.0
    assert rep.l1_total == pytest.approx(0.25)
    # midpoint tag integrates x exactly on each cell
    assert rep.local_error_sum == pytest.approx(0.0, abs=1e-15)


def test_two_cell_truncation_profile(rng):
    f = corpus_function("linear1")
    mu = unit(f)
    fam = full_partition(f, rng, 1)
    assert len(fam) == 2
    # threshold 1/2: the first cell alone is allowed to stand in
    err, idx = riemann._walk(fam, f, mu, 0.5)[0].sums()["truncation"]
    assert err == pytest.approx(0.375)  # |1/2 - 1/8|
    assert idx == 0
    # threshold 0: must take both cells, and they reproduce the integral
    err0, idx0 = riemann._walk(fam, f, mu, 0.0)[0].sums()["truncation"]
    assert err0 == pytest.approx(0.0, abs=1e-15)
    assert idx0 == 1


def test_simple_sum_empty_family():
    f = corpus_function("step2")
    mu = unit(f)
    fam = dyadic_sieve(f.universe, constant_gauge(1.0), mu, 2.0)
    assert len(fam) == 0
    rep = build_report(fam, f, mu, eps=0.1, trial=0)
    assert np.array_equal(rep.simple, np.zeros(2))


def test_set_function_values():
    f = corpus_function("linear1")
    assert f.exact_integral(f.universe)[0] == pytest.approx(0.5)
    assert f.exact_integral(Box((0.0,), (0.5,)))[0] == pytest.approx(0.125)
    got = f.integral_batch(np.array([[0.0], [0.5]]), np.array([[0.5], [1.0]]))
    assert got[:, 0] == pytest.approx([0.125, 0.375])
    assert verify_corollary(f, unit(f), 0.1).abs_total == pytest.approx(0.5)


def test_defaults():
    lin = corpus_function("linear1")
    assert default_eta(lin, 0.1, 1.0) == pytest.approx(1e-3)
    spike = corpus_function("spike1")
    # ac modulus at eps/4 undercuts the eps * 1e-2 cap
    assert default_eta(spike, 0.1, 1.0) == pytest.approx(0.025 ** 2 / 8)
    assert default_sieve_depth(1) == 56
    assert default_sieve_depth(2) == 26


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_build_report_chain_inequalities():
    f = corpus_function("checker2d")
    mu = unit(f)
    g = build_gauge(f, mu, GaugeBuildParams(eps=0.1))
    fam = dyadic_sieve(f.universe, g, mu, default_eta(f, 0.1, 1.0))
    rep = build_report(fam, f, mu, eps=0.1, trial=0)
    assert rep.ok(), rep.pass_flags
    gap = f.ynorm(np.asarray(rep.exact) - np.asarray(rep.simple))
    l1p = rep.l1_partition + rep.l1_partition_error
    slack = rep.residual_abs + rep.tail_abs
    assert rep.local_error_sum <= l1p * (1 + 1e-9) + 1e-15
    assert gap <= rep.l1_total * (1 + 1e-9) + 1e-15
    assert gap - slack <= l1p * (1 + 1e-9) + 1e-15
    assert rep.l1_total == pytest.approx(l1p + slack)


EPS, L1, ERR, RES = 0.1, 0.07, 0.0125, 2.0 ** -6


def report_at(residual_abs=0.0, gap=0.0, **sums):
    """The report of sign1 at EPS from synthetic sums, zero unless given;
    sign1 integrates to 0, so the Riemann gap is the simple sum."""
    f = corpus_function("sign1")
    sums = {"dev": 0.0, "dev_err": 0.0, "local": 0.0, "truncation": (0.0, 0),
            "depth_histogram": {}, "simple": np.array([gap]), **sums}
    return riemann._report(f, unit(f), EPS, 0, 1, 0.0, sums, residual_abs)


# flag, whether its test is strict, the edge its left side meets, the sums
# that put that side at x, and that side read back from the report
@pytest.mark.parametrize("flag, strict, edge, given, side", [
    pytest.param("l1_partition_lt_eps", True, EPS,
                 lambda x: dict(dev=x - ERR, dev_err=ERR),
                 lambda r: r.l1_partition + r.l1_partition_error, id="l1p"),
    pytest.param("l1_total_lt_eps_plus_slack", True, EPS + RES + 1e-15,
                 lambda x: dict(dev=x - RES, residual_abs=RES),
                 lambda r: r.l1_total, id="total"),
    pytest.param("local_error_lt_eps", True, EPS, lambda x: dict(local=x),
                 lambda r: r.local_error_sum, id="local"),
    pytest.param("truncation_lt_3eps", True, 3.0 * EPS,
                 lambda x: dict(truncation=(x, 0)),
                 lambda r: r.truncation_error, id="truncation"),
    pytest.param("local_le_l1", False, L1 * (1 + 1e-9) + 1e-15,
                 lambda x: dict(dev=L1, local=x),
                 lambda r: r.local_error_sum, id="local-l1"),
    pytest.param("gap_le_l1_total", False, (L1 + RES) * (1 + 1e-9) + 1e-15,
                 lambda x: dict(dev=L1, residual_abs=RES, gap=x),
                 lambda r: r.simple[0], id="gap-total"),
    pytest.param("gap_le_l1_partition_plus_slack", False,
                 L1 * (1 + 1e-9) + 1e-15,
                 lambda x: dict(dev=L1, residual_abs=RES, gap=x + RES),
                 lambda r: r.simple[0] - r.residual_abs, id="gap-l1p"),
])
def test_report_flag_flips_one_ulp_past_its_edge(flag, strict, edge, given,
                                                 side):
    # a strict test holds one ulp below its edge and fails at it; a
    # non-strict one holds at its edge and fails one ulp above
    inside, outside = ((np.nextafter(edge, 0.0), edge) if strict
                       else (edge, np.nextafter(edge, np.inf)))
    for x, want in ((inside, True), (outside, False)):
        rep = report_at(**given(float(x)))
        assert side(rep) == x, "the synthetic sums miss the side they set"
        assert rep.pass_flags[flag] is want, (flag, x)


def test_report_json_roundtrip():
    f = corpus_function("step2")
    mu = unit(f)
    g = build_gauge(f, mu, GaugeBuildParams(eps=0.1))
    fam = dyadic_sieve(f.universe, g, mu, 0.01)
    rep = build_report(fam, f, mu, eps=0.1, trial=3)
    blob = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert blob["fn"] == "step2"
    assert blob["trial"] == 3
    assert blob["cell_count"] == 2
    assert set(blob["pass_flags"]) == {
        "l1_partition_lt_eps", "l1_total_lt_eps_plus_slack",
        "local_error_lt_eps", "truncation_lt_3eps", "local_le_l1",
        "gap_le_l1_total", "gap_le_l1_partition_plus_slack"}


@pytest.mark.parametrize("name,eps", [("spike1", 0.3), ("lipschitz2d", 0.1)])
def test_build_report_is_chunk_size_free(name, eps, monkeypatch):
    # spike1 also has a residual frontier to walk
    f = corpus_function(name)
    mu = unit(f)
    g = build_gauge(f, mu, GaugeBuildParams(eps=eps))
    base = dyadic_sieve(f.universe, g, mu, default_eta(f, eps, 1.0),
                        default_sieve_depth(f.dim_in))
    families = [base, refine_family(base, 0.15, np.random.default_rng(4))]

    def reports(chunk):
        monkeypatch.setattr(partition, "CHUNK_CELLS", chunk)
        return [build_report(fam, f, mu, eps, trial=0).to_dict()
                for fam in families]

    # every total is correctly rounded, so the chunk size changes no bit
    whole = reports(max(len(fam) for fam in families))
    assert reports(7) == whole


# ---------------------------------------------------------------------------
# theorem driver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["constant", "step2", "linear1"])
def test_verify_theorem_fast_entries(name):
    f = corpus_function(name)
    reports = verify_theorem(f, unit(f), eps=0.1, trials=3, seed=5)
    assert len(reports) == 3
    assert [r.trial for r in reports] == [0, 1, 2]
    for r in reports:
        assert r.ok()
        assert r.notes["eta"] > 0
        assert r.l1_total < 0.1 + r.residual_abs + r.tail_abs + 1e-15


def test_verify_theorem_trials_vary_geometry():
    f = corpus_function("linear1")
    reports = verify_theorem(f, unit(f), eps=0.1, trials=3, seed=5)
    counts = {r.cell_count for r in reports}
    assert len(counts) > 1  # refinement actually changed the family


def test_verify_theorem_rejects_nonuniform_density():
    f = corpus_function("linear1")
    mu = RadonMeasure.from_grid(f.universe, 1, [1.0, 2.0])
    with pytest.raises(PreconditionUncertified):
        verify_theorem(f, mu, eps=0.1)


def test_inflated_gauge_trips_the_sweep():
    f = corpus_function("linear1")
    with pytest.raises(BoundViolated) as exc:
        verify_theorem(f, unit(f), eps=0.1, trials=1,
                       _gauge_hook=lambda g: g.scaled(40.0))
    assert "sweep" in str(exc.value)
    assert exc.value.report["n_violations"] > 0


def test_sabotaged_family_trips_verification():
    f = corpus_function("checker2d")
    with pytest.raises(BoundViolated) as exc:
        verify_theorem(f, unit(f), eps=0.1, trials=1,
                       _family_hook=sabotage_offcenter)
    assert "family verification failed" in str(exc.value)


def sieved(f, eps):
    """The gauge, eta and base family verify_theorem builds for f at eps."""
    mu = unit(f)
    g = build_gauge(f, mu, GaugeBuildParams(eps=eps))
    eta = default_eta(f, eps, mu.w0)
    base = dyadic_sieve(f.universe, g, mu, eta, default_sieve_depth(f.dim_in))
    return g, eta, base


@pytest.mark.parametrize("name,eps", [("spike1", 0.03), ("checker2d", 0.1),
                                      ("linear1", 0.01)])
def test_fused_trials_equal_standalone_checks_and_reports(name, eps):
    f = corpus_function(name)
    mu = unit(f)
    got = verify_theorem(f, mu, eps, trials=3, seed=7)
    g, eta, base = sieved(f, eps)
    rng = np.random.default_rng(7)
    for t, rep in enumerate(got):
        fam = base if t == 0 else refine_family(base, 0.15, rng)
        assert verify_family(fam, g, mu, eta)
        want = build_report(fam, f, mu, eps, trial=t)
        want.notes = dict(rep.notes)
        assert rep.to_dict() == want.to_dict()


@pytest.mark.parametrize("name,eps,chunk", [
    ("spike1", 0.3, 7), ("spike1", 0.03, 256), ("checker2d", 0.1, 7),
    ("checker2d", 0.1, 256), ("lipschitz2d", 0.1, 7),
    ("lipschitz2d", 0.1, 256)])
def test_lock_step_trials_equal_standalone_at_window_edges(name, eps, chunk,
                                                           monkeypatch):
    # refined trials take their cells from pieces of the base walk's
    # chunks and their children, which a walk of the built family cuts
    # elsewhere; the sieve runs at the full chunk size and the walks at
    # `chunk` (spike1 at 0.03 has 338,976 cells, too many for 7-cell
    # chunks in a unit test)
    f = corpus_function(name)
    mu = unit(f)
    g, eta, base = sieved(f, eps)
    sieve = riemann.dyadic_sieve

    def sieve_then_shrink(*args):
        fam = sieve(*args)
        monkeypatch.setattr(partition, "CHUNK_CELLS", chunk)
        return fam

    monkeypatch.setattr(riemann, "dyadic_sieve", sieve_then_shrink)
    got = verify_theorem(f, mu, eps, trials=4, seed=11)
    assert partition.CHUNK_CELLS == chunk
    rng = np.random.default_rng(11)
    for t, rep in enumerate(got):
        fam = base if t == 0 else refine_family(base, 0.15, rng)
        assert verify_family(fam, g, mu, eta)
        want = build_report(fam, f, mu, eps, trial=t)
        want.notes = dict(rep.notes)
        assert rep.to_dict() == want.to_dict()


def record_boxes(f, monkeypatch):
    """The boxes f's deviation oracle gets from now on, as (lo, hi) rows;
    a walk hands its other sum kernels the same boxes."""
    boxes = []
    dev_integral = f.dev_integral_for_tags

    def recorded(los, his, *rest):
        boxes.append(np.column_stack((los[:, 0], his[:, 0])))
        return dev_integral(los, his, *rest)

    monkeypatch.setattr(f, "dev_integral_for_tags", recorded)
    return boxes


def assert_inside_one_side(boxes):
    # inside spike1's universe [-1, 1] and on one side of its singularity
    lo, hi = np.concatenate(boxes).T
    assert np.all((-1 <= lo) & (hi <= 1) & ((hi <= 0) | (lo >= 0)))


def test_failure_only_in_a_refined_trial(monkeypatch):
    # a check gauge that agrees with the sieve's everywhere but at one
    # child's center, a child only trial 2 holds: trials 0 and 1 pass,
    # trial 2 fails with the reason verify_family gives on its built
    # family, and every box the sum kernels get lies inside a base cell,
    # so spike1's deviation oracle sees no box across 0
    monkeypatch.setattr(partition, "CHUNK_CELLS", 256)
    f = corpus_function("spike1")
    mu = unit(f)
    eps, seed = 0.3, 7
    g, eta, base = sieved(f, eps)
    rng = np.random.default_rng(seed)
    chosen = [partition.refinement_choice(len(base), 0.15, rng)
              .positions(0, len(base)) for _ in range(3)]
    only2 = np.setdiff1d(chosen[1], np.union1d(chosen[0], chosen[2]))
    parent = only2[len(only2) // 2]
    assert 0 < parent // 256 < len(base) // 256
    rng = np.random.default_rng(seed)
    refine_family(base, 0.15, rng)
    ref2 = refine_family(base, 0.15, rng)
    tags = np.concatenate([c.tags for c in ref2.chunks()])[:, 0]
    # fan 2: a chosen cell's first child sits one slot further right for
    # each chosen cell before it
    first = only2 + np.searchsorted(chosen[1], only2)
    bad = tags[first[only2 == parent][0]]
    tight = Gauge(batch=lambda X: np.where(X[:, 0] == bad, 1e-300,
                                           g.delta_batch(X)))
    seen = []
    eval_batch = f.eval_batch

    def recorded(X):
        seen.append(np.array(X[:, 0]))
        return eval_batch(X)

    monkeypatch.setattr(f, "eval_batch", recorded)
    boxes = record_boxes(f, monkeypatch)
    # the sieve and the sweep see the gauge the base was built with; the
    # sweep's probe boxes, which come before the sieve, are not the walk's
    monkeypatch.setattr(riemann, "dyadic_sieve",
                        lambda *args: boxes.clear() or base)
    sweep = riemann.soundness_sweep
    monkeypatch.setattr(riemann, "soundness_sweep",
                        lambda f, _, *args, **kw: sweep(f, g, *args, **kw))
    with pytest.raises(BoundViolated) as exc:
        verify_theorem(f, mu, eps, trials=4, seed=seed,
                       _gauge_hook=lambda _: tight)
    notes = {}
    assert not verify_family(ref2, tight, mu, eta, report=notes)
    assert notes["reason"].startswith("fineness violated at tag")
    assert str(exc.value) == \
        f"family verification failed (trial 2): {notes['reason']}"
    evaluated = set(np.concatenate(seen).tolist())
    kids = np.stack((tags[first], tags[first + 1]), axis=1)
    stopped = only2 // 256 >= parent // 256
    assert 0 < stopped.sum() < len(stopped)
    assert all(k in evaluated for k in kids[~stopped].ravel())
    assert_inside_one_side(boxes)
    lo, hi = np.concatenate(boxes).T
    cells = np.concatenate([np.column_stack((c.los[:, 0], c.his[:, 0]))
                            for c in base.chunks()])
    at = np.searchsorted(cells[:, 0], lo, "right") - 1
    assert np.all((cells[at, 0] <= lo) & (hi <= cells[at, 1]))


def test_failing_child_two_refined_trials_share(monkeypatch):
    # a check gauge that fails one child of a cell trials 1 and 2 split but
    # trial 3 does not: the walk checks each refinement on the children it
    # holds, so trials 1 and 2 fail with the reason verify_family gives on
    # each built refinement, while trials 0 and 3 pass
    monkeypatch.setattr(partition, "CHUNK_CELLS", 256)
    f = corpus_function("spike1")
    mu = unit(f)
    eps, seed = 0.3, 7
    g, eta, base = sieved(f, eps)
    rng = np.random.default_rng(seed)
    draws = [partition.refinement_choice(len(base), 0.15, rng)
             for _ in range(3)]
    chosen = [d.positions(0, len(base)) for d in draws]
    shared = np.setdiff1d(np.intersect1d(chosen[0], chosen[1]), chosen[2])
    parent = shared[len(shared) // 2]
    assert 0 < parent // 256 < len(base) // 256
    rng = np.random.default_rng(seed)
    refs = [refine_family(base, 0.15, rng) for _ in range(3)]
    # fan 2: a chosen cell's second child sits one slot further right for
    # each chosen cell up to and including it
    tags = np.concatenate([c.tags for c in refs[0].chunks()])[:, 0]
    bad = tags[parent + np.searchsorted(chosen[0], parent) + 1]
    tight = Gauge(batch=lambda X: np.where(X[:, 0] == bad, 1e-300,
                                           g.delta_batch(X)))
    walked = riemann._walk(base, f, mu, riemann._threshold(f, mu, eps, base),
                           g=tight, eta=eta, draws=draws)
    verdicts, reasons = [], []
    for fam, trial in zip([base] + refs, walked):
        notes, want = {}, {}
        verdicts.append(trial.check.verdict(trial.sums()["measure"], notes))
        assert verify_family(fam, tight, mu, eta, report=want) == verdicts[-1]
        assert notes.get("reason") == want.get("reason")
        reasons.append(notes.get("reason"))
    assert verdicts == [True, False, False, True]
    assert reasons[1] == reasons[2]
    assert reasons[1].startswith(f"fineness violated at tag ({bad!r},)")


def test_overlap_only_a_refinement_has_is_caught_in_that_trial():
    # a stray key bit just below one cell's level leaves the cell itself
    # intact (its range and index drop the bit), but its two children get
    # the same key: only the order check of a trial that splits it fails
    f = corpus_function("spike1")
    mu = unit(f)
    g, eta, base = sieved(f, 0.3)
    rng = np.random.default_rng(7)
    i = int(partition.refinement_choice(len(base), 0.15, rng)
            .positions(0, len(base))[0])
    levels, keys = cell_arrays(base)
    keys[i] |= np.int64(1) << (61 - int(levels[i]))
    stray = with_cells(base, levels, keys)
    assert verify_family(stray, g, mu, eta)
    notes = {}
    ref = refine_family(stray, 0.15, np.random.default_rng(7))
    assert not verify_family(ref, g, mu, eta, report=notes)
    with pytest.raises(BoundViolated) as exc:
        verify_theorem(f, mu, 0.3, trials=3, seed=7,
                       _family_hook=lambda fam, rng: stray)
    assert str(exc.value) == \
        f"family verification failed (trial 1): {notes['reason']}"
    assert notes["reason"] == "interior overlap (key ranges collide)"


@pytest.mark.parametrize("name,eps,chunk", [("spike1", 0.03, None),
                                            ("lipschitz2d", 0.1, 256)])
def test_trial_bookkeeping_matches_the_built_refinements(name, eps, chunk,
                                                         monkeypatch):
    # a refined trial's depth histogram is the base chunk's, less its split
    # cells' levels, plus its children's, and its check takes its pieces'
    # key ranges from the pool's: both as on the refinement refine_family
    # builds (fan 2 in 1-d, fan 4 in 2-d)
    f = corpus_function(name)
    mu = unit(f)
    g, eta, base = sieved(f, eps)
    if chunk is not None:
        monkeypatch.setattr(partition, "CHUNK_CELLS", chunk)
    assert len(base) > 2 * partition.CHUNK_CELLS
    rng = np.random.default_rng(5)
    draws = [partition.refinement_choice(len(base), 0.15, rng)
             for _ in range(3)]
    walked = riemann._walk(base, f, mu, riemann._threshold(f, mu, eps, base),
                           g=g, eta=eta, draws=draws)
    rng = np.random.default_rng(5)
    refs = [refine_family(base, 0.15, rng) for _ in range(3)]
    for fam, trial in zip([base] + refs, walked):
        sums, notes, want = trial.sums(), {}, {}
        levels, counts = np.unique(cell_arrays(fam)[0], return_counts=True)
        assert sums["depth_histogram"] == dict(zip(levels.tolist(),
                                                   counts.tolist()))
        assert trial.check.verdict(sums["measure"], notes) is \
            verify_family(fam, g, mu, eta, report=want) is True
        assert notes == want


@pytest.mark.parametrize("chunk", [7, 256, 1 << 16])
@pytest.mark.parametrize("share", [None, 0.3, 1.0])
def test_truncation_profile_is_one_cumsum_of_the_family(share, chunk,
                                                        monkeypatch):
    # a piece whose last prefix leaves more than the threshold uncovered
    # skips the eligibility mask; the profile is still that of one cumsum
    # of the whole family, eligibility starting mid-family, at the first
    # cell (share 1.0) or, under the default threshold, near the end
    f = corpus_function("spike1")
    mu = unit(f)
    _, _, base = sieved(f, 0.3)
    total = float(mu.total)
    threshold = riemann._threshold(f, mu, 0.3, base) if share is None \
        else share * total
    chunks = list(base.chunks())
    w = np.concatenate([measure_box_batch(mu, c.los, c.his) for c in chunks])
    F = np.concatenate([f.eval_batch(c.tags) for c in chunks])
    prefix = np.cumsum(np.column_stack((w, F * w[:, None])), axis=0)
    exact = mu.w0 * f.exact_integral(mu.universe)
    eligible = total - prefix[:, 0] <= threshold + 1e-15
    assert eligible.any() and (share == 1.0) is bool(eligible[0])
    m0 = int(np.argmax(eligible))
    errto = f.ynorm_rows(exact[None, :] - prefix[m0:, 1:])
    k = int(np.argmax(errto))
    monkeypatch.setattr(partition, "CHUNK_CELLS", chunk)
    got = riemann._walk(base, f, mu, threshold)[0].sums()["truncation"]
    assert got == (float(errto[k]), m0 + k)


# sha256 of report.json and summary.csv of `run-theorem --trials 3`, taken
# while the walk still folded each sum's exact parts on every piece
PINNED_REPORTS = {
    ("spike1", "0.03"): (
        "bc2bd4e69799dcab4071e6226cf12022d3626a8553d957038b2dbe10852707e1",
        "d335b3cf39c7b334e96d535e66b7406c3ec7224c5d7476f2dace6bdf473e7895"),
    ("lipschitz2d", "0.1"): (
        "59aca63cd1cbf3d9fb84c24e7598adab6d1351e080d7ccffb490d6846c696ad2",
        "ee071f475bfffc854f4d28b9831582739528d3b4d0d25053989c9cc8606a5077"),
    ("step2", "0.01"): (
        "58e22086228305bcc5eca49cfb1b63ef4206850175c36826536ad93056974a70",
        "b3432141688f4a7861b85b2b6139125df93bc2a3498447d8b2fd37ed033779fe"),
}


@pytest.mark.parametrize("name,eps", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(name, eps, tmp_path):
    # every sum, histogram and verdict of the walk lands in these bytes, so
    # a change to how the walk gets them must leave them as they are
    assert cli.main(["run-theorem", "--fn", name, "--eps", eps, "--trials",
                     "3", "--out", str(tmp_path)]) == 0
    got = tuple(hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
                for out in ("report.json", "summary.csv"))
    assert got == PINNED_REPORTS[name, eps]


def test_trial_groups_bound_memory():
    # one base walk carries TRIALS_PER_WALK refined trials, so two groups'
    # worth of trials peak no higher than one group's
    f = corpus_function("spike1")
    mu = unit(f)
    peaks = []
    tracemalloc.start()
    try:
        for groups in (1, 2):
            tracemalloc.reset_peak()
            reports = verify_theorem(
                f, mu, 0.03, trials=1 + groups * riemann.TRIALS_PER_WALK,
                seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
            assert len(reports) == 1 + groups * riemann.TRIALS_PER_WALK
            del reports
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def _escape(fam, i):
    # a key bit above the key range moves the cell out of the universe
    levels, keys = cell_arrays(fam)
    keys[i] |= np.int64(1) << 62
    return with_cells(fam, levels, keys)


def _straddle(fam, i):
    # the level-0 cell [-1, 1] holds spike1's singularity in its interior
    levels, keys = cell_arrays(fam)
    levels[i], keys[i] = 0, 0
    return with_cells(fam, levels, keys)


def _deepest(fam, i):
    # a cell at the last key level, over the start of the cell before it:
    # it has no children, as they would need a level past the key range
    levels, keys = cell_arrays(fam)
    levels[i], keys[i] = 62, keys[i - 1]
    return with_cells(fam, levels, keys)


@pytest.mark.parametrize("corrupt,reason", [
    (_escape, "cell escapes the universe"),
    (_straddle, "interior overlap (key ranges collide)"),
    (_deepest, "interior overlap (key ranges collide)")])
def test_corrupt_family_is_named_by_the_verifier(corrupt, reason, monkeypatch):
    # the corrupt cell is one the refined trial splits; the walk stops
    # evaluating and expanding at the first failing chunk of the base, so
    # spike1's deviation oracle sees no box outside the universe or across
    # 0, and no cell past the key range is split
    monkeypatch.setattr(partition, "CHUNK_CELLS", 256)
    f = corpus_function("spike1")
    mu = unit(f)
    seen = []
    boxes = record_boxes(f, monkeypatch)

    def hook(fam, rng):
        # the cells the refined trial splits, as verify_theorem draws them
        split = partition.refinement_choice(
            len(fam), 0.15, np.random.default_rng(7)).positions(0, len(fam))
        seen.append(corrupt(fam, int(split[split > len(fam) // 2][0])))
        boxes.clear()
        return seen[-1]

    with pytest.raises(BoundViolated) as exc:
        verify_theorem(f, mu, 0.3, trials=2, seed=7, _family_hook=hook)
    assert_inside_one_side(boxes)
    g, eta, _ = sieved(f, 0.3)
    assert len(seen[0]) > 4 * 256
    notes = {}
    assert not verify_family(seen[0], g, mu, eta, report=notes)
    assert notes["reason"] == reason
    assert str(exc.value) == f"family verification failed (trial 0): {reason}"


def test_split_past_the_key_range_is_named_by_the_verifier():
    # a cell the refined trial splits, moved to the last key level at its
    # own first key, has no children with keys: the base's check names the
    # level before the walk would expand the cell
    f = corpus_function("spike1")

    def hook(fam, rng):
        split = partition.refinement_choice(
            len(fam), 0.15, np.random.default_rng(7)).positions(0, len(fam))
        levels, keys = cell_arrays(fam)
        levels[split[0]] = 62
        return with_cells(fam, levels, keys)

    with pytest.raises(BoundViolated) as exc:
        verify_theorem(f, unit(f), 0.3, trials=2, seed=7, _family_hook=hook)
    assert str(exc.value) == (
        "family verification failed (trial 0): a cell at level 62 cannot be "
        "split: level 63 exceeds the 62-level key range")


def test_residual_is_integrated_once_per_sieve(monkeypatch):
    walked, yielded, calls = [], [], []
    boxes = partition.TaggedFamily.residual_boxes

    def counted_boxes(fam):
        walked.append(len(fam))
        for los, his in boxes(fam):
            yielded.append(los)
            yield los, his

    monkeypatch.setattr(partition.TaggedFamily, "residual_boxes", counted_boxes)
    f = corpus_function("spike1")
    abs_batch = f.abs_integral_batch

    def counted_abs(los, his):
        if any(los is y for y in yielded):
            calls.append(len(los))
        return abs_batch(los, his)

    monkeypatch.setattr(f, "abs_integral_batch", counted_abs)
    reports = verify_theorem(f, unit(f), 0.03, trials=5, seed=7)
    assert len(walked) == 1
    assert len(calls) == len(yielded) > 0
    assert reports[0].residual_abs > 0
    assert len({r.residual_abs for r in reports}) == 1


def test_coarse_family_fails_the_bounds_honestly(rng):
    # a single level-0 cell has l1 deviation 1/4, far above eps = 0.1
    f = corpus_function("linear1")
    mu = unit(f)
    fam = full_partition(f, rng, 0)
    rep = build_report(fam, f, mu, eps=0.1, trial=0)
    assert not rep.ok()
    assert not rep.pass_flags["l1_partition_lt_eps"]
    # the chain inequalities still hold on a failing report
    assert rep.pass_flags["local_le_l1"]
    assert rep.pass_flags["gap_le_l1_total"]


# ---------------------------------------------------------------------------
# corollary driver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["constant", "linear1", "step2"])
def test_verify_corollary(name):
    f = corpus_function(name)
    rep = verify_corollary(f, unit(f), eps=0.1, seed=2, n_random=8)
    assert rep.ok()
    assert rep.riemann_gap < 0.1
    assert rep.worst_family_mass <= rep.abs_total + 1e-9
    assert rep.reconstruction_gap < 0.2
    assert rep.random_families == 8


@pytest.mark.parametrize("name", ["spike1", "lipschitz2d", "linear1"])
def test_corollary_verifies_its_family(name, monkeypatch):
    # a cell moved out of the universe passes every corollary flag on
    # spike1 and lipschitz2d, and on linear1 fails only mass_bounded
    sieve = riemann.dyadic_sieve

    def escaping_sieve(*args, **kwargs):
        fam = sieve(*args, **kwargs)
        return _escape(fam, len(fam) // 2)

    monkeypatch.setattr(riemann, "dyadic_sieve", escaping_sieve)
    f = corpus_function(name)
    with pytest.raises(BoundViolated) as exc:
        verify_corollary(f, unit(f), eps=0.1)
    assert str(exc.value) == \
        "family verification failed: cell escapes the universe"


def test_corollary_witness_uses_aligned_depth():
    f = corpus_function("step2")
    rep = verify_corollary(f, unit(f), eps=0.1, seed=2, n_random=4)
    # piece-aligned partitions capture the full mass exactly
    assert rep.witness_mass == pytest.approx(rep.abs_total)


def test_corollary_report_serializes():
    f = corpus_function("linear1")
    rep = verify_corollary(f, unit(f), eps=0.1, n_random=2)
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["fn"] == "linear1"
    assert all(blob["pass_flags"].values())


def test_report_bytes_do_not_depend_on_blas_threads():
    # a BLAS product sums in an order that depends on its thread count; the
    # spike1 simple sum at this eps used to differ in its last bit
    script = (
        "import json\n"
        "from morsegauge.corpus import corpus_function\n"
        "from morsegauge.measure import RadonMeasure\n"
        "from morsegauge.riemann import verify_theorem\n"
        "f = corpus_function('spike1')\n"
        "reps = verify_theorem(f, RadonMeasure.unit(f.universe), eps=0.03,\n"
        "                      trials=1, seed=7)\n"
        "print(json.dumps([r.to_dict() for r in reps]))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, check=True,
                                   timeout=300).stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("name", ["step2", "checker2d"])
def test_corollary_mass_flags_flip_just_past_their_edges(name, monkeypatch):
    # on these entries the worst family and the witness both catch the whole
    # mass, so with abs_total set a few ulps either way of each edge only
    # that edge's flag flips: mass_bounded allows worst up to abs_total +
    # 1e-9, witness_near_total a witness down to abs_total - eps / 2
    f, eps = corpus_function(name), 0.1
    rep = verify_corollary(f, unit(f), eps=eps, seed=2, n_random=4)
    worst, witness = rep.worst_family_mass, rep.witness_mass
    assert worst == pytest.approx(rep.abs_total, rel=1e-12)
    assert witness == pytest.approx(rep.abs_total, rel=1e-12)

    def flags_at(abs_total):
        monkeypatch.setattr(f, "abs_total", lambda: abs_total)
        try:
            got = verify_corollary(f, unit(f), eps=eps, seed=2, n_random=4)
        except BoundViolated as e:
            got = e.report
        assert (got.worst_family_mass, got.witness_mass) == (worst, witness)
        return got.pass_flags

    edges = [("mass_bounded", lambda a: worst <= a + 1e-9, worst - 1e-9,
              -np.inf),
             ("witness_near_total", lambda a: witness >= a - 0.5 * eps,
              witness + 0.5 * eps, np.inf)]
    for flag, holds, near, toward in edges:
        inside, outside = last_passing(holds, near, toward)
        assert all(flags_at(inside).values()), flag
        flags = flags_at(outside)
        assert [k for k, v in flags.items() if not v] == [flag]

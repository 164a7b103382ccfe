import math

import numpy as np
import pytest

from morsegauge.corpus import corpus_function
from morsegauge.errors import DepthExceeded
from morsegauge.gauge import GaugeBuildParams, build_gauge
from morsegauge.geometry import Box, Gauge, NormKind, norm_batch
from morsegauge.measure import RadonMeasure, measure_box_batch
from morsegauge.partition import (
    SieveParams,
    TaggedFamily,
    dyadic_sieve,
    random_dyadic_partition,
    refine_family,
    sabotage_offcenter,
    sabotage_overlap,
    verify_family,
)

UNIT_1D = Box((0.0,), (1.0,))
UNIT_2D = Box((0.0, 0.0), (1.0, 1.0))


def unit(box):
    return RadonMeasure.unit(box)


def gauge_for(name, eps=0.1):
    f = corpus_function(name)
    mu = RadonMeasure.unit(f.universe)
    return f, mu, build_gauge(f, mu, GaugeBuildParams(eps=eps))


# ---------------------------------------------------------------------------
# sieve output, frozen shapes
# ---------------------------------------------------------------------------

def test_sieve_step2_two_cells():
    f, mu, g = gauge_for("step2")
    fam = dyadic_sieve(f.universe, g, mu, SieveParams(eta=0.01))
    assert len(fam) == 2
    assert fam.depth_histogram() == {1: 2}
    assert fam.residual_measure == 0.0
    assert verify_family(fam, g, mu, eta=0.01)


def test_sieve_checker_sixteen_cells():
    f, mu, g = gauge_for("checker2d")
    fam = dyadic_sieve(f.universe, g, mu, SieveParams(eta=0.01))
    assert len(fam) == 16
    assert fam.depth_histogram() == {2: 16}
    assert verify_family(fam, g, mu, eta=0.01)


def test_sieve_linear1_uniform_depth():
    f, mu, g = gauge_for("linear1")
    fam = dyadic_sieve(f.universe, g, mu, SieveParams(eta=0.01))
    # constant gauge 0.01125: level 6 cells (half-side 1/128) pass the
    # look-ahead, level 5 does not
    assert len(fam) == 64
    assert fam.depth_histogram() == {6: 64}
    assert verify_family(fam, g, mu, eta=0.01)


def test_sieve_canonical_order_and_exact_measures():
    f, mu, g = gauge_for("checker2d")
    fam = dyadic_sieve(f.universe, g, mu, SieveParams(eta=0.01))
    assert np.all(np.diff(fam.keys) > 0)
    ms = fam.measures(mu)
    assert math.fsum(ms) + fam.residual_measure == 1.0


def test_sieve_respects_eta_without_full_cover():
    g = Gauge.constant(1.0)
    mu = unit(UNIT_2D)
    fam = dyadic_sieve(UNIT_2D, g, mu, SieveParams(eta=2.0))
    # everything already within budget: nothing needs to be emitted
    assert len(fam) == 0
    assert fam.residual_measure == 1.0
    assert verify_family(fam, g, mu, eta=2.0)


def test_sieve_depth_exceeded_carries_stuck_cells():
    f = corpus_function("spike1")
    mu = RadonMeasure.unit(f.universe)
    g = build_gauge(f, mu, GaugeBuildParams(eps=0.1))
    with pytest.raises(DepthExceeded) as exc:
        dyadic_sieve(f.universe, g, mu, SieveParams(eta=1e-6, max_depth=8))
    stuck = exc.value.stuck
    assert stuck
    for item in stuck:
        # look-ahead means a stuck cell may fail only at a child, so no
        # delta < needed claim; the payload still localizes the problem
        assert item["delta"] > 0 and item["needed"] > 0
        assert len(item["lo"]) == 1
        assert item["lo"][0] < item["hi"][0]


def test_sieve_rejects_non_square_universe():
    g = Gauge.constant(1.0)
    box = Box((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        dyadic_sieve(box, g, unit(box), SieveParams(eta=0.1))


def test_sieve_params_validation():
    with pytest.raises(ValueError):
        SieveParams(eta=0.0)
    with pytest.raises(ValueError):
        SieveParams(eta=0.1, max_depth=-1)


# ---------------------------------------------------------------------------
# the refinement-stability invariant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["step2", "checker2d", "linear1", "lipschitz2d"])
def test_one_step_refinement_stays_verified(name, rng):
    f, mu, g = gauge_for(name)
    fam = dyadic_sieve(f.universe, g, mu, SieveParams(eta=0.01))
    split_all = refine_family(fam, 1.0, rng)
    assert len(split_all) == len(fam) * 2 ** f.dim_in
    assert verify_family(split_all, g, mu, eta=0.01)
    split_some = refine_family(fam, 0.3, rng)
    assert verify_family(split_some, g, mu, eta=0.01)


def test_refinement_preserves_mass(rng):
    f, mu, g = gauge_for("checker2d")
    fam = dyadic_sieve(f.universe, g, mu, SieveParams(eta=0.01))
    ref = refine_family(fam, 0.5, rng)
    assert math.fsum(ref.measures(mu)) == pytest.approx(math.fsum(fam.measures(mu)), abs=1e-15)
    assert np.all(np.diff(ref.keys) > 0)


def test_refine_rejects_nondyadic_families(rng):
    f, mu, g = gauge_for("checker2d")
    fam = dyadic_sieve(f.universe, g, mu, SieveParams(eta=0.01))
    moved = fam.replace_geometry(fam.los.copy(), fam.his.copy(), fam.tags.copy())
    with pytest.raises(ValueError):
        refine_family(moved, 0.5, rng)


# ---------------------------------------------------------------------------
# verifier and sabotage
# ---------------------------------------------------------------------------

def test_random_partition_full_cover(rng):
    g = Gauge.constant(1.0)
    mu = unit(UNIT_2D)
    fam = random_dyadic_partition(UNIT_2D, rng, max_level=4)
    assert fam.residual_measure == 0.0
    assert math.fsum(fam.measures(mu)) == pytest.approx(1.0, abs=1e-12)
    assert verify_family(fam, g, mu, eta=1e-12)


def test_verifier_rejects_overlap(rng):
    f, mu, g = gauge_for("checker2d")
    fam = dyadic_sieve(f.universe, g, mu, SieveParams(eta=0.01))
    bad = sabotage_overlap(fam, rng)
    notes = {}
    assert not verify_family(bad, g, mu, eta=0.01, report=notes)
    assert "overlap" in notes["reason"]


def test_verifier_rejects_offcenter_tags(rng):
    f, mu, g = gauge_for("checker2d")
    fam = dyadic_sieve(f.universe, g, mu, SieveParams(eta=0.01))
    bad = sabotage_offcenter(fam, rng)
    notes = {}
    assert not verify_family(bad, g, mu, eta=0.01, report=notes)
    assert "tag" in notes["reason"]


def test_verifier_rejects_shrunken_gauge():
    f, mu, g = gauge_for("step2")
    fam = dyadic_sieve(f.universe, g, mu, SieveParams(eta=0.01))
    tight = g.scaled(1e-3, note="too tight")
    notes = {}
    assert not verify_family(fam, tight, mu, eta=0.01, report=notes)
    assert "fine" in notes["reason"]


def test_verifier_rejects_escaping_cell():
    g = Gauge.constant(1.0)
    mu = unit(UNIT_1D)
    fam = dyadic_sieve(UNIT_1D, g, mu, SieveParams(eta=1e-9))
    los = fam.los.copy()
    his = fam.his.copy()
    his[-1, 0] += 0.5
    shifted = fam.replace_geometry(los, his, fam.tags)
    assert not verify_family(shifted, g, mu, eta=1e-9)


def test_verifier_rejects_residual_above_eta():
    g = Gauge.constant(1.0)
    mu = unit(UNIT_2D)
    fam = dyadic_sieve(UNIT_2D, g, mu, SieveParams(eta=0.5))
    # demand a smaller eta at verification time than was sieved for
    notes = {}
    ok = verify_family(fam, g, mu, eta=1e-9, report=notes)
    if fam.residual_measure > 1e-9:
        assert not ok
        assert "residual" in notes["reason"]


def test_geometric_sweep_handles_nondyadic_geometry(rng):
    f, mu, g = gauge_for("checker2d")
    fam = dyadic_sieve(f.universe, g, mu, SieveParams(eta=0.01))
    moved = fam.replace_geometry(fam.los.copy(), fam.his.copy(), fam.tags.copy())
    assert not moved.dyadic
    assert verify_family(moved, g, mu, eta=0.01)


@pytest.mark.parametrize("universe,domain_norm", [
    (UNIT_1D, NormKind.INF),
    (UNIT_2D, NormKind.TWO),
], ids=["1d-inf", "2d-two"])
def test_verify_family_fineness_is_non_strict(rng, universe, domain_norm):
    # circumradius exactly equal to delta must count as fine
    fam = random_dyadic_partition(universe, rng, max_level=3, stop_prob=0.0,
                                  domain_norm=domain_norm)
    mu = unit(universe)
    far = np.full((1, universe.dim), 0.5 ** 4)
    circ = float(norm_batch(far, domain_norm)[0])
    assert verify_family(fam, Gauge.constant(circ), mu, eta=1e-12)
    notes = {}
    tight = Gauge.constant(np.nextafter(circ, 0.0))
    assert not verify_family(fam, tight, mu, eta=1e-12, report=notes)
    assert "fine" in notes["reason"]

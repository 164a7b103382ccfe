import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import constant_gauge

from morsegauge.corpus import corpus_function, corpus_names
from morsegauge.errors import OutOfUniverse, PreconditionUncertified
from morsegauge.geometry import Box, NormKind
from morsegauge.measure import (
    RadonMeasure,
    annulus_measure,
    ball_volume,
    measure_box,
    measure_box_batch,
    measure_box_clipped,
    measure_box_exact,
)
from morsegauge.partition import SieveParams, dyadic_sieve

UNIT_1D = Box(lo=(0.0,), hi=(1.0,))
SYM_1D = Box(lo=(-4.0,), hi=(4.0,))
SYM_2D = Box(lo=(-4.0, -4.0), hi=(4.0, 4.0))


def test_unit_measure_box():
    mu = RadonMeasure.unit(UNIT_1D)
    assert measure_box(mu, Box(lo=(0.25,), hi=(0.75,))) == 0.5
    assert type(measure_box(mu, UNIT_1D)) is float


def test_out_of_universe_box():
    mu = RadonMeasure.unit(UNIT_1D)
    with pytest.raises(OutOfUniverse):
        measure_box(mu, Box(lo=(0.5,), hi=(1.5,)))
    with pytest.raises(OutOfUniverse):
        measure_box(mu, Box(lo=(0.0, 0.0), hi=(0.5, 0.5)))


def test_clipped_measure():
    mu = RadonMeasure.unit(UNIT_1D)
    assert measure_box_clipped(mu, Box(lo=(0.5,), hi=(1.5,))) == 0.5
    assert measure_box_clipped(mu, Box(lo=(2.0,), hi=(3.0,))) == 0.0


def test_grid_measure_exact_values():
    mu = RadonMeasure.from_grid(UNIT_1D, 2, [1.0, 2.0, 4.0, 8.0])
    assert measure_box_exact(mu, Box(lo=(0.0,), hi=(0.75,))) == Fraction(7, 4)
    assert measure_box(mu, UNIT_1D) == pytest.approx(15 / 4, rel=0, abs=0)
    # box straddling a grid line splits by exact overlap
    assert measure_box_exact(mu, Box(lo=(0.125,), hi=(0.375,))) == Fraction(1, 8) * 1 + Fraction(1, 8) * 2


def test_dyadic_additivity_is_exact(rng):
    mu = RadonMeasure.from_grid(UNIT_1D, 3, list(rng.uniform(0.5, 3.0, size=8)))
    for _ in range(25):
        level = rng.integers(1, 6)
        n_cells = 2 ** level
        i = int(rng.integers(0, n_cells - 1))
        lo, mid, hi = i / n_cells, (i + 1) / n_cells, (i + 2) / n_cells
        whole = measure_box_exact(mu, Box(lo=(lo,), hi=(hi,)))
        left = measure_box_exact(mu, Box(lo=(lo,), hi=(mid,)))
        right = measure_box_exact(mu, Box(lo=(mid,), hi=(hi,)))
        assert whole == left + right


def test_measure_box_batch_matches_scalar(rng):
    mu = RadonMeasure.from_grid(UNIT_1D, 2, [3.0] * 4)
    los = rng.uniform(0.0, 0.5, size=(10, 1))
    his = los + rng.uniform(0.05, 0.5, size=(10, 1))
    got = measure_box_batch(mu, los, his)
    want = [measure_box(mu, Box(lo=tuple(a), hi=tuple(b))) for a, b in zip(los, his)]
    assert np.allclose(got, want, rtol=1e-12)


def test_float_paths_reject_a_graded_density():
    # the float batch path and the sieve measure uniform densities only;
    # a graded one is refused, not measured as if its first value held
    mu = RadonMeasure.from_grid(UNIT_1D, 2, [1.0, 2.0, 4.0, 8.0])
    with pytest.raises(PreconditionUncertified):
        measure_box_batch(mu, np.array([[0.0]]), np.array([[0.5]]))
    with pytest.raises(PreconditionUncertified):
        dyadic_sieve(UNIT_1D, constant_gauge(1.0), mu, SieveParams(eta=0.1))


# ---------------------------------------------------------------------------
# ball volumes
# ---------------------------------------------------------------------------

def test_ball_volume_closed_forms():
    assert ball_volume(NormKind.TWO, 1, 0.5) == 1.0
    assert ball_volume(NormKind.TWO, 2, 1.0) == pytest.approx(math.pi)
    assert ball_volume(NormKind.TWO, 3, 1.0) == pytest.approx(4 * math.pi / 3)
    assert ball_volume(NormKind.INF, 3, 0.5) == 1.0
    assert ball_volume(NormKind.ONE, 2, 1.0) == pytest.approx(2.0)
    assert ball_volume(NormKind.TWO, 2, 0.0) == 0.0


# ---------------------------------------------------------------------------
# shell annuli: outer ball n+1, inner ball n-2 (empty through n = 2)
# ---------------------------------------------------------------------------

def test_annulus_measure_1d():
    mu = RadonMeasure.unit(SYM_1D)
    assert annulus_measure(mu, 1, NormKind.TWO) == pytest.approx(4.0)
    assert annulus_measure(mu, 2, NormKind.TWO) == pytest.approx(6.0)
    assert annulus_measure(mu, 3, NormKind.TWO) == pytest.approx(8.0 - 2.0)
    # outer ball clips at the universe for large n
    assert annulus_measure(mu, 5, NormKind.TWO) == pytest.approx(8.0 - 6.0)


def test_annulus_measure_2d_euclidean():
    mu = RadonMeasure.unit(SYM_2D)
    assert annulus_measure(mu, 1, NormKind.TWO) == pytest.approx(4 * math.pi)


def test_annulus_rejects_index_zero():
    mu = RadonMeasure.unit(SYM_1D)
    with pytest.raises(ValueError):
        annulus_measure(mu, 0, NormKind.TWO)


def _graded(universe):
    # level-2 density grid with distinct positive cell values
    n = 4 ** universe.dim
    return RadonMeasure.from_grid(universe, 2, np.arange(1.0, n + 1.0))


@pytest.mark.parametrize("name", corpus_names())
def test_annulus_measure_covers_corpus_universes(name):
    # shells 1 and 2 reach past every corpus universe, so the annulus is
    # the whole mass whatever the norm or density
    universe = corpus_function(name).universe
    for mu in (RadonMeasure.unit(universe), _graded(universe)):
        for kind in (NormKind.INF, NormKind.TWO):
            for n in (1, 2):
                assert annulus_measure(mu, n, kind) == mu.total, (kind, n)


def test_annulus_measure_never_undercounts():
    # quarter annulus between radii 1 and 4 inside [0, 4]^2 has area
    # 15 pi / 4; the outer ball pokes out of the universe and the inner
    # ball is not inside it either, so no closed form applies
    mu = RadonMeasure.unit(Box((0.0, 0.0), (4.0, 4.0)))
    assert annulus_measure(mu, 3, NormKind.TWO) >= 3.75 * math.pi

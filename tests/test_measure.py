from fractions import Fraction

import numpy as np
import pytest
from conftest import constant_gauge

from morsegauge.errors import OutOfUniverse, PreconditionUncertified
from morsegauge.geometry import Box
from morsegauge.measure import (
    RadonMeasure,
    measure_box,
    measure_box_batch,
    measure_box_clipped,
    measure_box_exact,
)
from morsegauge.partition import SieveParams, dyadic_sieve

UNIT_1D = Box(lo=(0.0,), hi=(1.0,))


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

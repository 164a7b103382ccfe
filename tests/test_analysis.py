import hashlib

import numpy as np
import pytest

from morsegauge.analysis import CompactContinuitySet, lusin_compact_set
from morsegauge.corpus import corpus_function
from morsegauge.errors import NotPiecewise
from morsegauge.geometry import Box
from morsegauge.measure import RadonMeasure


def unit(f):
    return RadonMeasure.unit(f.universe)


# ---------------------------------------------------------------------------
# compact continuity sets
# ---------------------------------------------------------------------------

def test_lusin_step2_frozen():
    f = corpus_function("step2")
    got = lusin_compact_set(f, f.universe, 0.1, unit(f))
    assert len(got.pieces) == 2
    (a, b) = got.pieces
    assert a.lo == (0.0,) and a.hi == pytest.approx((0.475,))
    assert b.lo == pytest.approx((0.525,)) and b.hi == (1.0,)
    assert got.separation == pytest.approx(0.05)
    assert got.omitted_measure == pytest.approx(0.05)


def test_lusin_omitted_stays_strictly_below_eps():
    for name in ("step2", "checker2d", "sign1"):
        f = corpus_function(name)
        for eps in (0.1, 0.01):
            got = lusin_compact_set(f, f.universe, eps, unit(f))
            assert got.omitted_measure < eps, name
            assert got.separation > 0, name


def test_lusin_checker_geometry():
    f = corpus_function("checker2d")
    got = lusin_compact_set(f, f.universe, 0.1, unit(f))
    assert len(got.pieces) == 16
    # pieces stay inside their original cells: f is constant on each
    for box, val in zip(got.pieces, got.piece_values):
        c = 0.5 * (np.array(box.lo) + np.array(box.hi))
        corners = np.clip([box.lo, box.hi], 1e-12, 1 - 1e-12)
        for q in (c, *corners):
            assert np.array_equal(f.eval_batch([q])[0], val)


def test_lusin_rejects_smooth_entries():
    f = corpus_function("lipschitz2d")
    with pytest.raises(NotPiecewise):
        lusin_compact_set(f, f.universe, 0.1, unit(f))


def test_lusin_subwindow():
    f = corpus_function("step2")
    omega = Box((0.25,), (0.75,))
    got = lusin_compact_set(f, omega, 0.05, unit(f))
    assert got.omitted_measure < 0.05
    for box in got.pieces:
        assert omega.contains_box(box)


def test_compact_set_validation():
    with pytest.raises(ValueError):
        CompactContinuitySet(pieces=(), separation=0.0, omitted_measure=0.0)
    with pytest.raises(ValueError):
        CompactContinuitySet(pieces=(), separation=0.1, omitted_measure=-1.0)


def _lusin_digest(name, eps):
    f = corpus_function(name)
    got = lusin_compact_set(f, f.universe, eps, unit(f))
    blob = repr(([[[v.hex() for v in b.lo], [v.hex() for v in b.hi]]
                  for b in got.pieces],
                 got.separation.hex(), got.omitted_measure.hex()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# sha256 prefixes of the pieces, separation and omitted measure (as
# float.hex), taken while the shrink margin ran a fixed 60 halvings
PINNED_LUSIN = {
    ("step2", 0.1): "4caab638ac5d50ef",
    ("step2", 0.01): "eeaee0dae1c919ed",
    ("sign1", 0.1): "5fd83e4c95e7b37d",
    ("sign1", 0.01): "ad2ec64c90cb1eb9",
    ("checker2d", 0.1): "9f6925fc3c970d3d",
    ("checker2d", 0.01): "cb0e4c5900d309c4",
}


@pytest.mark.parametrize("name,eps", sorted(PINNED_LUSIN))
def test_lusin_compact_set_pinned(name, eps):
    assert _lusin_digest(name, eps) == PINNED_LUSIN[name, eps]

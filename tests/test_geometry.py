import math

import numpy as np
import pytest
from conftest import constant_gauge

from morsegauge.errors import MalformedShape
from morsegauge.geometry import (Box, Gauge, NormKind, bisect_last,
                                 cube_reach, exact_parts, norm_batch)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def norm(v, kind):
    """Scalar reference for norm_batch, one vector at a time."""
    if kind is NormKind.ONE:
        return float(sum(abs(c) for c in v))
    if kind is NormKind.TWO:
        return math.sqrt(math.fsum(c * c for c in v))
    return float(max(abs(c) for c in v)) if len(v) else 0.0


def test_norm_values():
    v = [3.0, -4.0]
    assert norm(v, NormKind.TWO) == 5.0
    assert norm(v, NormKind.ONE) == 7.0
    assert norm(v, NormKind.INF) == 4.0


def test_norm_batch_matches_scalar(rng):
    # scalar TWO accumulates with fsum, batch does not: allow 2 ulp
    V = rng.normal(size=(50, 3))
    for kind in NormKind:
        got = norm_batch(V, kind)
        want = np.array([norm(row, kind) for row in V])
        assert np.allclose(got, want, rtol=5e-16, atol=0)


def test_cube_reach_table():
    # ratio c with |x|_kind <= c * |x|_sup, tight over R^d
    assert cube_reach(NormKind.TWO, 2) == pytest.approx(math.sqrt(2))
    assert cube_reach(NormKind.ONE, 3) == 3.0
    assert cube_reach(NormKind.INF, 3) == 1.0


if HAVE_HYPOTHESIS:

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
        st.sampled_from(list(NormKind)),
    )
    @settings(max_examples=200, deadline=None)
    def test_cube_reach_is_an_upper_bound(vec, kind):
        v = np.asarray(vec)
        c = cube_reach(kind, len(vec))
        assert norm(v, kind) <= c * norm(v, NormKind.INF) * (1 + 1e-12) + 1e-12


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

def test_box_basics():
    b = Box(lo=(0.0, 0.0), hi=(1.0, 2.0))
    assert b.dim == 2
    assert b.volume() == 2.0


def test_box_rejects_inverted_bounds():
    with pytest.raises(MalformedShape):
        Box(lo=(1.0,), hi=(0.0,))


def test_box_intersect_and_overlap():
    a = Box(lo=(0.0,), hi=(1.0,))
    b = Box(lo=(0.5,), hi=(2.0,))
    c = Box(lo=(1.0,), hi=(2.0,))
    got = a.intersect(b)
    assert got.lo == (0.5,) and got.hi == (1.0,)
    # a shared face intersects in a degenerate box
    face = a.intersect(c)
    assert face.lo == (1.0,) and face.hi == (1.0,)
    assert a.intersect(Box(lo=(3.0,), hi=(4.0,))) is None


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------

def test_gauge_range_enforced():
    assert constant_gauge(1.0).delta_batch([[0.3]])[0] == 1.0
    with pytest.raises(ValueError):
        constant_gauge(0.0).delta_batch([[0.0]])
    big = constant_gauge(2.0)
    with pytest.raises(ValueError):
        big.delta_batch([[0.0]])
    with pytest.raises(ValueError):
        big.delta_batch(np.zeros((3, 1)))
    # a NaN fails both comparisons of a naive range check
    nan = Gauge(batch=lambda X: np.where(X[:, 0] > 0, np.nan, 0.5),
                provenance={"kind": "test"})
    with pytest.raises(ValueError):
        nan.delta_batch(np.array([[-0.5], [0.5]]))


def test_gauge_scaled_keeps_ceiling():
    g = constant_gauge(1.0).scaled(0.5)
    assert g.delta_batch([[0.0]])[0] == 0.5
    X = np.array([[0.1], [0.2]])
    assert np.all(g.delta_batch(X) == 0.5)


def _bisect_fixed(ok, lo, hi, steps):
    """Every one of the steps halvings, with no early stop."""
    if ok(hi):
        return hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("threshold", [
    0.3, 1.0 / 3.0, 0.5, 2.0 ** -60, 2.0 ** -199, 2.0 ** -200,
    2.0 ** -201, 1e-300, 0.0, 1.0, 2.0])
@pytest.mark.parametrize("hi,steps", [(1.0, 200), (0.37, 60), (1e-10, 200),
                                      (1e-300, 200)])
def test_bisect_last_matches_fixed_steps(threshold, hi, steps):
    calls = []

    def ok(x):
        calls.append(x)
        return x <= threshold

    want = _bisect_fixed(lambda x: x <= threshold, 0.0, hi, steps)
    got = bisect_last(ok, 0.0, hi, steps)
    assert got.hex() == want.hex()
    assert len(calls) <= steps + 1
    if hi == 1.0 and threshold < 2.0 ** -200:
        # 200 halvings of 1 stop at 2^-200: below it nothing is admitted
        assert got == 0.0


def test_bisect_last_stops_at_float_convergence():
    calls = []

    def ok(x):
        calls.append(x)
        return x <= 0.3

    assert bisect_last(ok, 0.0, 1.0, 200) == _bisect_fixed(
        lambda x: x <= 0.3, 0.0, 1.0, 200)
    # the ends meet after about 54 halvings near 0.3
    assert len(calls) < 60


# ---------------------------------------------------------------------------
# exact sums
# ---------------------------------------------------------------------------

def test_exact_parts_of_empty_and_zero_arrays():
    for a in ([], [0.0] * 5, [-0.0, 0.0, -0.0]):
        assert math.fsum(exact_parts(np.array(a))) == 0.0


def test_exact_parts_of_a_large_wide_array(rng):
    # 2^17 entries over 600 binades: the cut leaves 36 bits a pass
    a = rng.standard_normal(1 << 17) * np.exp2(rng.integers(-300, 300, 1 << 17))
    parts = exact_parts(a)
    assert math.fsum(parts) == math.fsum(a.tolist())
    assert math.fsum(exact_parts(rng.permutation(a))) == math.fsum(parts)


if HAVE_HYPOTHESIS:
    # magnitudes up to 2^1000, so no sum of a few entries overflows, and
    # down through the subnormals to 0
    wide = st.one_of(
        st.floats(-2.0 ** 1000, 2.0 ** 1000),
        st.builds(math.ldexp, st.floats(-1.0, 1.0),
                  st.integers(-1130, 1000)))

    @given(st.lists(wide, max_size=300))
    @settings(max_examples=400, deadline=None)
    def test_exact_parts_sum_is_correctly_rounded(values):
        assert math.fsum(exact_parts(np.array(values, dtype=float))) == \
            math.fsum(values)

    @given(st.lists(wide, min_size=1, max_size=100),
           st.lists(wide, max_size=20), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_exact_parts_survive_cancellation(big, small, rand):
        # every big entry cancels against its negation, in any order, and
        # the small ones are all that is left
        values = big + [-v for v in big] + small
        rand.shuffle(values)
        parts = exact_parts(np.array(values))
        assert math.fsum(parts) == math.fsum(small) == math.fsum(values)

    @given(st.lists(wide, max_size=50),
           st.sampled_from([math.inf, -math.inf, math.nan]),
           st.integers(0, 50))
    @settings(max_examples=200, deadline=None)
    def test_exact_parts_of_non_finite_input_is_not_finite(values, bad, at):
        values.insert(at, bad)
        assert not math.isfinite(math.fsum(exact_parts(np.array(values))))

"""Oracle integrity for the bundled integrand corpus.

Every closed-form oracle (signed integral, absolute integral, deviation
integral, halfside certificates, concentration bounds) is checked against
an independent route: brute midpoint sums in 1-d, the adaptive quadrature
engine in 2-d, and direct sampling for the certificates.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from conftest import brute_mean_dev
from morsegauge.corpus import (MANDATORY, _PiecewiseConstant, corpus_function,
                               corpus_names)
from morsegauge.gauge import GaugeBuildParams, build_gauge
from morsegauge.geometry import Box, NormKind
from morsegauge.measure import RadonMeasure
from morsegauge.quadrature import adaptive_box_quadrature
from morsegauge.riemann import verify_theorem

ALL_NAMES = corpus_names()


def random_window(f, rng, margin=0.0):
    lo = np.asarray(f.universe.lo)
    hi = np.asarray(f.universe.hi)
    a = rng.uniform(lo + margin, hi - margin)
    b = rng.uniform(a, hi - margin)
    width = np.maximum(b - a, 1e-3)
    return a, np.minimum(a + width, hi)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_contents():
    assert set(MANDATORY) <= set(ALL_NAMES)
    assert len(ALL_NAMES) == 8
    with pytest.raises(KeyError):
        corpus_function("no_such_entry")


def test_y_norm_is_plumbed_through():
    f = corpus_function("constant", y_norm=NormKind.ONE)
    assert f.sup_norm == pytest.approx(1.4)  # |0.6| + |0.8|
    f2 = corpus_function("constant", y_norm=NormKind.TWO)
    assert f2.sup_norm == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# frozen spot values
# ---------------------------------------------------------------------------

def test_eval_spot_values():
    def at(name, *x):
        return tuple(corpus_function(name).eval_batch([x])[0])

    assert at("linear1", 0.25) == (0.25,)
    assert at("step2", 0.25) == (1.0, 0.0)
    assert at("step2", 0.75) == (0.0, 1.0)
    assert at("step2", 0.5) == (0.0, 1.0)  # right-hand value at the cut
    assert at("step2_avg", 0.5) == (0.5, 0.5)
    assert at("sign1", 0.0) == (1.0,)
    assert at("sign1", -0.5) == (-1.0,)
    assert at("checker2d", 0.1, 0.1) == (0.0,)
    assert at("checker2d", 0.3, 0.1) == (1.0,)
    assert at("lipschitz2d", 0.5, 0.5)[0] == pytest.approx(
        corpus_function("lipschitz2d").amp)
    assert at("spike1", 0.25) == (2.0,)
    assert at("spike1", 0.0) == (0.0,)


def test_abs_totals():
    assert corpus_function("linear1").abs_total() == pytest.approx(0.5)
    assert corpus_function("spike1").abs_total() == pytest.approx(4.0)
    assert corpus_function("sign1").abs_total() == pytest.approx(2.0)
    assert corpus_function("constant").abs_total() == pytest.approx(1.0)
    assert corpus_function("checker2d").abs_total() == pytest.approx(0.5)
    # int of amp sin(pi x) sin(pi y) = amp (2/pi)^2
    assert corpus_function("lipschitz2d").abs_total() == pytest.approx(0.1 * 4 / math.pi ** 2)


def test_eval_batch_matches_eval(rng):
    for name in ALL_NAMES:
        f = corpus_function(name)
        lo = np.asarray(f.universe.lo)
        hi = np.asarray(f.universe.hi)
        X = rng.uniform(lo, hi, size=(40, f.dim_in))
        got = f.eval_batch(X)
        # each row on its own, as the lock-step quadrature's calls mix them
        want = np.concatenate([f.eval_batch(X[i:i + 1]) for i in range(len(X))])
        assert np.array_equal(got, want), name


# ---------------------------------------------------------------------------
# signed-integral oracles vs independent routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_NAMES)
def test_integral_oracle_vs_quadrature(name, rng):
    f = corpus_function(name)
    for _ in range(6):
        if name == "spike1":
            # one-sided windows keep quadrature off the singular point
            a = np.array([rng.uniform(0.02, 0.8)])
            b = np.array([rng.uniform(a[0] + 0.05, 1.0)])
        else:
            a, b = random_window(f, rng)
        want = f.integral_batch(a[None], b[None])[0]
        val, err = adaptive_box_quadrature(f.eval_batch, a, b, f.dim_out,
                                           tol=5e-3, strict=False)
        assert np.all(np.abs(val - want) <= err + 1e-9), (name, a, b)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_integral_additivity_exact(name, rng):
    f = corpus_function(name)
    for _ in range(10):
        a, b = random_window(f, rng)
        axis = int(rng.integers(f.dim_in))
        mid = 0.5 * (a[axis] + b[axis])
        b1 = b.copy(); b1[axis] = mid
        a2 = a.copy(); a2[axis] = mid
        whole = f.integral_batch(a[None], b[None])[0]
        parts = f.integral_batch(a[None], b1[None])[0] + f.integral_batch(a2[None], b[None])[0]
        assert np.allclose(whole, parts, rtol=1e-12, atol=1e-14), name
        w_abs = f.abs_integral_batch(a[None], b[None])[0]
        p_abs = f.abs_integral_batch(a[None], b1[None])[0] + f.abs_integral_batch(a2[None], b[None])[0]
        assert np.isclose(w_abs, p_abs, rtol=1e-12, atol=1e-14), name


def test_norm_of_integral_below_abs_integral(rng):
    for name in ALL_NAMES:
        f = corpus_function(name)
        for _ in range(5):
            a, b = random_window(f, rng)
            signed = f.integral_batch(a[None], b[None])[0]
            absn = f.abs_integral_batch(a[None], b[None])[0]
            assert f.ynorm(signed) <= absn * (1 + 1e-12) + 1e-15, name


# ---------------------------------------------------------------------------
# deviation oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["linear1", "step2", "sign1", "constant"])
def test_dev_integral_vs_brute_1d(name, rng):
    f = corpus_function(name)
    for _ in range(8):
        a, b = random_window(f, rng)
        v = f.eval_batch([rng.uniform(f.universe.lo, f.universe.hi)])[0]
        v = v + rng.normal(scale=0.3, size=v.shape)
        got, err = f.dev_integral_for_tags(a[None], b[None], 0.5 * (a + b)[None],
                                           v[None])
        want = brute_mean_dev(f, a, b, v)
        assert abs(got[0] - want) <= err[0] + 2e-4, name


def test_dev_integral_spike_one_sided(rng):
    f = corpus_function("spike1")
    for _ in range(8):
        a = rng.uniform(0.05, 0.8)
        b = rng.uniform(a + 0.05, 1.0)
        v = np.array([rng.uniform(0.0, 3.0)])
        got, err = f.dev_integral_for_tags(np.array([[a]]), np.array([[b]]),
                                           np.array([[0.5 * (a + b)]]), v[None])
        want = brute_mean_dev(f, (a,), (b,), v)
        assert abs(got[0] - want) <= err[0] + 2e-4


def test_dev_integral_spike_across_the_singularity():
    # a window across 0 is the sum of its one-sided halves, checked against
    # 30-digit quadrature with breakpoints at 0 and where |t|^(-1/2) = v;
    # the one-sided rows of the same batch keep their own values
    import mpmath

    f = corpus_function("spike1")
    rows = [(-0.3, 0.5, 1.7), (-0.01, 0.02, 3.0), (-0.5, 0.25, 0.0),
            (-1.0, 1.0, -2.0), (0.2, 0.6, 1.5)]
    a, b, v = (np.array(col)[:, None] for col in zip(*rows))
    got, err = f.dev_integral_for_tags(a, b, 0.5 * (a + b), v)
    assert not err.any()
    with mpmath.workdps(30):
        for (lo, hi, val), value in zip(rows[:4], got):
            kinks = [t for t in (-val ** -2, 0.0, val ** -2)
                     if lo < t < hi] if val > 0 else [0.0]
            want = mpmath.quad(lambda t: abs(1 / mpmath.sqrt(abs(t)) - val),
                               [lo, *kinks, hi])
            assert value == pytest.approx(float(want), rel=1e-12)
    alone, _ = f.dev_integral_for_tags(a[4:], b[4:], 0.5 * (a + b)[4:], v[4:])
    assert got[4:].tobytes() == alone.tobytes()


def _lattice_dev_integral(f, a, b, v, n=81):
    """Midpoint lattice estimate of the deviation integral over [a, b]."""
    g = np.linspace(0, 1, n, endpoint=False) + 0.5 / n
    w = b - a
    XY = np.stack(np.meshgrid(a[0] + w[0] * g, a[1] + w[1] * g), axis=-1).reshape(-1, 2)
    return np.abs(f.eval_batch(XY)[:, 0] - v[0]).mean() * np.prod(w)


def test_dev_integral_lipschitz_encloses_truth(rng):
    f = corpus_function("lipschitz2d")
    for _ in range(6):
        c = rng.uniform(0.1, 0.9, size=2)
        h = rng.uniform(0.01, min(c.min(), (1 - c).min()))
        a, b = c - h, c + h
        v = f.eval_batch([c])[0]
        got, err = f.dev_integral_for_tags(a[None], b[None], c[None], v[None])
        want = _lattice_dev_integral(f, a, b, v)
        assert want <= got[0] + err[0] + 1e-6
        assert got[0] - err[0] <= want + 1e-6


def test_dev_integral_lipschitz_clipped_encloses_truth(rng):
    """Off-centre tags and cubes clipped by the universe, the windows the
    sweep meets near the boundary, against the same midpoint lattice."""
    f = corpus_function("lipschitz2d")
    n = 81
    for i in range(12):
        if i % 2:
            # a cube around c that reaches past the universe, clipped
            c = rng.uniform(0.0, 1.0, size=2)
            h = rng.uniform(min(c.min(), (1 - c).min()) + 0.01, 0.6)
            a, b = np.maximum(c - h, 0.0), np.minimum(c + h, 1.0)
        else:
            # an interior window with its tag away from the centre
            a = rng.uniform(0.0, 0.6, size=2)
            b = a + rng.uniform(0.05, 0.4, size=2)
            c = a + rng.uniform(0.0, 1.0, size=2) * (b - a)
        v = f.eval_batch([c])[0]
        got, err = f.dev_integral_for_tags(a[None], b[None], c[None], v[None])
        w = b - a
        want = _lattice_dev_integral(f, a, b, v, n)
        # the midpoint rule's error bound for f - v, whose second
        # derivatives are at most amp * pi^2
        tol = f.amp * math.pi ** 2 * np.prod(w) * (w @ w) / (24 * n * n)
        assert want <= got[0] + err[0] + tol
        assert got[0] - err[0] <= want + tol


def test_dev_integral_zero_at_own_value():
    f = corpus_function("step2")
    a, b = np.array([0.0]), np.array([0.5])
    got, err = f.dev_integral_for_tags(a[None], b[None], 0.5 * (a + b)[None],
                                       np.array([[1.0, 0.0]]))
    assert got[0] == 0.0 and err[0] == 0.0


# ---------------------------------------------------------------------------
# halfside certificates, checked by sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["linear1", "step2", "checker2d", "spike1", "lipschitz2d"])
def test_certified_halfside_is_sound(name, rng):
    f = corpus_function(name)
    lo = np.asarray(f.universe.lo)
    hi = np.asarray(f.universe.hi)
    X = rng.uniform(lo, hi, size=(30, f.dim_in))
    X = X[~f.on_discontinuity_batch(X)]
    if name == "spike1":
        # keep the midpoint check numerically honest near the singularity
        X = X[np.abs(X[:, 0]) >= 0.05]
    budgets = rng.uniform(0.001, 0.2, size=len(X))
    hs = f.certified_halfside_batch(X, budgets)
    assert np.all(hs >= 0)
    for x, bud, h in zip(X, budgets, hs):
        if not (0 < h < math.inf):
            continue
        a = np.maximum(x - h, lo)
        b = np.minimum(x + h, hi)
        want = None
        if f.dim_in == 1:
            want = brute_mean_dev(f, a, b, f.eval_batch([x])[0]) / (b - a).prod()
        else:
            n = 41
            g = np.linspace(0, 1, n, endpoint=False) + 0.5 / n
            XY = np.stack(np.meshgrid(a[0] + (b[0] - a[0]) * g,
                                      a[1] + (b[1] - a[1]) * g), axis=-1).reshape(-1, 2)
            want = f.ynorm_rows(f.eval_batch(XY) - f.eval_batch([x])).mean()
        assert want <= bud * (1 + 1e-6) + 5e-4, (name, x, bud, h)


def test_certified_halfside_zero_on_jumps():
    step = corpus_function("step2")
    assert step.certified_halfside_batch(np.array([[0.5]]), np.array([0.1]))[0] == 0.0
    spike = corpus_function("spike1")
    assert spike.certified_halfside_batch(np.array([[0.0]]), np.array([0.1]))[0] == 0.0


def spike1_halfside_reference(X, budgets):
    """The masked formula: zero at x = 0, the quotient form
    4 (1 - 2^-50) b r^3 / (1 + b r)^2 with r = sqrt(x) elsewhere."""
    x = np.abs(np.asarray(X, dtype=float)[:, 0])
    budgets = np.asarray(budgets, dtype=float) * np.ones(len(x))
    out = np.zeros(len(x))
    pos = x > 0
    xp = x[pos]; bp = budgets[pos]
    br = np.sqrt(xp) * bp
    h = xp * br * (4.0 - 2.0 ** -48) / (1.0 + br) / (1.0 + br)
    h = np.where(br >= 1.0, 0.5 * xp, h)
    out[pos] = np.minimum(np.maximum(h, 0.0), 0.5 * xp)
    return out


def test_spike1_halfside_same_with_and_without_a_zero(rng):
    f = corpus_function("spike1")
    X = rng.uniform(-1, 1, size=(500, 1))
    X[:3, 0] = [1e-300, -5e-324, 1.0]
    budgets = np.exp(rng.uniform(-30, 5, size=len(X)))
    # a zero and a negative budget reach the clip of h to [0, x/2]
    budgets[3:5] = [0.0, -0.5]
    plain = f.certified_halfside_batch(X, budgets)
    assert plain.tobytes() == spike1_halfside_reference(X, budgets).tobytes()
    at = [0, 17, 250, len(X)]
    Xz = np.insert(X, at, [[0.0], [-0.0], [0.0], [0.0]], axis=0)
    bz = np.insert(budgets, at, 0.01)
    with_zero = f.certified_halfside_batch(Xz, bz)
    zero = np.isin(np.arange(len(Xz)), np.array(at) + np.arange(len(at)))
    assert with_zero[~zero].tobytes() == plain.tobytes()
    assert with_zero[zero].tobytes() == np.zeros(len(at)).tobytes()
    # a scalar budget broadcasts to the same values as a full array
    assert np.array_equal(f.certified_halfside_batch(X, 0.01),
                          f.certified_halfside_batch(X, np.full(len(X), 0.01)))
    assert np.array_equal(X, Xz[~zero])  # the input is left alone


@pytest.mark.parametrize("eps", [0.1, 0.01, 0.003])
def test_spike1_halfside_never_above_its_50_digit_value(eps):
    mpmath = pytest.importorskip("mpmath")
    f = corpus_function("spike1")
    mu = RadonMeasure.unit(f.universe)
    g = build_gauge(f, mu, GaugeBuildParams(eps=eps))
    b = 0.9 * g.provenance["shell_budgets"][0]  # the inner shell's certificate budget
    x = np.geomspace(1e-17, 1.0, 60)
    got = f.certified_halfside_batch(x[:, None], b)
    with mpmath.workdps(50):
        for xi, hi in zip(x, got):
            # h = x - s^2 for s = 2/(b + 1/sqrt(x)) - sqrt(x), clipped to x/2
            r = mpmath.sqrt(mpmath.mpf(xi))
            s = 2 / (mpmath.mpf(b) + 1 / r) - r
            want = min(r * r - s * s, r * r / 2) if s > 0 else r * r / 2
            # never above; at most 16 units of roundoff under
            assert hi <= want, xi
            assert hi >= want * (1 - 2 * 2.0 ** -50), xi


# ---------------------------------------------------------------------------
# concentration and absolute continuity
# ---------------------------------------------------------------------------

def worst_abs_concentration(f, m, w0=1.0):
    """sup of the weighted integral of ||f|| over sets of measure <= m under
    the uniform density w0: the bound ac_modulus must keep under eps."""
    if m <= 0:
        return 0.0
    if math.isinf(f.sup_norm):
        # spike1: the worst set of Lebesgue measure m hugs the singularity
        leb = min(m / w0, f.universe.volume())
        return w0 * 2.0 * math.sqrt(2.0 * leb)
    return f.sup_norm * m  # mass scales out: w0 * M * (m / w0)


def test_worst_abs_concentration_frozen():
    spike = corpus_function("spike1")
    assert worst_abs_concentration(spike, 0.02) == pytest.approx(2 * math.sqrt(0.04))
    lin = corpus_function("linear1")
    assert worst_abs_concentration(lin, 0.25) == pytest.approx(0.25)  # sup 1 times m


def test_worst_abs_concentration_dominates_windows(rng):
    for name in ALL_NAMES:
        f = corpus_function(name)
        for _ in range(6):
            a, b = random_window(f, rng)
            m = float(np.prod(b - a))
            got = f.abs_integral_batch(a[None], b[None])[0]
            assert got <= worst_abs_concentration(f, m) * (1 + 1e-12) + 1e-15, name


def test_ac_modulus_frozen_and_consistent():
    spike = corpus_function("spike1")
    assert spike.ac_modulus(0.1) == pytest.approx(0.1 ** 2 / 8)
    lin = corpus_function("linear1")
    assert lin.ac_modulus(0.1) == pytest.approx(0.1)
    for name in ALL_NAMES:
        f = corpus_function(name)
        for eps in (1e300, 0.5, 0.1, 0.01):
            gamma = f.ac_modulus(eps)
            assert gamma > 0
            assert worst_abs_concentration(f, gamma) <= eps * (1 + 1e-12), name


def test_ac_modulus_scales_with_density():
    spike = corpus_function("spike1")
    # doubling the density halves the allowed mu-measure budget twice over:
    # leb shrinks by 4, mu = w0 * leb by 2
    assert spike.ac_modulus(0.1, w0=2.0) == pytest.approx(spike.ac_modulus(0.1) / 2.0)


# ---------------------------------------------------------------------------
# discontinuity bookkeeping
# ---------------------------------------------------------------------------

def test_discontinuity_flags():
    step = corpus_function("step2")
    assert list(step.on_discontinuity_batch([[0.5], [0.499]])) == [True, False]
    assert step.dist_inf_batch([[0.3]])[0] == pytest.approx(0.2)
    check = corpus_function("checker2d")
    assert list(check.on_discontinuity_batch(
        [[0.25, 0.6], [0.1, 0.75], [0.1, 0.1]])) == [True, True, False]
    assert check.dist_inf_batch([[0.1, 0.1]])[0] == pytest.approx(0.15)
    lo, hi, values = corpus_function("lipschitz2d").discontinuities()
    assert lo.shape == hi.shape == (0, 2) and values.shape == (0, 1)


def test_checker_discontinuity_pieces_carry_eval_values():
    check = corpus_function("checker2d")
    lo, hi, values = check.discontinuities()
    assert len(lo) == 24  # 2 axes x 3 lines x 4 segments
    for a, b, v in zip(lo, hi, values):
        assert np.array_equal(v, check.eval_batch([0.5 * (a + b)])[0])


# ---------------------------------------------------------------------------
# piece structure
# ---------------------------------------------------------------------------

def test_piece_structures():
    for name, k in (("step2", 2), ("checker2d", 16), ("constant", 1)):
        f = corpus_function(name)
        lo, hi, values = f.piece_structure()
        assert lo.shape == hi.shape == (k, f.dim_in)
        assert values.shape == (k, f.dim_out)
    assert corpus_function("lipschitz2d").piece_structure() is None
    assert corpus_function("spike1").piece_structure() is None


class _WideTable(_PiecewiseConstant):
    """Test data, not a corpus entry: 64 pieces of [0, 1] cut at the sorted
    values of j * 0.618... mod 1, with value e_j in R^64 on piece j."""

    name = "wide64"
    dim_in = 1
    dim_out = 64
    universe = Box((0.0,), (1.0,))
    cuts = (tuple(sorted(j * (math.sqrt(5.0) - 1.0) / 2.0 % 1.0
                         for j in range(1, 64))),)
    values = tuple(map(tuple, np.eye(64)))


def test_wide_table_jumps_pieces_and_theorem():
    f = _WideTable()
    mu = RadonMeasure.unit(f.universe)
    lo, hi, values = f.discontinuities()
    assert lo.shape == hi.shape == (63, 1) and values.shape == (63, 64)
    assert np.array_equal(values, f.eval_batch(0.5 * (lo + hi)))
    lo, hi, values = f.piece_structure()
    assert lo.shape == hi.shape == (64, 1)
    assert np.array_equal(values, np.eye(64))
    # the jump branch runs per batch; each point's value is its own
    g = build_gauge(f, mu, GaugeBuildParams(eps=0.1))
    faces = f.discontinuities()[0]
    assert np.array_equal(g.delta_batch(faces),
                          [g.delta_batch(x[None])[0] for x in faces])
    start = time.perf_counter()
    reports = verify_theorem(f, mu, 0.1, trials=2)
    took = time.perf_counter() - start
    assert len(reports) == 2
    assert all(all(r.pass_flags.values()) for r in reports)
    assert took < 1.0, took


# ---------------------------------------------------------------------------
# piecewise-constant entries, pinned bit for bit
# ---------------------------------------------------------------------------

# interior cuts per axis, spelled out here so the pin does not read them
# from the entries it pins
PIECEWISE_CUTS = {"constant": (), "step2": (0.5,), "step2_avg": (0.5,),
                  "sign1": (0.0,), "checker2d": (0.25, 0.5, 0.75)}
# the same for the analytic entries: spike1's singular point and the line
# through lipschitz2d's peak
ANALYTIC_CUTS = {"linear1": (), "lipschitz2d": (0.5,), "spike1": (0.0,)}


def _pin_coords(f, cuts):
    """Axis coordinates in the universe: its ends, every cut with its two
    float neighbours, both zeros and two tiny negatives, and a few interior
    points; -0.0 and 0.0 are kept apart."""
    lo, hi = f.universe.lo[0], f.universe.hi[0]
    out = [lo, hi, 0.0, -0.0, -2.0 ** -55, -5e-324]
    for c in cuts:
        out += [c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf)]
    out += [lo + (hi - lo) * k / 7 for k in range(1, 7)]
    unique = {v.hex(): v for v in out if lo <= v <= hi}
    return sorted(unique.values())


def _pin_inputs(f, cuts):
    """Points on the closed universe, the same plus points outside it, and
    windows in the universe whose ends are cuts, its ends or interior
    points."""
    lo, hi = f.universe.lo[0], f.universe.hi[0]
    around = _pin_coords(f, cuts) + [lo - 0.5, hi + 0.5]
    X_all = np.stack([g.ravel() for g in np.meshgrid(
        *[around] * f.dim_in, indexing="ij")], axis=-1)
    X_in = X_all[np.all((X_all >= lo) & (X_all <= hi), axis=1)]
    ends = sorted({lo, hi, *cuts, lo + 0.3 * (hi - lo), 0.1 * lo + 0.9 * hi})
    spans = np.array([(a, b) for a in ends for b in ends if a < b])
    idx = np.stack([g.ravel() for g in np.meshgrid(
        *[np.arange(len(spans))] * f.dim_in, indexing="ij")], axis=-1)
    return X_all, X_in, spans[idx, 0], spans[idx, 1]


def _pin_bytes(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}".encode() + value.tobytes()
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(_pin_bytes(v) for v in value) + b")"
    return repr(value).encode()


def _pin_pieces(arrays):
    """(lo, hi, values) rows as the (Box, value) pairs the pins were taken
    over."""
    if arrays is None:
        return None
    lo, hi, values = arrays
    return [(Box(tuple(a), tuple(b)), v)
            for a, b, v in zip(lo.tolist(), hi.tolist(), values)]


def _pin_digests(name):
    """sha256 prefix per oracle over its outputs under the three y-norms."""
    parts: dict[str, bytes] = {}
    for y_norm in (NormKind.ONE, NormKind.TWO, NormKind.INF):
        f = corpus_function(name, y_norm=y_norm)
        X_all, X_in, los, his = _pin_inputs(
            f, {**PIECEWISE_CUTS, **ANALYTIC_CUTS}[name])
        if name == "spike1":
            # its deviation oracle refuses windows across the singularity
            one_sided = (his[:, 0] <= 0.0) | (los[:, 0] >= 0.0)
            los, his = los[one_sided], his[one_sided]
        tags = 0.5 * (los + his)
        off = los + 0.25 * (his - los)
        V = f.eval_batch(tags)
        W = np.resize(np.array([0.3, -0.7]), (len(los), f.dim_out))
        budgets = np.linspace(0.001, 0.3, len(X_all))
        got = {
            "eval": f.eval_batch(X_in),
            "eval_point": [f.eval_batch([x])[0] for x in X_in[::5]],
            "on_discontinuity": f.on_discontinuity_batch(X_all),
            "dist_inf": (f.dist_inf_batch(X_all) if name in PIECEWISE_CUTS
                         else None),
            "certified_halfside": f.certified_halfside_batch(X_all, budgets),
            "integral": f.integral_batch(los, his),
            "abs_integral": f.abs_integral_batch(los, his),
            "dev_integral": [f.dev_integral_for_tags(los, his, tags, V),
                             f.dev_integral_for_tags(los, his, tags, W)],
            "dev_integral_offcentre": f.dev_integral_for_tags(
                los, his, off, f.eval_batch(off)),
            "discontinuities": _pin_pieces(f.discontinuities()),
            "piece_structure": _pin_pieces(f.piece_structure()),
            "sup_norm": f.sup_norm,
        }
        for key, value in got.items():
            parts[key] = parts.get(key, b"") + _pin_bytes(value)
    return {key: hashlib.sha256(b).hexdigest()[:16] for key, b in parts.items()}


# sha256 prefixes of every oracle's output under the three y-norms, taken
# before the entries became grid value tables
PIN_ORACLES = ("eval", "eval_point", "on_discontinuity", "dist_inf",
               "certified_halfside", "integral", "abs_integral",
               "dev_integral", "discontinuities", "piece_structure",
               "sup_norm")
PINNED = {
    "constant": (
        "853ab380fa4e26e0 c07e9e87c3e38e20 459dd6cd11ec4ce6 4a344ecb36c57802 "
        "4a344ecb36c57802 0cd2152f86614141 82102d645f52c175 dc65d69153ad5194 "
        "91aafaceaba89f1f a08c1537e8762077 07d542d5bea7dca7"),
    "step2": (
        "6cdc21a22da61c8a 0d5cdafc694fb467 08cfb3c55ce4809d 99b2f22ae0b74181 "
        "99b2f22ae0b74181 90da6009d4369c37 fccc7bb84d7116c7 89a6d91ad72234a2 "
        "81a1947e3b3a1668 fa7bd00edcd18e3f f4695ea3da21b640"),
    "step2_avg": (
        "e21d170c00018790 0d5cdafc694fb467 08cfb3c55ce4809d 99b2f22ae0b74181 "
        "99b2f22ae0b74181 90da6009d4369c37 fccc7bb84d7116c7 89a6d91ad72234a2 "
        "22a68101e409fbe1 fa7bd00edcd18e3f f4695ea3da21b640"),
    "sign1": (
        "54d538df83c2c9fd 69aea7ab3e4ae071 dc4f51578e9c3275 1fdda3c9a10a94bc "
        "1fdda3c9a10a94bc 609c9d02f68686ba 88b9ca0fda8119e1 5d4d55b6a8b068ab "
        "ebcab1b8f7856ed8 b5db0b4caffc1506 f4695ea3da21b640"),
    "checker2d": (
        "0c941ef349db5eca 7870599d72acee3f a7f96c32640c2f6f 65c08b50c7ac3f83 "
        "65c08b50c7ac3f83 e3f88c3c5b0d8ca8 75adac8ce5853fb6 0c5e21f828d8a5c1 "
        "541511ed27935661 aaaf35ef0d268361 f4695ea3da21b640"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_piecewise_oracles_pinned(name):
    got = _pin_digests(name)
    want = dict(zip(PIN_ORACLES, PINNED[name].split()))
    assert [k for k in PIN_ORACLES if got[k] != want[k]] == []


# the analytic entries have no jump-distance oracle; their pin adds
# off-centre tags, which lipschitz2d's deviation bound reads.  Taken before
# each oracle was folded into one code path; spike1's certified_halfside
# re-taken when its half-side took the quotient form
ANALYTIC_PIN_ORACLES = tuple(k for k in PIN_ORACLES if k != "dist_inf") \
    + ("dev_integral_offcentre",)
PINNED_ANALYTIC = {
    "linear1": (
        "5e63130a60bf5a7d 986934acf64d0c75 459dd6cd11ec4ce6 12f1195b2709650a "
        "5094dd9721ce28ee 5815ae7579e20800 faf9527ac5902254 91aafaceaba89f1f "
        "d5c4d2ebc764345f f4695ea3da21b640 c38607f1077f597f"),
    "lipschitz2d": (
        "f2398c5b9700dc4e d4e988e1385d8167 b11af8601bcd9a63 fb2d924431f398bc "
        "06f129c7f072ebdd b0cdd3cc7715ca16 07f03825c4af7283 91aafaceaba89f1f "
        "d5c4d2ebc764345f e3704de63570f8be 3df1372a6ac150a8"),
    "spike1": (
        "622b3c3086c1c6f9 ffb9bd7ae06f6e50 dc4f51578e9c3275 320e3a6a6afb80fb "
        "7de8d34adb62bc79 f05898b86db498c1 ee47d74e46511efc 35a4fee262048cd0 "
        "d5c4d2ebc764345f 9843faa459bf8244 5c0213f2f9b84dcb"),
}


@pytest.mark.parametrize("name", sorted(PINNED_ANALYTIC))
def test_analytic_oracles_pinned(name):
    got = _pin_digests(name)
    want = dict(zip(ANALYTIC_PIN_ORACLES, PINNED_ANALYTIC[name].split()))
    assert [k for k in ANALYTIC_PIN_ORACLES if got[k] != want[k]] == []

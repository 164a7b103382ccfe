import heapq
import itertools
import math

import numpy as np
import pytest

from morsegauge.errors import ToleranceUnreachable
from morsegauge.geometry import NormKind, norm_batch
from morsegauge.quadrature import _POP_ROUND, adaptive_box_quadrature


def poly_1d(X):
    x = X[:, 0]
    return (x ** 3 - 2 * x)[:, None]


def smooth_1d(X):
    return np.sin(3.0 * X[:, 0])[:, None]


def checker_3x3(X):
    # jumps at 1/3 and 2/3 sit off the dyadic lattice, so equal straddling
    # cells tie on charge
    return ((np.floor(3 * X[:, 0]) + np.floor(3 * X[:, 1])) % 2)[:, None]


def step_2d(X):
    # flat away from x0 = 0.3 and x1 = 0.6: most cells carry zero charge
    return np.stack([(X[:, 0] >= 0.3).astype(float),
                     np.where(X[:, 1] >= 0.6, 2.0, -1.0)], axis=1)


class RowCounter:
    def __init__(self, f):
        self.f = f
        self.rows = 0

    def __call__(self, X):
        self.rows += len(X)
        return self.f(X)


def heap_reference(f, lo, hi, m, tol, y_norm, max_cells):
    """The refinement rule cell by cell: a heap on (-charge, age).

    Returns (value, bound, cells assessed).
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    dim = len(lo)
    lattice = np.array(list(itertools.product((0.0, 0.5, 1.0), repeat=dim)))
    w = np.ones(1)
    for _ in range(dim):
        w = np.outer(w, [1 / 6, 4 / 6, 1 / 6]).ravel()

    def assess(a, b):
        v = f(a + lattice * (b - a))
        vol = np.prod(b - a)
        rng = (v.max(axis=0) - v.min(axis=0))[None, :]
        return vol * (w @ v), vol * float(norm_batch(rng, y_norm)[0])

    v, c = assess(lo, hi)
    heap = [(-c, 0, lo, hi, v)]
    set_val, set_err, age, cells = np.zeros(m), [], 0, 1
    while (math.fsum([-h[0] for h in heap] + set_err) > tol and heap
           and cells <= max_cells):
        batch = [heapq.heappop(heap) for _ in range(min(_POP_ROUND, len(heap)))]
        for _, _, a, b, _ in batch:
            mid = 0.5 * (a + b)
            for corner in itertools.product((False, True), repeat=dim):
                ca, cb = np.where(corner, mid, a), np.where(corner, b, mid)
                v, c = assess(ca, cb)
                cells += 1
                if c > 1e-300:
                    age += 1
                    heapq.heappush(heap, (-c, age, ca, cb, v))
                else:
                    set_val += v
                    set_err.append(c)
    value = set_val + sum((h[4] for h in heap), np.zeros(m))
    return value, math.fsum([-h[0] for h in heap] + set_err), cells


def test_polynomial_integral_certified():
    # int_0^2 (x^3 - 2x) dx = 4 - 4 = 0
    val, err = adaptive_box_quadrature(poly_1d, [0.0], [2.0], 1, tol=2e-4)
    assert err <= 2e-4
    assert abs(val[0] - 0.0) <= err + 1e-12


def test_vector_integrand_2d():
    def f(X):
        return np.stack([X[:, 0] * X[:, 1], np.sin(X[:, 0])], axis=1)

    # the range charge shrinks like the cell width, so 2-d budgets cap
    # usable tolerances well above machine precision
    val, err = adaptive_box_quadrature(f, [0.0, 0.0], [1.0, 1.0], 2, tol=1e-2)
    assert err <= 1e-2
    want = np.array([0.25, 1.0 - math.cos(1.0)])
    assert np.all(np.abs(val - want) <= err + 1e-12)


def test_step_integrand_enclosure_holds():
    def f(X):
        return (X[:, 0] >= 0.3).astype(float)[:, None]

    # jump off the dyadic lattice: only the straddling cell carries charge
    val, err = adaptive_box_quadrature(f, [0.0], [1.0], 1, tol=1e-6)
    assert err <= 1e-6
    assert abs(val[0] - 0.7) <= err + 1e-12


def test_unreachable_tolerance_raises_when_strict():
    with pytest.raises(ToleranceUnreachable):
        adaptive_box_quadrature(smooth_1d, [0.0], [1.0], 1, tol=1e-12, max_cells=200)


def test_nonstrict_returns_certified_enclosure_at_budget():
    val, err = adaptive_box_quadrature(smooth_1d, [0.0], [1.0], 1, tol=1e-12,
                                       max_cells=200, strict=False)
    want = (1.0 - math.cos(3.0)) / 3.0
    assert err > 1e-12
    assert abs(val[0] - want) <= err


def test_singular_tail_enclosure():
    def f(X):
        x = np.abs(X[:, 0])
        out = np.zeros_like(x)
        nz = x > 0
        out[nz] = 1.0 / np.sqrt(x[nz])
        return out[:, None]

    # int_a^1 x^(-1/2) = 2 - 2 sqrt(a), kept away from the singular endpoint
    val, err = adaptive_box_quadrature(f, [1e-8], [1.0], 1, tol=1e-3)
    assert abs(val[0] - (2.0 - 2e-4)) <= err + 1e-6


@pytest.mark.parametrize("f,lo,hi,kw,rows,value,bound", [
    (smooth_1d, [0.0], [1.0], dict(tol=1e-12, max_cells=200),
     765, 0.6633308322696494, 0.014522498108217013),
    (checker_3x3, [0.0, 0.0], [1.0, 1.0], dict(tol=1e-6, max_cells=5000),
     48717, 0.44576772054036135, 0.0266265869140625),
], ids=["smooth_1d", "checker_3x3"])
def test_refinement_rule_pinned(f, lo, hi, kw, rows, value, bound):
    # the row counts, values and bounds of the heap-based refinement this
    # engine replaced; a change in which cells get split moves them
    counter = RowCounter(f)
    val, err = adaptive_box_quadrature(counter, lo, hi, 1, strict=False, **kw)
    assert counter.rows == rows
    assert val[0] == pytest.approx(value, rel=1e-9)
    assert err == pytest.approx(bound, rel=1e-9)


@pytest.mark.parametrize("f,lo,hi,m,tol,y_norm,max_cells", [
    (smooth_1d, [0.0], [1.0], 1, 1e-12, NormKind.TWO, 200),
    (poly_1d, [0.0], [2.0], 1, 1e-2, NormKind.TWO, 200_000),
    (checker_3x3, [0.0, 0.0], [1.0, 1.0], 1, 1e-6, NormKind.TWO, 3000),
    (step_2d, [0.0, 0.0], [1.0, 1.0], 2, 2e-2, NormKind.INF, 200_000),
    (step_2d, [0.1, 0.2], [0.9, 0.7], 2, 1e-6, NormKind.ONE, 4000),
], ids=["smooth_1d", "poly_1d", "checker_3x3", "step_2d_inf", "step_2d_one"])
def test_matches_heap_reference(f, lo, hi, m, tol, y_norm, max_cells):
    counter = RowCounter(f)
    val, err = adaptive_box_quadrature(counter, lo, hi, m, tol=tol,
                                       y_norm=y_norm, max_cells=max_cells,
                                       strict=False)
    ref_val, ref_err, ref_cells = heap_reference(f, lo, hi, m, tol, y_norm,
                                                 max_cells)
    assert counter.rows == ref_cells * 3 ** len(lo)
    assert err == pytest.approx(ref_err, rel=1e-12)
    assert val == pytest.approx(ref_val, rel=1e-9, abs=1e-12)


def test_set_aside_cells_2d_inf_norm():
    # flat cells have zero charge and are set aside unsplit; the 2-vector
    # output is measured in the sup norm
    val, err = adaptive_box_quadrature(step_2d, [0.0, 0.0], [1.0, 1.0], 2,
                                       tol=2e-2, y_norm=NormKind.INF)
    want = np.array([0.7, 2.0 * 0.4 - 1.0 * 0.6])
    assert err <= 2e-2
    assert np.max(np.abs(val - want)) <= err + 1e-12

import heapq
import itertools
import math

import numpy as np
import pytest

from morsegauge import gauge
from morsegauge.corpus import corpus_function
from morsegauge.errors import ToleranceUnreachable
from morsegauge.gauge import GaugeBuildParams, build_gauge, soundness_sweep
from morsegauge.geometry import NormKind, norm_batch
from morsegauge.measure import RadonMeasure
from morsegauge.quadrature import (
    _POP_ROUND,
    _ROUND_CELLS,
    adaptive_box_quadrature,
    adaptive_box_quadrature_batch,
)


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


def step_smooth_1d(X):
    # a jump in one output, a smooth second output
    return np.stack([(X[:, 0] >= 0.3).astype(float), np.sin(3.0 * X[:, 0])],
                    axis=1)


def step_smooth_3d(X):
    # jumps off the dyadic lattice on two axes plus smooth terms: the 27-point
    # lattice, the 8 children and two outputs
    return np.stack([(X[:, 0] >= 0.3) + X[:, 1] * X[:, 2],
                     np.where(X[:, 2] >= 0.6, 1.0, -0.5) + np.sin(X[:, 0])],
                    axis=1)


def tiny_step(X):
    # the straddling cell's charge falls to at most 1e-300 while still
    # nonzero: it is set aside, yet still counted in the bound
    return np.where(X[:, 0] >= 0.3, 1e-290, 0.0)[:, None]


class RowCounter:
    def __init__(self, f):
        self.f = f
        self.rows = 0

    def __call__(self, X):
        self.rows += len(X)
        return self.f(X)


def heap_reference(f, lo, hi, m, tol, max_cells):
    """The refinement rule cell by cell: a heap on (-charge, age), charges
    in the Euclidean norm.

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
        return vol * (w @ v), vol * float(norm_batch(rng, NormKind.TWO)[0])

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


# the step_2d ids keep the names of the cases as once taken in the sup and
# 1-norms; the engine now charges in the Euclidean norm only
@pytest.mark.parametrize("f,lo,hi,m,tol,max_cells", [
    (smooth_1d, [0.0], [1.0], 1, 1e-12, 200),
    (poly_1d, [0.0], [2.0], 1, 1e-2, 200_000),
    (checker_3x3, [0.0, 0.0], [1.0, 1.0], 1, 1e-6, 3000),
    (step_2d, [0.0, 0.0], [1.0, 1.0], 2, 2e-2, 200_000),
    (step_2d, [0.1, 0.2], [0.9, 0.7], 2, 1e-6, 4000),
    (tiny_step, [0.0], [1.0], 1, 0.0, 200_000),
], ids=["smooth_1d", "poly_1d", "checker_3x3", "step_2d_inf", "step_2d_one",
        "tiny_step"])
def test_matches_heap_reference(f, lo, hi, m, tol, max_cells):
    counter = RowCounter(f)
    val, err = adaptive_box_quadrature(counter, lo, hi, m, tol=tol,
                                       max_cells=max_cells, strict=False)
    ref_val, ref_err, ref_cells = heap_reference(f, lo, hi, m, tol, max_cells)
    assert counter.rows == ref_cells * 3 ** len(lo)
    assert err == pytest.approx(ref_err, rel=1e-12, abs=0)
    assert val == pytest.approx(ref_val, rel=1e-9, abs=1e-12)


def test_set_aside_cells_2d_inf_norm():
    # flat cells have zero charge and are set aside unsplit; the 2-vector
    # output's error, in the sup norm, stays under its Euclidean bound
    val, err = adaptive_box_quadrature(step_2d, [0.0, 0.0], [1.0, 1.0], 2,
                                       tol=2e-2)
    want = np.array([0.7, 2.0 * 0.4 - 1.0 * 0.6])
    assert err <= 2e-2
    assert np.max(np.abs(val - want)) <= err + 1e-12


def random_boxes(rng, lo, hi, k):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    a = lo + rng.uniform(size=(k, len(lo))) * (hi - lo)
    b = lo + rng.uniform(size=(k, len(lo))) * (hi - lo)
    return np.minimum(a, b), np.maximum(a, b)


@pytest.mark.parametrize("f,lo,hi,m,max_cells", [
    (smooth_1d, [0.0], [1.0], 1, 300),
    (poly_1d, [0.0], [2.0], 1, 2000),
    (checker_3x3, [0.0, 0.0], [1.0, 1.0], 1, 3000),
    (step_2d, [0.0, 0.0], [1.0, 1.0], 2, 3000),
    (step_smooth_1d, [0.0], [1.0], 2, 3000),
    (step_smooth_3d, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 2, 3000),
], ids=["smooth_1d", "poly_1d", "checker_3x3", "step_2d_inf", "step_smooth_1d",
        "step_smooth_3d"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_batch_matches_one_box_calls(f, lo, hi, m, max_cells, reverse, rng):
    # lock-step rounds must leave every box with the cells, value and bound
    # it gets alone, whatever boxes share its rounds and in whatever order
    k = 24
    los, his = random_boxes(rng, lo, hi, k)
    tols = list(10.0 ** rng.uniform(-8, -2, size=k))
    order = np.arange(k)[::-1] if reverse else np.arange(k)
    rows = np.zeros(k, dtype=int)

    def counted(P, owner):
        np.add.at(rows, order[owner], 1)
        return f(P)

    vals, errs = adaptive_box_quadrature_batch(
        counted, los[order], his[order], m, [tols[i] for i in order],
        max_cells=max_cells, strict=False)
    assert vals.shape == (k, m) and errs.shape == (k,)
    for j, i in enumerate(order):
        counter = RowCounter(f)
        val, err = adaptive_box_quadrature(counter, los[i], his[i], m,
                                           tol=tols[i], max_cells=max_cells,
                                           strict=False)
        assert rows[i] == counter.rows
        assert np.array_equal(vals[j], val) and errs[j] == err


def test_batch_budget_exhaustion():
    los, his = [[0.0], [0.5]], [[0.5], [1.0]]
    vals, errs = adaptive_box_quadrature_batch(
        lambda P, owner: smooth_1d(P), los, his, 1, [1e-12, 1e-12],
        max_cells=200, strict=False)
    want = (np.cos(3.0 * np.array([0.0, 0.5])) - np.cos(3.0 * np.array(
        [0.5, 1.0]))) / 3.0
    assert np.all(errs > 1e-12)
    assert np.all(np.abs(vals[:, 0] - want) <= errs)
    with pytest.raises(ToleranceUnreachable):
        adaptive_box_quadrature_batch(
            lambda P, owner: smooth_1d(P), los, his, 1, [1e-12, 1e-12],
            max_cells=200, strict=True)


def test_batch_rounds_stay_within_budget(rng):
    # 128 boxes that all run out of cells: no round may assess more than
    # the round budget, however many boxes are still live
    los, his = random_boxes(rng, [0.0, 0.0], [1.0, 1.0], 128)
    calls = []

    def f(P, owner):
        calls.append((len(P), len(np.unique(owner))))
        return np.sin(3.0 * P[:, :1]) * np.cos(2.0 * P[:, 1:])

    adaptive_box_quadrature_batch(f, los, his, 1, [1e-15] * 128,
                                  max_cells=6000, strict=False)
    assert max(n for n, _ in calls) <= _ROUND_CELLS * 3 ** 2
    assert max(boxes for _, boxes in calls) > 1


def reference_quadrature_batch(eval_batch, los, his, m, tols,
                               max_cells=200_000, strict=True):
    """The lock-step engine as first written, cells stored point-major: one
    broadcast builds the lattice and the children, ranges reduce the lattice
    as a middle axis.  The engine must give its cells, values and bounds bit
    for bit."""
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    k, dim = los.shape
    offsets = np.array(list(itertools.product((0.0, 0.5, 1.0), repeat=dim)))
    weights = np.ones(1)
    for _ in range(dim):
        weights = np.outer(weights, np.array([1.0, 4.0, 1.0]) / 6.0).ravel()
    npt = len(offsets)
    kids = 2 ** dim
    val_cols = slice(2 * dim, 2 * dim + m)
    upper = np.array(list(itertools.product((False, True), repeat=dim)))

    def assess(lo, hi, box):
        n = len(lo)
        pts = (lo[:, None, :] + offsets[None, :, :] * (hi - lo)[:, None, :])
        vals = np.asarray(eval_batch(pts.reshape(n * npt, dim),
                                     np.repeat(box, npt)), dtype=float)
        vals = vals.reshape(n, npt, m)
        vols = np.prod(hi - lo, axis=1)
        cell_vals = (weights[None, :, None] * vals).sum(axis=1) * vols[:, None]
        rng = vals.max(axis=1) - vals.min(axis=1)
        charges = norm_batch(rng, NormKind.TWO) * vols
        return np.concatenate([lo, hi, cell_vals, charges[:, None]], axis=1)

    def by_box(rows, own, n):
        cut = np.searchsorted(own, np.arange(n + 1)).tolist()
        return [rows[a:b] for a, b in zip(cut, cut[1:])]

    roots = assess(los, his, np.arange(k))
    pools = [roots[b:b + 1] for b in range(k)]
    values = np.zeros((k, m))
    set_err = [[] for _ in range(k)]
    cells = [1] * k
    bounds = np.empty(k)
    stale = [True] * k
    live = list(range(k))
    while live:
        adv, grow, i = [], 0, 0
        while i < len(live):
            b = live[i]
            if stale[b]:
                bounds[b] = math.fsum(pools[b][:, -1].tolist() + set_err[b])
                stale[b] = False
            err, tol = bounds[b], tols[b]
            if not (err > tol and len(pools[b])) or cells[b] > max_cells:
                if strict and err > tol and len(pools[b]):
                    raise ToleranceUnreachable("budget exhausted")
                values[b] += pools[b][:, val_cols].sum(axis=0)
                pools[b] = None
                del live[i]
                continue
            n = min(len(pools[b]), _POP_ROUND) * kids
            if adv and grow + n > _ROUND_CELLS:
                break
            adv.append(b)
            grow += n
            i += 1
        if not adv:
            break

        sizes = [len(pools[b]) for b in adv]
        pool = np.concatenate([pools[b] for b in adv])
        owner = np.repeat(np.arange(len(adv)), sizes)
        order = np.lexsort((-pool[:, -1], owner))
        rank = np.arange(len(pool)) - (np.cumsum(sizes) - sizes)[owner]
        pick = order[rank < _POP_ROUND]
        rest = np.sort(order[rank >= _POP_ROUND])
        plo, phi = pool[pick, None, :dim], pool[pick, None, dim:2 * dim]
        mid = 0.5 * (plo + phi)
        cown = np.repeat(owner[pick], kids)
        child = assess(np.where(upper, mid, plo).reshape(-1, dim),
                       np.where(upper, phi, mid).reshape(-1, dim),
                       np.asarray(adv)[cown])
        keep = child[:, -1] > 1e-300
        tiny = ~keep & (child[:, -1] != 0)
        n = len(adv)
        gone = by_box(child[~keep, val_cols], cown[~keep], n)
        gone_err = by_box(child[tiny, -1], cown[tiny], n)
        kept = by_box(child[keep], cown[keep], n)
        rest = by_box(pool[rest], owner[rest], n)
        for j, b in enumerate(adv):
            cells[b] += min(sizes[j], _POP_ROUND) * kids
            if len(gone[j]):
                values[b] += gone[j].sum(axis=0)
                set_err[b] += gone_err[j].tolist()
            pools[b] = np.concatenate([rest[j], kept[j]])
            stale[b] = True
    return values, bounds


def assert_same_bits(eval_batch, los, his, m, tols, **kw):
    """Run the engine and the reference on one call: equal values and bounds
    bit for bit, and equal integrand rows per box."""
    runs = []
    for engine in (adaptive_box_quadrature_batch, reference_quadrature_batch):
        rows = np.zeros(len(los), dtype=int)

        def counted(P, owner, rows=rows):
            rows += np.bincount(owner, minlength=len(rows))
            return eval_batch(P, owner)

        runs.append((*engine(counted, los, his, m, tols, **kw), rows))
    (vals, errs, rows), (ref_vals, ref_errs, ref_rows) = runs
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(errs, ref_errs)
    assert np.array_equal(rows, ref_rows)


@pytest.mark.parametrize("f,lo,hi,m,max_cells", [
    (step_smooth_1d, [0.0], [1.0], 2, 3000),
    (checker_3x3, [0.0, 0.0], [1.0, 1.0], 1, 3000),
    (step_2d, [0.0, 0.0], [1.0, 1.0], 2, 3000),
    (step_smooth_3d, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 2, 3000),
], ids=["step_smooth_1d", "checker_3x3", "step_2d", "step_smooth_3d"])
def test_engine_matches_reference_bits(f, lo, hi, m, max_cells, rng):
    los, his = random_boxes(rng, lo, hi, 24)
    tols = list(10.0 ** rng.uniform(-8, -2, size=24))
    assert_same_bits(lambda P, owner: f(P), los, his, m, tols,
                     max_cells=max_cells, strict=False)


@pytest.mark.parametrize("fn", ["checker2d", "lipschitz2d", "spike1", "step2",
                                "linear1", "sign1"])
def test_sweep_calls_match_reference(fn, monkeypatch):
    # the 128-box cross-checks soundness_sweep makes as verify_theorem calls
    # it, at two eps and two seeds
    calls = []

    def capture(*args, **kw):
        calls.append((args, kw))
        return adaptive_box_quadrature_batch(*args, **kw)

    monkeypatch.setattr(gauge, "adaptive_box_quadrature_batch", capture)
    f = corpus_function(fn)
    mu = RadonMeasure.unit(f.universe)
    for eps in (0.1, 0.01):
        p = GaugeBuildParams(eps=eps)
        g = build_gauge(f, mu, p)
        for seed in (0, 1001):
            assert soundness_sweep(f, g, mu, p, n_probes=256, seed=seed).ok()
    assert len(calls) == 4
    for args, kw in calls:
        assert len(args[1]) == 128
        assert_same_bits(*args, **kw)

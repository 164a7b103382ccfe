"""The sieve that decides whole frontier runs from the gauge's box bounds
against the sieve that tests every frontier cell, and the bounds themselves."""

import dataclasses

import numpy as np
import pytest

from morsegauge import partition
from morsegauge.corpus import corpus_function, corpus_names
from morsegauge.errors import DepthExceeded
from morsegauge.gauge import GaugeBuildParams, build_gauge
from morsegauge.geometry import NormKind, norm_ratio
from morsegauge.measure import RadonMeasure
from morsegauge.partition import (
    SieveParams,
    TaggedFamily,
    _CHILD_OFFSETS,
    _coords,
    _front_keys,
    _geometry,
    _indices,
    _key_depth_cap,
    _key_spans,
    _runs,
    _steps,
    dyadic_sieve,
)
from morsegauge.riemann import default_eta, default_sieve_depth


def reference_sieve(omega, g, mu, p, domain_norm=NormKind.TWO):
    """The sieve that tests every frontier cell, CHUNK_CELLS at a time: its
    center against the gauge, then its children's centers."""
    dim = omega.dim
    side = float(omega.hi[0] - omega.lo[0])
    ratio = norm_ratio(NormKind.INF, domain_norm, dim)
    signs = 2.0 * _CHILD_OFFSETS[dim] - 1.0
    limit = min(p.max_depth, _key_depth_cap(dim) - 1)
    uni_lo = np.asarray(omega.lo)[None, :]

    level = 0
    front = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))
    got = [(np.empty(0, dtype=np.int8), front[0][:0], front[1][:0])]
    while True:
        scale = side * 2.0 ** -level
        cells = int(front[1].sum())
        residual = mu.w0 * scale ** dim * cells
        if residual <= p.eta or cells == 0:
            break
        if level > limit:
            a_lo, a_hi, centers = _geometry(omega, level, _indices(
                level, next(_front_keys(*front, level, dim))[:8], dim))
            deltas = g.delta_batch(centers)
            stuck = [{"lo": [float(v) for v in a_lo[i]],
                      "hi": [float(v) for v in a_hi[i]],
                      "delta": float(deltas[i]),
                      "needed": float(0.5 * scale * ratio)}
                     for i in range(len(centers))]
            raise DepthExceeded(
                f"residual {residual:.3e} > eta {p.eta:.3e} at depth "
                f"{limit} ({cells} cells stuck)", stuck=stuck)

        step, span = _steps(omega, level), _key_spans(level, dim)
        parts = []
        for keys in _front_keys(*front, level, dim):
            centers = _coords(uni_lo, step, level,
                              _indices(level, keys, dim), 0.5)
            ok = (0.5 * scale * ratio) <= g.delta_batch(centers)
            if ok.any():
                kids = centers[ok][:, None, :] \
                    + 0.25 * scale * signs[None, :, :]
                kid_d = g.delta_batch(kids.reshape(-1, dim)) \
                    .reshape(-1, len(signs)).min(axis=1)
                kids_ok = (0.25 * scale * ratio) <= kid_d
                ok[np.nonzero(ok)[0][~kids_ok]] = False
            first = np.concatenate(([True], (ok[1:] != ok[:-1]) | (
                keys[1:] - keys[:-1] != span))).nonzero()[0]
            parts.append((keys[first], np.concatenate(
                (first[1:], [len(keys)])) - first, ok[first]))
        starts, counts, fine = (np.concatenate(a) for a in zip(*parts))
        levels = np.full(len(starts), level, dtype=np.int8)
        got.append((levels[fine], starts[fine], counts[fine]))
        _, starts, counts = _runs(levels[~fine], starts[~fine], counts[~fine],
                                  dim)
        front = (starts, counts * 2 ** dim)
        level += 1

    levels, starts, counts = (np.concatenate(a) for a in zip(*got))
    order = np.argsort(starts, kind="stable")
    runs = _runs(levels[order], starts[order], counts[order], dim)
    return TaggedFamily(omega, domain_norm, *runs, float(residual), level,
                        *front)


def setting(name, eps, norm=NormKind.TWO):
    f = corpus_function(name)
    mu = RadonMeasure.unit(f.universe)
    g = build_gauge(f, mu, GaugeBuildParams(eps=eps, domain_norm=norm))
    p = SieveParams(eta=default_eta(f, eps, mu.w0),
                    max_depth=default_sieve_depth(f.dim_in))
    return f, mu, g, p


CASES = [(name, eps, NormKind.TWO) for name in corpus_names()
         for eps in (0.1, 0.01)] + [
    ("spike1", 0.003, NormKind.TWO),
    # --lambda 1's domain norm
    ("step2", 0.01, NormKind.INF),
    ("lipschitz2d", 0.01, NormKind.INF)]
_REFERENCE = {}


@pytest.mark.parametrize("kernel_rows", [None, 4, 64])
@pytest.mark.parametrize("name,eps,norm", CASES)
def test_run_sieve_equals_the_cell_sieve(name, eps, norm, kernel_rows,
                                         monkeypatch):
    f, mu, g, p = setting(name, eps, norm)
    if (name, eps, norm) not in _REFERENCE:
        _REFERENCE[name, eps, norm] = reference_sieve(f.universe, g, mu, p,
                                                      norm)
    want = _REFERENCE[name, eps, norm]
    if kernel_rows is not None:
        # the run path and its halving reach small families and run edges
        monkeypatch.setattr(partition, "KERNEL_ROWS", kernel_rows)
    got = dyadic_sieve(f.universe, g, mu, p, norm)
    for field in ("levels", "starts", "counts", "residual_starts",
                  "residual_counts"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.residual_level == want.residual_level
    assert got.residual_measure == want.residual_measure


def test_key_cap_stops_the_run_sieve_as_the_cell_sieve():
    # run-theorem --fn spike1 --eps 0.5 --eta 1e-25 --max-depth 70
    f, mu, g, _ = setting("spike1", 0.5)
    p = SieveParams(eta=1e-25, max_depth=70)
    errors = []
    for sieve in (reference_sieve, dyadic_sieve):
        with pytest.raises(DepthExceeded) as exc:
            sieve(f.universe, g, mu, p)
        errors.append(exc.value)
    assert str(errors[0]) == str(errors[1])
    assert errors[0].stuck == errors[1].stuck


def bound_boxes(f, rng):
    """Random sub-boxes of f's universe, boxes next to 0 and dyadic cells
    at levels 40-56 near 0, near the universe's ends and anywhere."""
    lo, hi = float(f.universe.lo[0]), float(f.universe.hi[0])
    ends = np.sort(rng.uniform(lo, hi, size=(200, 2)), axis=1)
    tiny = 2.0 ** -rng.uniform(20, 60, size=40)
    near0 = np.stack([np.zeros(40), tiny], axis=1)
    near0 = np.concatenate([near0, -near0[:, ::-1],
                            np.stack([0.5 * tiny, tiny], axis=1)])
    side = hi - lo
    cells = []
    for level in range(40, 57):
        n = 2 ** level
        for i in (0, 1, n // 2 - 2, n // 2 - 1, n // 2, n // 2 + 1, n - 2,
                  n - 1, int(rng.integers(n))):
            cells.append((lo + i * side * 2.0 ** -level,
                          lo + (i + 1) * side * 2.0 ** -level))
    boxes = np.concatenate([ends, near0, np.array(cells)])
    keep = (boxes[:, 0] >= lo) & (boxes[:, 1] <= hi)
    return boxes[keep]


@pytest.mark.parametrize("name", ["spike1", "linear1"])
@pytest.mark.parametrize("eps", [0.5, 0.1, 0.003])
def test_gauge_bounds_hold_over_each_box(name, eps, rng):
    f, mu, g, _ = setting(name, eps)
    boxes = bound_boxes(f, rng)
    low, high = g.bounds_batch(boxes[:, :1], boxes[:, 1:])
    assert np.all(low <= high)
    if name == "spike1":
        # a bound at all boxes off the jump: the sieve decides by them
        off = (boxes[:, 0] > 0) | (boxes[:, 1] < 0)
        assert np.all(low[off] > 0)
    for (a, b), lo_, hi_ in zip(boxes, low, high):
        x = np.unique(np.concatenate([np.linspace(a, b, 513),
                                      np.nextafter([a, b], [b, a])]))
        # the raw values: spike1's is 0 at 0 < |x| < 1e-200, where its
        # product underflows, and delta_batch refuses it
        d = g.batch(x[:, None])
        assert lo_ <= d.min() and d.max() <= hi_, (a, b)
    # the box between each two neighbours of 24 runs of 2^16 points about an
    # ulp apart, where the computed half-side steps down now and then though
    # the true one increases
    x = (np.geomspace(1e-17, 0.9, 24)[:, None] * (1 + 2.0 ** -52 * np.arange(
        1 << 16))).reshape(-1, 1)
    d = g.batch(x)
    low, high = g.bounds_batch(x[:-1], x[1:])
    assert np.all(low <= np.minimum(d[:-1], d[1:]))
    assert np.all(np.maximum(d[:-1], d[1:]) <= high)
    if name == "spike1":
        assert np.any(d[1:] < d[:-1])
    # a scaled gauge keeps no bounds, so a canary sieves cell by cell
    assert g.scaled(2.0).bounds_batch is None


@pytest.mark.parametrize("name", sorted(set(corpus_names())
                                        - {"spike1", "linear1"}))
def test_other_gauges_have_no_bounds(name):
    # constant's family is one cell at every eps, so no bound of its gauge
    # would ever be read; the others have jumps or are 2-d
    assert setting(name, 0.1)[2].bounds_batch is None


def test_run_sieve_evaluates_few_gauge_points():
    f, mu, g, p = setting("spike1", 0.003)
    points = []

    def counting(X):
        points.append(len(X))
        return g.batch(X)

    fam = dyadic_sieve(f.universe, dataclasses.replace(g, batch=counting),
                       mu, p)
    assert len(fam) == 40_029_702
    # 188M when every frontier cell was tested
    assert sum(points) <= 3_000_000, sum(points)

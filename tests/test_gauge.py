import hashlib
import json
import math
import re

import numpy as np
import pytest

from morsegauge import gauge
from morsegauge.analysis import lusin_compact_set
from morsegauge.corpus import corpus_function, corpus_names
from morsegauge.errors import BoundViolated, PreconditionUncertified
from morsegauge.gauge import (
    TUBE_SAFETY,
    GaugeBuildParams,
    NullTube,
    build_gauge,
    build_null_tubes,
    shell_budget,
    shell_budget_table,
    shell_index_batch,
    soundness_sweep,
    value_bin,
)
from morsegauge.geometry import Box, NormKind
from morsegauge.measure import RadonMeasure

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def unit(f):
    return RadonMeasure.unit(f.universe)


# ---------------------------------------------------------------------------
# shells and bins
# ---------------------------------------------------------------------------

def test_shell_index_values():
    got = shell_index_batch([[0.0], [0.5], [1.0], [-2.5]], NormKind.TWO)
    assert list(got) == [1, 1, 2, 3]  # half-open at the top
    got = shell_index_batch(np.array([[0.2], [1.7], [3.0]]), NormKind.TWO)
    assert list(got) == [1, 2, 4]


def test_shell_budget_frozen():
    mu = RadonMeasure.unit(Box((-4.0,), (4.0,)))
    # every shell's budget is taken over 1 + mu([-4, 4]) = 9
    assert shell_budget(0.1, 1, mu) == pytest.approx(0.1 / 8 / 9)
    assert shell_budget(0.1, 3, mu) == pytest.approx(0.1 * 2.0 ** -5 / 9)
    with pytest.raises(ValueError):
        shell_budget(0.0, 1, mu)
    with pytest.raises(ValueError):
        shell_budget(0.1, 0, mu)


# shell_budget_table on the corpus universes, by their measure: under the
# sup and Euclidean norms each reaches shells 1 and 2 only
PINNED_BUDGETS = {
    1.0: {0.1: [0.00625, 0.003125], 0.01: [0.000625, 0.0003125]},
    2.0: {0.1: [0.004166666666666667, 0.0020833333333333333],
          0.01: [0.0004166666666666667, 0.00020833333333333335]},
}


@pytest.mark.parametrize("name", corpus_names())
def test_shell_budget_table_pinned(name):
    mu = unit(corpus_function(name))
    for kind in (NormKind.INF, NormKind.TWO):
        for eps, want in PINNED_BUDGETS[mu.total].items():
            assert shell_budget_table(eps, mu, kind).tolist() == want, (kind, eps)


def test_shell_budget_table_one_norm_reaches_shell_3():
    # the unit square's corner (1, 1) lies in shell 3 of the 1-norm, whose
    # annulus holds less than the square; its budget is still over 1 + mu = 2
    mu = RadonMeasure.unit(Box((0.0, 0.0), (1.0, 1.0)))
    assert shell_budget_table(0.1, mu, NormKind.ONE).tolist() == \
        [0.00625, 0.003125, 0.1 * 2 ** -5 / 2]


def test_shell_budgets_are_summable():
    # sum over shells of 2^(-n-2) * (1 + mu(universe))^-1 * mu(shell) stays
    # below eps: each shell's mass is at most mu(universe)
    mu = RadonMeasure.unit(Box((-4.0,), (4.0,)))
    total = sum(shell_budget(0.1, n, mu) * (1.0 + 8.0) for n in range(1, 12))
    assert total < 0.1


def test_value_bin():
    assert value_bin(0.0) == 1
    assert value_bin(0.99) == 1
    assert value_bin(1.0) == 2
    assert value_bin(2.5) == 3


def test_build_params_validation():
    with pytest.raises(ValueError):
        GaugeBuildParams(eps=0.0)


# ---------------------------------------------------------------------------
# null tubes
# ---------------------------------------------------------------------------

def test_tubes_empty_for_continuous_entries():
    f = corpus_function("lipschitz2d")
    assert build_null_tubes(f, 0.1, unit(f)) == []
    g = corpus_function("constant")
    assert build_null_tubes(g, 0.1, unit(g)) == []


def test_step2_tube_invariants():
    f = corpus_function("step2")
    tubes = build_null_tubes(f, 0.1, unit(f))
    assert len(tubes) == 1
    t = tubes[0]
    assert t.n == 2  # jump value (0, 1) has norm 1
    assert t.measure < t.budget
    assert t.budget == pytest.approx(0.5 * 0.1 / (2 * 2 ** 4))
    assert t.clearance((0.5 + t.width,)) == 0.0
    assert t.clearance((0.5,)) == pytest.approx(t.width)
    assert t.clearance((0.9,)) == 0.0


def test_checker_tube_measure_under_budget():
    f = corpus_function("checker2d")
    for eps in (0.1, 0.01):
        tubes = build_null_tubes(f, eps, unit(f))
        for t in tubes:
            assert t.measure < t.budget
            # every declared segment is strictly inside its bin's tube
            lo, hi, values = f.discontinuities()
            mine = value_bin(f.ynorm_rows(values)) == t.n
            assert np.all(t.clearance(0.5 * (lo + hi)[mine]) > 0.0)


def test_tube_jump_mass_cap():
    # total weighted ||f|| mass inside all tubes <= TUBE_SAFETY * eps / 4
    f = corpus_function("step2")
    eps, safety = 0.1, TUBE_SAFETY
    tubes = build_null_tubes(f, eps, unit(f))
    lo, hi = np.asarray(f.universe.lo), np.asarray(f.universe.hi)
    mass = sum(float(f.abs_integral_batch(np.maximum(t.lo, lo),
                                          np.minimum(t.hi, hi)).sum())
               for t in tubes)
    assert mass <= safety * eps / 4 + 1e-15


def test_tubes_reject_nonuniform_density_with_jumps():
    f = corpus_function("step2")
    mu = RadonMeasure.from_grid(f.universe, 1, [1.0, 2.0])
    with pytest.raises(PreconditionUncertified):
        build_null_tubes(f, 0.1, mu)


def test_gauge_and_lusin_refuse_a_graded_density():
    # both certify Lebesgue means, so a graded density is refused, not
    # misread; linear1 has no jump tube that would refuse it on its own
    for name in ("linear1", "step2"):
        f = corpus_function(name)
        mu = RadonMeasure.from_grid(f.universe, 1, [1.0, 2.0])
        with pytest.raises(PreconditionUncertified):
            build_gauge(f, mu, GaugeBuildParams(eps=0.1))
        if name == "step2":
            with pytest.raises(PreconditionUncertified):
                lusin_compact_set(f, f.universe, 0.1, mu)


# ---------------------------------------------------------------------------
# total gauges
# ---------------------------------------------------------------------------

def test_constant_gauge_is_one():
    f = corpus_function("constant")
    g = build_gauge(f, unit(f), GaugeBuildParams(eps=0.1))
    X = np.linspace(0, 1, 17)[:, None]
    assert np.all(g.delta_batch(X) == 1.0)


def test_linear1_gauge_frozen():
    f = corpus_function("linear1")
    g = build_gauge(f, unit(f), GaugeBuildParams(eps=0.1))
    # single shell, budget eps/8 / (1 + 1) = 0.00625; certified halfside
    # 2 * margin * budget = 0.01125 everywhere
    X = np.array([[0.1], [0.5], [0.9]])
    assert np.allclose(g.delta_batch(X), 0.01125, rtol=1e-12)
    assert g.delta_batch([[0.3]])[0] == pytest.approx(0.01125)


def test_gauge_positive_and_capped(rng):
    for name in ("step2", "checker2d", "spike1", "lipschitz2d"):
        f = corpus_function(name)
        g = build_gauge(f, unit(f), GaugeBuildParams(eps=0.1))
        lo = np.asarray(f.universe.lo)
        hi = np.asarray(f.universe.hi)
        X = rng.uniform(lo, hi, size=(300, f.dim_in))
        d = g.delta_batch(X)
        assert np.all(d > 0), name
        assert np.all(d <= 1.0), name


@pytest.mark.parametrize("name", corpus_names())
def test_mixed_batch_matches_its_subsets(name, rng):
    # every point takes the shell-budget formula and the jump entries are
    # then replaced: each value must depend on its own point only
    f = corpus_function(name)
    g = build_gauge(f, unit(f), GaugeBuildParams(eps=0.1))
    lo = np.asarray(f.universe.lo)
    hi = np.asarray(f.universe.hi)
    jlo, jhi, _ = f.discontinuities()
    jumps = [c for a, b in zip(jlo, jhi) for c in (a, b, 0.5 * (a + b))]
    X = np.concatenate([rng.uniform(lo, hi, size=(200, f.dim_in))]
                       + [np.asarray(jumps).reshape(-1, f.dim_in)])
    X = X[rng.permutation(len(X))]
    on = f.on_discontinuity_batch(X)
    assert on.any() == bool(jumps), name
    mixed = g.delta_batch(X)
    split = np.empty(len(X))
    split[~on] = g.delta_batch(X[~on])
    if on.any():
        split[on] = g.delta_batch(X[on])
    assert np.array_equal(mixed, split), name
    # the lock-step quadrature evaluates many boxes' points in one call, so
    # eval_batch must be row-wise too
    rows = np.concatenate([f.eval_batch(X[i:i + 1]) for i in range(len(X))])
    assert np.array_equal(f.eval_batch(X), rows), name


def test_nan_halfside_is_rejected_not_capped(monkeypatch):
    f = corpus_function("spike1")
    monkeypatch.setattr(f, "certified_halfside_batch",
                        lambda X, budgets: np.full(len(X), np.nan))
    g = build_gauge(f, unit(f), GaugeBuildParams(eps=0.1))
    with pytest.raises(ValueError):
        g.delta_batch(np.array([[0.25]]))
    # an infinite halfside is an uncapped reach, capped to 1
    monkeypatch.setattr(f, "certified_halfside_batch",
                        lambda X, budgets: np.full(len(X), np.inf))
    assert np.array_equal(g.delta_batch(np.array([[0.25], [0.0]])),
                          [1.0, g.delta_batch([[0.0]])[0]])


def test_gauge_jump_branch_half_clearance():
    f = corpus_function("step2")
    p = GaugeBuildParams(eps=0.1)
    g = build_gauge(f, unit(f), p)
    tubes = build_null_tubes(f, p.eps, unit(f))
    t = tubes[0]
    assert g.delta_batch([[0.5]])[0] == pytest.approx(0.5 * t.clearance((0.5,))[0])


def _gauge_with_tubes(monkeypatch, name, tubes):
    monkeypatch.setattr(gauge, "build_null_tubes", lambda f, eps, mu: tubes)
    f = corpus_function(name)
    return build_gauge(f, unit(f), GaugeBuildParams(eps=0.1))


def _far_tube(n, dim):
    # a tube of bin n nowhere near the jump set
    return NullTube(n=n, lo=np.full((1, dim), 0.9), hi=np.full((1, dim), 0.95),
                    measure=0.05 ** dim, width=0.025, budget=1.0)


def test_jump_branch_guards_name_the_first_offending_point(monkeypatch):
    def raises(g, X, message):
        with pytest.raises(BoundViolated, match=f"^{re.escape(message)}$"):
            g.delta_batch(np.array(X))

    # step2's jump value (0, 1) is in bin 2; the first point is off the jump
    X = [[0.25], [0.5]]
    raises(_gauge_with_tubes(monkeypatch, "step2", []), X,
           f"jump point {(np.float64(0.5),)} has no tube in bin 2")
    raises(_gauge_with_tubes(monkeypatch, "step2", [_far_tube(2, 1)]), X,
           f"jump point {(np.float64(0.5),)} escapes its tube")
    # checker2d: (0.5, 0.6) takes the value 0 (bin 1, no tube here) and
    # (0.25, 0.1) the value 1 (bin 2, a tube that misses it)
    g = _gauge_with_tubes(monkeypatch, "checker2d", [_far_tube(2, 2)])
    a, b = (0.5, 0.6), (0.25, 0.1)
    raises(g, [a, b], f"jump point {tuple(map(np.float64, a))} has no tube in bin 1")
    raises(g, [b, a], f"jump point {tuple(map(np.float64, b))} escapes its tube")


def test_gauge_provenance_serializes():
    f = corpus_function("step2")
    g = build_gauge(f, unit(f), GaugeBuildParams(eps=0.1))
    blob = json.loads(json.dumps(g.provenance))
    assert blob["fn"] == "step2"
    assert blob["eps"] == 0.1
    assert blob["tubes"][0]["n"] == 2


def test_gauge_shrinks_with_eps_interior(rng):
    # only away from the boundary: the clipped-window fallback can out-rank
    # the interior certificate of a larger budget, so global monotonicity
    # in eps is not promised (soundness is)
    f = corpus_function("lipschitz2d")
    g1 = build_gauge(f, unit(f), GaugeBuildParams(eps=0.1))
    g2 = build_gauge(f, unit(f), GaugeBuildParams(eps=0.01))
    X = rng.uniform(0.15, 0.85, size=(100, 2))
    assert np.all(g2.delta_batch(X) <= g1.delta_batch(X) + 1e-15)


if HAVE_HYPOTHESIS:

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.2))
    @settings(max_examples=60, deadline=None)
    def test_spike_gauge_positive_off_origin(x, eps):
        f = corpus_function("spike1")
        g = build_gauge(f, RadonMeasure.unit(f.universe),
                        GaugeBuildParams(eps=eps))
        d = g.delta_batch([[x], [-x]])
        assert np.all((0.0 < d) & (d <= 1.0))


# ---------------------------------------------------------------------------
# soundness sweeps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["linear1", "step2", "lipschitz2d"])
def test_sweep_passes_small(name):
    f = corpus_function(name)
    p = GaugeBuildParams(eps=0.1)
    g = build_gauge(f, unit(f), p)
    rep = soundness_sweep(f, g, unit(f), p, n_probes=800, seed=3)
    assert rep.ok(), rep.violations[:3]
    assert rep.probes > 0
    # build margin: full-budget ratios stay at or below 0.9
    assert rep.max_budget_ratio <= 0.9 + 1e-9


def test_sweep_counts_jump_probes():
    f = corpus_function("step2")
    p = GaugeBuildParams(eps=0.1)
    g = build_gauge(f, unit(f), p)
    rep = soundness_sweep(f, g, unit(f), p, n_probes=400, seed=1)
    assert rep.a_probes > 0
    assert rep.ok()


def test_sweep_catches_inflated_gauge():
    f = corpus_function("linear1")
    p = GaugeBuildParams(eps=0.1)
    g = build_gauge(f, unit(f), p).scaled(40.0)
    rep = soundness_sweep(f, g, unit(f), p, n_probes=400, seed=0)
    assert not rep.ok()
    assert rep.max_budget_ratio > 1.0


def test_sweep_reports_spike_windows_across_the_singularity(monkeypatch):
    # a gauge scaled far past its certificate reaches across spike1's
    # singularity; the sweep must report that as violations, not raise
    f = corpus_function("spike1")
    p = GaugeBuildParams(eps=0.1)
    g = build_gauge(f, unit(f), p)
    across = []
    dev = f.dev_integral_for_tags

    def recorded(los, his, *rest):
        across.append(np.any((los[:, 0] < 0) & (his[:, 0] > 0)))
        return dev(los, his, *rest)

    monkeypatch.setattr(f, "dev_integral_for_tags", recorded)
    counts = [len(soundness_sweep(f, g.scaled(scale), unit(f), p,
                                  n_probes=256, seed=0).violations)
              for scale in (10.0, 100.0)]
    assert any(across)
    assert counts == [33, 33]


def test_sweep_report_roundtrip():
    f = corpus_function("linear1")
    p = GaugeBuildParams(eps=0.1)
    g = build_gauge(f, unit(f), p)
    rep = soundness_sweep(f, g, unit(f), p, n_probes=100, seed=0)
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["fn"] == "linear1"
    assert blob["n_violations"] == 0


# ---------------------------------------------------------------------------
# pinned tubes and jump-branch gauge values
# ---------------------------------------------------------------------------

def _jump_probe_points(f):
    """Every corner and centre of every jump piece, each nudged one float
    either way along every axis, and the universe corners; points outside
    the universe are dropped.  A zero coordinate moves by 2^-52 instead:
    the spike1 halfside underflows to 0 near its singularity (below about
    1e-200), which the gauge rejects, and that is not what this pins."""
    lo, hi, _ = f.discontinuities()
    base = [c for a, b in zip(lo, hi) for c in (a, b, 0.5 * (a + b))]
    pts = list(base)
    for x in base:
        for k in range(f.dim_in):
            for to in (-math.inf, math.inf):
                y = x.copy()
                y[k] = math.nextafter(y[k], to) if y[k] else \
                    math.copysign(2.0 ** -52, to)
                pts.append(y)
    pts += [np.asarray(c, dtype=float) for c in f.universe.corners()]
    P = np.unique(np.array(pts), axis=0)
    lo = np.asarray(f.universe.lo)
    hi = np.asarray(f.universe.hi)
    return P[np.all((P >= lo) & (P <= hi), axis=1)]


def _tube_digests(name):
    tubes_bytes, delta_bytes = b"", b""
    for ynorm in (NormKind.ONE, NormKind.TWO, NormKind.INF):
        f = corpus_function(name, y_norm=ynorm)
        for eps in (0.1, 0.01, 0.001):
            tubes = build_null_tubes(f, eps, unit(f))
            tubes_bytes += json.dumps([t.to_dict() for t in tubes],
                                      sort_keys=True).encode()
            g = build_gauge(f, unit(f), GaugeBuildParams(eps=eps))
            delta_bytes += g.delta_batch(_jump_probe_points(f)).tobytes()
    return (hashlib.sha256(tubes_bytes).hexdigest()[:16],
            hashlib.sha256(delta_bytes).hexdigest()[:16])


# sha256 prefixes of the tubes' to_dict and of the gauge at the jump probe
# points, under y-norms 1, 2 and inf at eps 0.1, 0.01 and 0.001; taken while
# the tubes were still built from Box objects, spike1's gauge re-taken when
# its half-side took the quotient form
PINNED_TUBES = {
    "checker2d": ("6ee109aaa49207ac", "c088cf686042bd13"),
    "sign1": ("dc754ce9fb4463d0", "4c2ab355adb0e1ba"),
    "spike1": ("0c9360a9cc90c377", "9e1740bec55ae6f5"),
    "step2": ("b3f32a656e2a85c6", "c73fa24ee9106b31"),
    "step2_avg": ("e8303bb37058c3a0", "1b7b865b85502905"),
}


@pytest.mark.parametrize("name", sorted(PINNED_TUBES))
def test_tubes_and_jump_gauge_pinned(name):
    assert _tube_digests(name) == PINNED_TUBES[name]

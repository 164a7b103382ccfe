import dataclasses
import hashlib
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from conftest import cell_arrays, constant_gauge, last_passing, run_cells

from morsegauge import partition
from morsegauge.corpus import corpus_function
from morsegauge.errors import DepthExceeded
from morsegauge.gauge import GaugeBuildParams, build_gauge
from morsegauge.geometry import Box, Gauge, NormKind, norm_batch
from morsegauge.measure import RadonMeasure, measure_box_batch
from morsegauge.partition import (
    dyadic_sieve,
    random_dyadic_partition,
    refine_family,
    sabotage_offcenter,
    sabotage_overlap,
    verify_family,
    with_cells,
)
from morsegauge.riemann import build_report, default_eta, default_sieve_depth

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

UNIT_1D = Box((0.0,), (1.0,))
UNIT_2D = Box((0.0, 0.0), (1.0, 1.0))


def unit(box):
    return RadonMeasure.unit(box)


def gauge_for(name, eps=0.1):
    f = corpus_function(name)
    mu = RadonMeasure.unit(f.universe)
    return f, mu, build_gauge(f, mu, GaugeBuildParams(eps=eps))


def derived(fam, field):
    """One derived per-cell array (indices, los, his, tags) of the whole
    family, gathered from its chunks."""
    return np.concatenate([getattr(c, field) for c in fam.chunks()])


def depth_histogram(fam):
    """Cells per level of the whole family, from its reference cells."""
    levels, counts = np.unique(cell_arrays(fam)[0], return_counts=True)
    return {int(k): int(v) for k, v in zip(levels, counts)}


def cell_measures(fam, mu):
    return np.concatenate([measure_box_batch(mu, c.los, c.his)
                           for c in fam.chunks()])


# ---------------------------------------------------------------------------
# sieve output, frozen shapes
# ---------------------------------------------------------------------------

def test_sieve_step2_two_cells():
    f, mu, g = gauge_for("step2")
    fam = dyadic_sieve(f.universe, g, mu, 0.01)
    assert len(fam) == 2
    assert depth_histogram(fam) == {1: 2}
    assert fam.residual_measure == 0.0
    assert verify_family(fam, g, mu, eta=0.01)


def test_sieve_checker_sixteen_cells():
    f, mu, g = gauge_for("checker2d")
    fam = dyadic_sieve(f.universe, g, mu, 0.01)
    assert len(fam) == 16
    assert depth_histogram(fam) == {2: 16}
    assert verify_family(fam, g, mu, eta=0.01)


def test_sieve_linear1_uniform_depth():
    f, mu, g = gauge_for("linear1")
    fam = dyadic_sieve(f.universe, g, mu, 0.01)
    # constant gauge 0.01125: level 6 cells (half-side 1/128) pass the
    # look-ahead, level 5 does not
    assert len(fam) == 64
    assert depth_histogram(fam) == {6: 64}
    assert verify_family(fam, g, mu, eta=0.01)


def test_sieve_canonical_order_and_exact_measures():
    f, mu, g = gauge_for("checker2d")
    fam = dyadic_sieve(f.universe, g, mu, 0.01)
    assert np.all(np.diff(derived(fam, "keys")) > 0)
    ms = cell_measures(fam, mu)
    assert math.fsum(ms) + fam.residual_measure == 1.0


def test_sieve_respects_eta_without_full_cover():
    g = constant_gauge(1.0)
    mu = unit(UNIT_2D)
    fam = dyadic_sieve(UNIT_2D, g, mu, 2.0)
    # everything already within budget: nothing needs to be emitted
    assert len(fam) == 0
    assert fam.residual_measure == 1.0
    assert verify_family(fam, g, mu, eta=2.0)


def test_sieve_depth_exceeded_carries_stuck_cells():
    f = corpus_function("spike1")
    mu = RadonMeasure.unit(f.universe)
    g = build_gauge(f, mu, GaugeBuildParams(eps=0.1))
    with pytest.raises(DepthExceeded) as exc:
        dyadic_sieve(f.universe, g, mu, 1e-6, 8)
    stuck = exc.value.stuck
    assert stuck
    for item in stuck:
        # look-ahead means a stuck cell may fail only at a child, so no
        # delta < needed claim; the payload still localizes the problem
        assert item["delta"] > 0 and item["needed"] > 0
        assert len(item["lo"]) == 1
        assert item["lo"][0] < item["hi"][0]


def test_sieve_rejects_non_square_universe():
    g = constant_gauge(1.0)
    box = Box((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        dyadic_sieve(box, g, unit(box), 0.1)


def test_sieve_params_validation():
    g, mu = constant_gauge(1.0), unit(UNIT_1D)
    with pytest.raises(ValueError, match="eta must be positive"):
        dyadic_sieve(UNIT_1D, g, mu, 0.0)
    with pytest.raises(ValueError, match="max_depth must be nonnegative"):
        dyadic_sieve(UNIT_1D, g, mu, 0.1, max_depth=-1)


def sieve_for(name, eps):
    f, mu, g = gauge_for(name, eps)
    return dyadic_sieve(f.universe, g, mu, default_eta(f, eps, mu.w0),
                        default_sieve_depth(f.dim_in))


def residual_keys(fam):
    """Reference keys of the residual frontier's cells."""
    levels = np.full(len(fam.residual_starts), fam.residual_level, np.int8)
    return run_cells(levels, fam.residual_starts, fam.residual_counts,
                     fam.dim)[1]


# sha256 prefixes of each family's cell levels, cell keys and residual keys,
# taken when the sieve built whole cell arrays and sorted them
@pytest.mark.parametrize("case,cells,digest", [
    ("spike1-0.1", 37866, "8ba243f9d492e81e"),
    ("lipschitz2d-0.01", 49504, "c5682ca3d6f694b6"),
    ("random-1d", 14, "c08965f3c1ebe284"),
    ("random-2d", 247, "a95401b2978021b4"),
    ("random-3d", 8667, "1b7aa8fb4d08c937")])
def test_run_chunks_match_the_cell_reference(case, cells, digest, monkeypatch):
    kind, arg = case.split("-")
    if kind == "random":
        dim = int(arg[0])
        fam = random_dyadic_partition(
            Box((0.0,) * dim, (1.0,) * dim), np.random.default_rng(20260817),
            max_level=5, stop_prob=0.2)
    else:
        fam = sieve_for(kind, float(arg))
    levels, keys = cell_arrays(fam)
    residual = residual_keys(fam)
    assert len(fam) == len(keys) == cells
    assert hashlib.sha256(levels.tobytes() + keys.tobytes()
                          + residual.tobytes()).hexdigest()[:16] == digest
    # 7-cell chunks cut through runs
    monkeypatch.setattr(partition, "CHUNK_CELLS", 7)
    chunks = list(fam.chunks())
    assert [c.start for c in chunks] == list(range(0, cells, 7))
    got = np.concatenate([c.levels for c in chunks])
    assert got.dtype == np.int8
    assert np.array_equal(got, levels)
    assert np.array_equal(np.concatenate([c.keys for c in chunks]), keys)
    lo = np.asarray(fam.universe.lo)
    step = (np.asarray(fam.universe.hi) - lo) * 2.0 ** -fam.residual_level
    boxes = list(fam.residual_boxes())
    assert all(len(b) <= 7 for b, _ in boxes)
    if len(residual):
        idx = partition._indices(fam.residual_level, residual, fam.dim)
        assert np.array_equal(np.concatenate([b for b, _ in boxes]),
                              lo + idx * step)


@pytest.mark.parametrize("name,eps", [("spike1", 0.3), ("lipschitz2d", 0.1),
                                      ("checker2d", 0.1)])
def test_sieve_runs_are_chunk_size_free(name, eps, monkeypatch):
    # the sieve turns each chunk's mask into runs; runs that cross a chunk
    # boundary must join up again, in the family and in its frontier
    want = sieve_for(name, eps)
    for chunk in (7, 61):
        monkeypatch.setattr(partition, "CHUNK_CELLS", chunk)
        got = sieve_for(name, eps)
        for field in ("levels", "starts", "counts", "residual_starts",
                      "residual_counts"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert got.residual_level == want.residual_level
        assert got.residual_measure == want.residual_measure


def test_sieve_memory_does_not_grow_with_the_family():
    # tracemalloc peak of the spike1 @0.01 sieve: 99.0 MB when the sieve
    # built whole cell arrays, 8.6 MB with runs
    f, mu, g = gauge_for("spike1", 0.01)
    eta, depth = default_eta(f, 0.01, mu.w0), default_sieve_depth(f.dim_in)
    tracemalloc.start()
    try:
        fam = dyadic_sieve(f.universe, g, mu, eta, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6, peak
    assert len(fam) == 3_558_174
    assert len(fam.starts) <= 100
    assert len(fam.residual_starts) <= 100
    assert fam.residual_counts.sum() == 2_500_668


def test_with_cells_keeps_corrupt_cells_as_given():
    # a stray low key bit, a duplicated cell and a swapped pair each break a
    # run, and the chunks still give back every key as it was set
    fam = sieve_for("spike1", 0.3)
    levels, keys = cell_arrays(fam)
    i = len(keys) // 2
    stray, dup, swap = keys.copy(), keys.copy(), keys.copy()
    stray[i] |= 1
    dup[i + 1] = keys[i]
    swap[[i, i + 1]] = keys[[i + 1, i]]
    for cells in (keys, stray, dup, swap):
        got = with_cells(fam, levels, cells)
        assert np.array_equal(derived(got, "keys"), cells)
        assert len(got.starts) <= len(fam.starts) + 3


# ---------------------------------------------------------------------------
# the refinement-stability invariant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["step2", "checker2d", "linear1", "lipschitz2d"])
def test_one_step_refinement_stays_verified(name, rng):
    f, mu, g = gauge_for(name)
    fam = dyadic_sieve(f.universe, g, mu, 0.01)
    split_all = refine_family(fam, 1.0, rng)
    assert len(split_all) == len(fam) * 2 ** f.dim_in
    assert verify_family(split_all, g, mu, eta=0.01)
    split_some = refine_family(fam, 0.3, rng)
    assert verify_family(split_some, g, mu, eta=0.01)


def test_refinement_preserves_mass(rng):
    f, mu, g = gauge_for("checker2d")
    fam = dyadic_sieve(f.universe, g, mu, 0.01)
    ref = refine_family(fam, 0.5, rng)
    assert math.fsum(cell_measures(ref, mu)) == pytest.approx(
        math.fsum(cell_measures(fam, mu)), abs=1e-15)
    assert np.all(np.diff(derived(ref, "keys")) > 0)


def reference_keys(levels, indices, dim):
    """Morton keys by bit interleaving, level digit by level digit: the j-th
    digit holds bit (level - j) of every axis, axis 0 most significant, at
    bit position dim * (62 // dim - j)."""
    cap = 62 // dim
    keys = []
    for level, idx in zip(levels.tolist(), indices.tolist()):
        key = 0
        for j in range(1, level + 1):
            digit = 0
            for k in range(dim):
                digit |= ((idx[k] >> (level - j)) & 1) << (dim - 1 - k)
            key |= digit << (dim * (cap - j))
        keys.append(key)
    return np.array(keys, dtype=np.int64)


def assert_indices_round_trip(fam):
    """The indices chunks() derives from the keys interleave back into the
    keys, and the tags sit at the cell centers they imply."""
    idx, levels = derived(fam, "indices"), derived(fam, "levels")
    assert np.array_equal(derived(fam, "keys"),
                          reference_keys(levels, idx, fam.dim))
    assert np.all((idx >= 0) & (idx < 2 ** levels[:, None].astype(np.int64)))
    side = np.asarray(fam.universe.hi) - np.asarray(fam.universe.lo)
    steps = side * 2.0 ** -levels[:, None].astype(float)
    centers = np.asarray(fam.universe.lo) + (idx + 0.5) * steps
    assert np.array_equal(derived(fam, "tags"), centers)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_carried_keys_match_bit_interleaving(dim, rng, monkeypatch):
    # small chunks, so the derivation runs across chunk boundaries
    monkeypatch.setattr(partition, "CHUNK_CELLS", 7)
    universe = Box((0.0,) * dim, (1.0,) * dim)
    fam = random_dyadic_partition(universe, rng, max_level=4)
    assert_indices_round_trip(fam)
    for fraction in (0.3, 1.0):
        ref = refine_family(fam, fraction, rng)
        assert_indices_round_trip(ref)
        assert np.all(np.diff(derived(ref, "keys")) > 0)
        assert verify_family(ref, constant_gauge(1.0), unit(universe),
                             eta=1e-12)


def test_steps_are_exact_powers_of_two():
    levels = np.arange(63)
    for universe in (UNIT_1D, Box((-1.0,), (1.0,)), Box((0.0, 0.0), (3.0, 3.0))):
        side = np.asarray(universe.hi) - np.asarray(universe.lo)
        want = side[None, :] * 2.0 ** -levels.astype(float)[:, None]
        assert np.array_equal(partition._steps(universe, levels), want)
        assert np.array_equal(partition._steps(universe, levels.astype(np.int8)),
                              want)
        assert np.array_equal(partition._steps(universe, 5), want[5:6])


@pytest.mark.parametrize("universe", [Box((-1.0,), (1.0,)), UNIT_1D,
                                      Box((-0.5,), (1.5,))])
def test_deep_1d_coordinates_are_correctly_rounded(universe, rng):
    # from level 53 on a 1-d index is no longer a float; corners and tags
    # must still be their exact values rounded once, so a cell whose
    # corners are floats is never empty (spike1's cell at 3.2e-9 came out
    # with lo == hi at level 55)
    levels = np.repeat(np.arange(53, 63), 40)
    idx = rng.integers(0, np.int64(1) << levels)
    # half of them near the middle, where [-1, 1] has its smallest corners
    idx[::2] = (np.int64(1) << (levels[::2] - 1)) \
        + rng.integers(-2 ** 30, 2 ** 30, size=len(idx[::2]))
    los, his, tags = partition._geometry(universe, levels, idx[:, None])
    lo = Fraction(universe.lo[0])
    side = Fraction(universe.hi[0]) - lo
    for level, i, got in zip(levels.tolist(), idx.tolist(),
                             zip(los[:, 0], his[:, 0], tags[:, 0])):
        want = [float(lo + (i + at) * side / 2 ** level)
                for at in (0, 1, Fraction(1, 2))]
        assert list(got) == want, (level, i)


@pytest.mark.parametrize("universe", [Box((0.1,), (0.4,)), UNIT_1D,
                                      Box((0.1, -0.3), (0.4, 0.0))])
def test_shallow_coordinates_keep_the_plain_formula(universe, rng):
    levels = rng.integers(0, min(53, 62 // universe.dim), size=500)
    idx = rng.integers(0, np.int64(1) << levels[:, None],
                       size=(500, universe.dim))
    step = partition._steps(universe, levels)
    lo = np.asarray(universe.lo)
    want = (lo + idx * step, lo + (idx + 1) * step, lo + (idx + 0.5) * step)
    for got, ref in zip(partition._geometry(universe, levels, idx), want):
        assert np.array_equal(got, ref)


def test_depth_histogram_matches_unique_across_chunks(rng, monkeypatch):
    # the report counts cells per level chunk by chunk, in its one walk
    monkeypatch.setattr(partition, "CHUNK_CELLS", 7)
    f = corpus_function("checker2d")
    mu = unit(f.universe)
    fam = random_dyadic_partition(f.universe, rng, max_level=5, stop_prob=0.2)
    assert len(fam) > 3 * 7
    want = depth_histogram(fam)
    got = build_report(fam, f, mu, 0.1, trial=0).depth_histogram
    assert got == want
    assert list(got) == sorted(want)
    levels, keys = cell_arrays(fam)
    empty = with_cells(fam, levels[:0], keys[:0])
    assert build_report(empty, f, mu, 0.1, trial=0).depth_histogram == {}


def graded_1d_family():
    """A sieve family graded toward 0: two cells per level down to level
    61, one under the 62-level key cap of 1-d."""
    g = Gauge(batch=lambda X: np.maximum(np.abs(X[:, 0]) / 4.0, 2.0 ** -62))
    mu = unit(UNIT_1D)
    fam = dyadic_sieve(UNIT_1D, g, mu, 1e-30, 61)
    return fam, g, mu


def test_carried_keys_near_the_key_cap(rng):
    fam, g, mu = graded_1d_family()
    assert int(fam.levels.max()) == 61
    assert verify_family(fam, g, mu, eta=1e-30)
    ref = refine_family(fam, 1.0, rng)
    assert int(ref.levels.max()) == 62
    for f in (fam, ref):
        assert_indices_round_trip(f)
        assert np.all(np.diff(derived(f, "keys")) > 0)


def test_split_rejects_levels_past_the_key_cap(rng):
    fam, _, _ = graded_1d_family()
    ref = refine_family(fam, 1.0, rng)
    with pytest.raises(ValueError, match="key range"):
        refine_family(ref, 1.0, rng)


# ---------------------------------------------------------------------------
# refinement draws
# ---------------------------------------------------------------------------

if HAVE_HYPOTHESIS:

    @given(st.integers(1, 3 * partition.DRAW_BLOCK + 5), st.floats(0.0, 1.0),
           st.lists(st.integers(0, 2 ** 40), max_size=6),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    # three blocks, cut inside the first, on the second's start and inside
    # the third
    @example(2 * partition.DRAW_BLOCK + 7, 0.15,
             [100, partition.DRAW_BLOCK, 2 * partition.DRAW_BLOCK + 3], 1)
    def test_refinement_positions_are_one_sample_however_cut(n, fraction, cuts,
                                                             seed):
        draw = partition.refinement_choice(n, fraction,
                                           np.random.default_rng(seed))
        whole = draw.positions(0, n)
        assert whole.dtype == np.int64
        assert len(whole) == draw.count == max(1, round(fraction * n))
        assert np.all(np.diff(whole) > 0)
        assert whole[0] >= 0 and whole[-1] < n
        # a second draw from the same generator state, cut before it is
        # drawn whole, so its pieces do not come from the first's blocks
        again = partition.refinement_choice(n, fraction,
                                            np.random.default_rng(seed))
        edges = sorted({0, n, *(c % (n + 1) for c in cuts)})
        pieces = [again.positions(a, b) + a for a, b in zip(edges, edges[1:])]
        assert np.array_equal(np.concatenate(pieces), whole)
        for a, b in zip(edges, edges[1:]):
            assert np.array_equal(draw.positions(a, b) + a,
                                  whole[(whole >= a) & (whole < b)])


def test_refinement_draws_each_subset_equally_often():
    # every 2-subset of 6 cells, over 3,000 draws from a fixed seed
    rng = np.random.default_rng(20261019)
    draws = 3000
    seen = Counter(tuple(partition.refinement_choice(6, 1 / 3, rng)
                         .positions(0, 6).tolist()) for _ in range(draws))
    subsets = list(itertools.combinations(range(6), 2))
    assert set(seen) == set(subsets)
    expected = draws / len(subsets)
    chi2 = sum((seen[s] - expected) ** 2 / expected for s in subsets)
    # the 0.999 quantile of chi-square with 14 degrees of freedom
    assert chi2 < 36.12, chi2


def test_refinement_draw_needs_no_family_length_array():
    # a 10^9-cell family: the draw is a count per block and a seed, and a
    # block's positions are drawn alone; a permutation of the family would
    # take 7.5 GiB
    block = partition.DRAW_BLOCK
    tracemalloc.start()
    try:
        draw = partition.refinement_choice(10 ** 9, 0.15,
                                           np.random.default_rng(3))
        got = draw.positions(7 * block, 8 * block)
        after = draw.positions(8 * block, 9 * block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draw.count == 150_000_000
    assert len(got) == draw.counts[7] > 0
    assert np.all((0 <= got) & (got < block)) and np.all(np.diff(got) > 0)
    assert peak < 2 * 2 ** 20, peak
    # blocks draw independently: about 15 % of one block's offsets recur in
    # the next, not nearly all of them
    assert len(np.intersect1d(got, after)) < 0.2 * len(got)


def test_refinement_draw_refuses_a_family_it_cannot_draw():
    # numpy's hypergeometric draws take under 10^9 cells, and a larger
    # family splits in two halves of whole blocks: 2 x 15,258 blocks is the
    # most, and one cell more is refused before the draw touches its rng
    most = 1_999_896_576
    assert most == 2 * 15_258 * partition.DRAW_BLOCK
    draw = partition.refinement_choice(most, 0.15, np.random.default_rng(0))
    assert draw.n == most and draw.count == round(0.15 * most)
    assert len(draw.counts) == 30_516
    for n in (most + 1, 10 ** 12):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DepthExceeded,
                           match=f"the {n}-cell family .* at most {most} cells"):
            partition.refinement_choice(n, 0.15, rng)
        assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# verifier and sabotage
# ---------------------------------------------------------------------------

def test_random_partition_full_cover(rng):
    g = constant_gauge(1.0)
    mu = unit(UNIT_2D)
    fam = random_dyadic_partition(UNIT_2D, rng, max_level=4)
    assert fam.residual_measure == 0.0
    assert math.fsum(cell_measures(fam, mu)) == pytest.approx(1.0, abs=1e-12)
    assert verify_family(fam, g, mu, eta=1e-12)


def test_verifier_rejects_overlap(rng):
    f, mu, g = gauge_for("checker2d")
    fam = dyadic_sieve(f.universe, g, mu, 0.01)
    bad = sabotage_overlap(fam, rng)
    notes = {}
    assert not verify_family(bad, g, mu, eta=0.01, report=notes)
    assert notes["reason"] == "interior overlap (key ranges collide)"


def test_verifier_rejects_offcenter_tags(rng):
    f, mu, g = gauge_for("checker2d")
    fam = dyadic_sieve(f.universe, g, mu, 0.01)
    bad = sabotage_offcenter(fam, rng)
    notes = {}
    assert not verify_family(bad, g, mu, eta=0.01, report=notes)
    assert "tag" in notes["reason"]


class _Fixed:
    """A generator stand-in whose integers() returns one chosen cell."""

    def __init__(self, i):
        self.i = i

    def integers(self, n):
        return self.i


@pytest.mark.parametrize("name,eps", [("linear1", 0.01), ("spike1", 0.1)])
def test_sabotage_hooks_build_the_whole_family_cells(name, eps):
    # the hooks touch a few cells and the run that holds the copied-over
    # one, and build the same cells as a rewrite of the whole family's
    # cell arrays
    f, mu, g = gauge_for(name, eps)
    fam = dyadic_sieve(f.universe, g, mu, default_eta(f, eps, mu.w0),
                       default_sieve_depth(f.dim_in))
    n, offsets = len(fam), np.cumsum(fam.counts)
    levels, keys = run_cells(fam.levels, fam.starts, fam.counts, fam.dim)
    assert len(fam.starts) > 1 or name == "linear1"
    picks = {0, 1, n // 2, n - 2, n - 1, *(offsets[:-1] - 1).tolist(),
             *offsets[:-1].tolist()}
    for i in sorted(picks):
        bad = sabotage_overlap(fam, _Fixed(i))
        j = i + 1 if i + 1 < n else i - 1
        want_levels, want_keys = levels.copy(), keys.copy()
        want_levels[j], want_keys[j] = levels[i], keys[i]
        got_levels, got_keys = run_cells(bad.levels, bad.starts, bad.counts,
                                         bad.dim)
        assert got_levels.dtype == levels.dtype
        assert np.array_equal(got_levels, want_levels), i
        assert np.array_equal(got_keys, want_keys), i
        assert np.all(bad.counts > 0) and bad.tag_override is None
        assert bad.residual_measure == fam.residual_measure
    for seed in range(5):
        bad = sabotage_offcenter(fam, np.random.default_rng(seed))
        idx = np.random.default_rng(seed).choice(n, size=min(3, n),
                                                 replace=False)
        tags = derived(fam, "tags")
        half = 0.5 * partition._steps(fam.universe, levels[idx])[:, 0]
        tags[idx, 0] += 1.2 * half
        assert np.array_equal(bad.tag_override[0], idx)
        assert np.array_equal(derived(bad, "tags"), tags)
        assert np.array_equal(derived(bad, "keys"), keys)


@pytest.mark.parametrize("chunk", [4, partition.CHUNK_CELLS],
                         ids=["across-chunks", "within-a-chunk"])
def test_verifier_rejects_keys_out_of_order(chunk, monkeypatch):
    # with 4-cell chunks, cells 3 and 4 sit on either side of a boundary
    monkeypatch.setattr(partition, "CHUNK_CELLS", chunk)
    f, mu, g = gauge_for("checker2d")
    fam = dyadic_sieve(f.universe, g, mu, 0.01)
    order = np.arange(len(fam))
    order[[3, 4]] = order[[4, 3]]
    levels, keys = cell_arrays(fam)
    swapped = with_cells(fam, levels[order], keys[order])
    notes = {}
    assert not verify_family(swapped, g, mu, eta=0.01, report=notes)
    assert notes["reason"] == "interior overlap (key ranges collide)"


@pytest.mark.parametrize("name,eps", [("spike1", 0.3), ("lipschitz2d", 0.1)])
def test_verify_family_is_chunk_size_free(name, eps, monkeypatch):
    f, mu, g = gauge_for(name, eps)
    eta = default_eta(f, eps, mu.w0)
    fam = dyadic_sieve(f.universe, g, mu, eta, default_sieve_depth(f.dim_in))
    assert len(fam) > 7
    cases = [(fam, g), (fam, g.scaled(0.5)),
             (refine_family(fam, 0.3, np.random.default_rng(1)), g),
             (sabotage_overlap(fam, np.random.default_rng(2)), g),
             (sabotage_offcenter(fam, np.random.default_rng(3)), g)]

    def notes_for(chunk):
        monkeypatch.setattr(partition, "CHUNK_CELLS", chunk)
        out = []
        for fm, gauge in cases:
            notes = {}
            out.append((verify_family(fm, gauge, mu, eta, report=notes), notes))
        return out

    whole = notes_for(len(fam))
    assert notes_for(7) == whole
    assert [ok for ok, _ in whole] == [True, False, True, False, False]
    assert "fineness violated" in whole[1][1]["reason"]


def test_verifier_rejects_nan_gauge(rng):
    # NaN passes both `circ > delta` and a naive range check; it must not
    # pass fineness
    fam = random_dyadic_partition(UNIT_1D, rng, max_level=4)
    nan = Gauge(batch=lambda X: np.full(len(X), np.nan))
    with pytest.raises(ValueError, match="outside"):
        verify_family(fam, nan, unit(UNIT_1D), 1e-3)


def test_verifier_rejects_shrunken_gauge():
    f, mu, g = gauge_for("step2")
    fam = dyadic_sieve(f.universe, g, mu, 0.01)
    tight = g.scaled(1e-3)
    notes = {}
    assert not verify_family(fam, tight, mu, eta=0.01, report=notes)
    assert "fine" in notes["reason"]


def test_verifier_rejects_escaping_cell():
    g = constant_gauge(1.0)
    mu = unit(UNIT_1D)
    fam = dyadic_sieve(UNIT_1D, g, mu, 1e-9)
    # bit 62 lies above the 1-d key range: the last cell's index leaves
    # the grid
    levels, keys = cell_arrays(fam)
    keys[-1] |= np.int64(1) << 62
    shifted = with_cells(fam, levels, keys)
    assert derived(shifted, "indices")[-1, 0] >= 2 ** int(levels[-1])
    assert derived(shifted, "his")[-1, 0] > 1.0
    notes = {}
    assert not verify_family(shifted, g, mu, eta=1e-9, report=notes)
    assert "escapes" in notes["reason"]


def test_verifier_rejects_residual_above_eta():
    g = constant_gauge(1.0)
    mu = unit(UNIT_2D)
    fam = dyadic_sieve(UNIT_2D, g, mu, 0.5)
    # demand a smaller eta at verification time than was sieved for
    notes = {}
    ok = verify_family(fam, g, mu, eta=1e-9, report=notes)
    if fam.residual_measure > 1e-9:
        assert not ok
        assert "residual" in notes["reason"]


@pytest.mark.parametrize("universe,domain_norm", [
    (UNIT_1D, NormKind.INF),
    (UNIT_2D, NormKind.TWO),
], ids=["1d-inf", "2d-two"])
def test_verify_family_fineness_is_non_strict(rng, universe, domain_norm):
    # circumradius exactly equal to delta must count as fine
    fam = dataclasses.replace(
        random_dyadic_partition(universe, rng, max_level=3, stop_prob=0.0),
        domain_norm=domain_norm)
    mu = unit(universe)
    far = np.full((1, universe.dim), 0.5 ** 4)
    circ = float(norm_batch(far, domain_norm)[0])
    assert verify_family(fam, constant_gauge(circ), mu, eta=1e-12)
    notes = {}
    tight = constant_gauge(np.nextafter(circ, 0.0))
    assert not verify_family(fam, tight, mu, eta=1e-12, report=notes)
    assert "fine" in notes["reason"]


@pytest.mark.parametrize("universe", [UNIT_1D, Box((-1.0,), (1.0,))],
                         ids=["total-1", "total-2"])
def test_verdict_balance_flips_just_past_its_tolerance(universe):
    # the balance test allows 1e-9 * max(1, |total|) either way, no more
    mu = unit(universe)
    fam = random_dyadic_partition(universe, np.random.default_rng(0),
                                  max_level=2)
    total = float(mu.total)
    tol = 1e-9 * max(1.0, abs(total))
    for toward in (np.inf, -np.inf):
        inside, outside = last_passing(
            lambda m: abs(m + fam.residual_measure - total) <= tol,
            total + np.sign(toward) * tol, toward)
        assert partition.FamilyCheck(fam, mu, 0.1).verdict(inside)
        notes = {}
        assert not partition.FamilyCheck(fam, mu, 0.1).verdict(outside, notes)
        assert notes["reason"].startswith("measure balance off")


def test_verdict_residual_flips_just_past_eta():
    # a residual up to eta * (1 + 1e-12) + 1e-15 passes, one ulp more fails
    mu, eta = unit(UNIT_1D), 0.01
    edge = eta * (1 + 1e-12) + 1e-15
    fam = random_dyadic_partition(UNIT_1D, np.random.default_rng(0),
                                  max_level=2)
    for residual, want in ((edge, True), (np.nextafter(edge, np.inf), False)):
        check = partition.FamilyCheck(
            dataclasses.replace(fam, residual_measure=float(residual)), mu, eta)
        notes = {}
        assert check.verdict(1.0 - residual, notes) is want, residual
        assert want or notes["reason"].startswith("residual")


@pytest.mark.parametrize("universe", [UNIT_1D, UNIT_2D], ids=["1d", "2d"])
def test_tag_on_the_inner_ball_radius_passes(universe):
    # a tag moved along axis 0 by exactly the inner-ball radius, half the
    # cell's side, is inside; 1e-14 further it is not
    fam = random_dyadic_partition(universe, np.random.default_rng(0),
                                  max_level=2, stop_prob=0.0)
    mu, g = unit(universe), constant_gauge(1.0)
    c = next(fam.chunks())
    pos = np.array([1, len(fam) - 1])
    for push, want in ((0.0, True), (1e-14, False)):
        tags = c.tags[pos].copy()
        tags[:, 0] += 0.5 * (c.his[pos, 0] - c.los[pos, 0]) + push
        moved = dataclasses.replace(fam, tag_override=(pos, tags))
        inner = norm_batch(tags - 0.5 * (c.los[pos] + c.his[pos]),
                           fam.domain_norm)
        assert np.all(inner == 0.5 * (c.his[pos, 0] - c.los[pos, 0]) + push)
        notes = {}
        assert verify_family(moved, g, mu, eta=1e-12, report=notes) is want
        assert want or notes["reason"] == "tag outside the inner ball of its cell"


@pytest.mark.parametrize("gap, escapes", [(5e-13, False), (2e-12, True)])
def test_check_cells_containment_slack(gap, escapes):
    # a corner up to 1e-12 outside the universe is rounding, beyond it an escape
    fam = random_dyadic_partition(UNIT_2D, np.random.default_rng(0),
                                  max_level=1, stop_prob=0.0)
    c = next(fam.chunks())
    los, his = c.los.copy(), c.his.copy()
    los[0, 0] -= gap  # below 0 on axis 0
    his[3, 1] += gap  # above 1 on axis 1
    moved = c._replace(los=los, his=his, tags=0.5 * (los + his))
    found = partition.check_cells(moved, constant_gauge(1.0), fam)
    assert found.bad is escapes
    if escapes:
        assert found.escapes.tolist() == [True, False, False, True]


def test_check_cells_fineness_is_non_strict():
    # a circumradius equal to the gauge is fine, so a pool of such cells
    # keeps no per-cell arrays; one ulp of gauge less fails them all
    fam = random_dyadic_partition(UNIT_2D, np.random.default_rng(0),
                                  max_level=2, stop_prob=0.0)
    c = next(fam.chunks())
    circ = float(norm_batch(np.full((1, 2), 0.125), fam.domain_norm)[0])
    assert not partition.check_cells(c, constant_gauge(circ), fam).bad
    tight = partition.check_cells(c, constant_gauge(np.nextafter(circ, 0.0)), fam)
    assert tight.bad and np.all(tight.circ > tight.delta)


def reference_check_cells(c, g, fam):
    """check_cells as it was before batches were let go: every batch's
    arrays kept and joined, then asked whether any cell fails."""
    lo, hi = np.asarray(fam.universe.lo), np.asarray(fam.universe.hi)
    batches = []
    for start in range(0, len(c.levels), partition.KERNEL_ROWS):
        rows = slice(start, start + partition.KERNEL_ROWS)
        los, his, tags = partition._geometry(fam.universe, c.levels[rows],
                                             c.indices[rows])
        inner = norm_batch(tags - 0.5 * (los + his), fam.domain_norm)
        batches.append((
            tags,
            np.any(los < lo - 1e-12, axis=1) | np.any(his > hi + 1e-12, axis=1),
            inner > 0.5 * (his - los).min(axis=1) + 1e-15,
            norm_batch(np.maximum(his - tags, tags - los), fam.domain_norm),
            g.delta_batch(tags)))
    arrays = [np.concatenate(a) for a in zip(*batches)]
    _, escapes, off_center, circ, delta = arrays
    if escapes.any() or off_center.any() or np.any(circ > delta):
        return partition.CellChecks(*arrays)
    return partition.CellChecks()


@pytest.mark.parametrize("where", ["first", "middle", "last", "none"])
def test_check_cells_lets_passing_batches_go(where, monkeypatch):
    # 4-cell batches: a chunk of 16 cells and a pool of 24 children, whose
    # one failing cell (a tag the gauge shrinks to nothing) sits in the
    # first, a middle or the last batch, or nowhere; the arrays and the
    # verdict are those of the reference, and each batch reaches `each`
    # once, in order, its corners and tags as derived for the check
    monkeypatch.setattr(partition, "KERNEL_ROWS", 4)
    fam = random_dyadic_partition(UNIT_2D, np.random.default_rng(0),
                                  max_level=2, stop_prob=0.0)
    mu = unit(UNIT_2D)
    c = next(fam.chunks())
    kids, _ = partition.expand(c, [np.arange(0, 16, 3)], fam.universe)
    for pool in (c, kids):
        n = len(pool.levels)
        tags = partition._geometry(fam.universe, pool.levels, pool.indices)[2]
        at = {"first": 1, "middle": n // 2, "last": n - 1, "none": None}[where]
        hit = np.full(2, np.nan) if at is None else tags[at]
        g = Gauge(batch=lambda X: np.where(np.all(X == hit, axis=1), 1e-300, 1.0))
        seen = []

        def each(rows, los, his, got_tags):
            seen.append((rows.start, rows.stop))
            assert np.array_equal(got_tags, tags[rows])

        got = partition.check_cells(pool, g, fam, each)
        want = reference_check_cells(pool, g, fam)
        assert seen == [(s, s + 4) for s in range(0, n, 4)]
        assert got.bad is (at is not None)
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b)
        reasons = []
        for checks in (got, want):
            check = partition.FamilyCheck(fam, mu, 1.0)
            check.add(*pool.ranges(), checks)
            notes = {}
            check.verdict(1.0, notes)
            reasons.append(notes.get("reason"))
        assert reasons[0] == reasons[1]
        assert (at is None) is (reasons[0] is None)
        assert at is None or reasons[0].startswith(f"fineness violated at tag {tuple(hit)}")

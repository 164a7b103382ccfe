"""Gauge-fine dyadic cube families over a square box universe.

A cell is a (level, Morton key) pair.  The key interleaves the cell's index
bits, axis 0 most significant, one d-bit digit per level, so a dyadic cell
owns a contiguous key range and canonical key order is depth-first
lexicographic (Z-order).  A family stores its cells as runs, as in a linear
quadtree: a level, a first key and a count, cell i of a run being its first
key plus i key spans.  Keys, indices, corners and center tags are derived
chunk by chunk (CHUNK_CELLS cells at a time), and every consumer walks the
family through TaggedFamily.chunks().

The dyadic sieve tests its frontier, runs at one level, a chunk at a time,
emits the cells whose circumradius about the center already fits under the
gauge, and splits each run of the rest into one run of its children; a 1-d
gauge's bounds over boxes decide long runs whole, or in halves, instead.
random_dyadic_partition and with_cells store cell arrays as runs.  A Refinement
draws the cells it splits a block at a time; refine_family replaces them in place
by their children, which keeps canonical order without a sort; expand gives, for
one chunk, the children of the cells several refinements split and each one's
piece of the chunk's cells and those children, the family itself being the
refinement that splits nothing, so one walk of a family carries all its trials.
The checks split in two: check_cells runs the per-cell checks once per distinct
cell, and FamilyCheck runs the order and balance checks per family, piece by
piece, on key ranges a walk derives once per pool, so a walk that sums a report
over the family can check it in the same pass; verify_family is that check on
its own.  Its disjointness certificate is that consecutive key ranges do not
collide, and a bit-interleaving reference in the tests pins the keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import DepthExceeded
from .geometry import Box, Gauge, NormKind, cube_reach, exact_parts, norm_batch
from .measure import RadonMeasure, measure_box_batch

# cells per chunk of every family walk: large enough that numpy calls
# amortize, small enough that the per-chunk temporaries stay a few MB
CHUNK_CELLS = 1 << 16
# cells per kernel call when a walk evaluates a chunk and its children:
# their temporaries then stay small however many children the trials add
KERNEL_ROWS = 1 << 13
# positions per block of a refinement's draw: fixed, so no draw depends on a walk's cut
DRAW_BLOCK = 1 << 16

_CHILD_OFFSETS = {d: np.array(np.meshgrid(*([[0, 1]] * d), indexing="ij"),
                              dtype=np.int64).reshape(d, -1).T
                  for d in (1, 2, 3)}
# each child offset's key digit, axis 0 most significant
_CHILD_DIGITS = {d: (off << np.arange(d - 1, -1, -1)).sum(axis=1)
                 for d, off in _CHILD_OFFSETS.items()}


def _key_depth_cap(dim: int) -> int:
    return 62 // dim


def _split(keys: np.ndarray, levels, dim: int) -> np.ndarray:
    """The 2^d children's keys of each cell, parent by parent and in key
    order: the parent's key with the child's digit at the next level down.
    `levels` is the parents' level, one integer or one per cell."""
    cap = _key_depth_cap(dim)
    levels = np.asarray(levels, dtype=np.int64)
    if len(keys) and int(levels.max()) + 1 > cap:
        raise ValueError(f"level {int(levels.max()) + 1} exceeds the "
                         f"{cap}-level key range")
    shift = (dim * (cap - levels - 1)).reshape(-1, 1)
    return (keys[:, None] | (_CHILD_DIGITS[dim][None, :] << shift)).reshape(-1)


def _key_spans(levels, dim: int) -> np.ndarray:
    cap = _key_depth_cap(dim)
    return np.int64(1) << (dim * (cap - np.asarray(levels, dtype=np.int64)))


def _run_cells(levels: np.ndarray, starts: np.ndarray, offsets: np.ndarray,
               start: int, stop: int, dim: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Levels and keys of cells start .. stop - 1 of the runs (levels,
    starts) whose cells begin at offsets."""
    r = slice(offsets.searchsorted(start, "right") - 1,
              offsets.searchsorted(stop))
    edges = offsets[r.start:r.stop + 1].clip(start, stop)
    counts = edges[1:] - edges[:-1]
    spans = _key_spans(levels[r], dim)
    # in place: each cell's position in its run, times its span, plus the
    # key of the run's first cell in the chunk
    keys = np.arange(stop - start)
    keys -= (edges[:-1] - start).repeat(counts)
    keys *= spans.repeat(counts)
    keys += (starts[r] + (edges[:-1] - offsets[r]) * spans).repeat(counts)
    return levels[r].repeat(counts), keys


def _runs(levels: np.ndarray, starts: np.ndarray, counts: np.ndarray,
          dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs in the order given, each run that continues the one before
    it (same level, first key one span past its last) merged into it."""
    new = np.ones(len(starts), dtype=bool)
    new[1:] = (levels[1:] != levels[:-1]) | (
        starts[1:] != starts[:-1] + counts[:-1] * _key_spans(levels[:-1], dim))
    first = new.nonzero()[0]
    return levels[first], starts[first], np.add.reduceat(counts, first)


def _front_keys(starts: np.ndarray, counts: np.ndarray, level: int,
                dim: int) -> Iterator[np.ndarray]:
    """Keys of the cells of the runs (starts, counts), all at level, in
    order and CHUNK_CELLS cells at a time."""
    levels = np.full(len(starts), level, dtype=np.int8)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    for start in range(0, int(offsets[-1]), CHUNK_CELLS):
        # the generator holds no chunk while suspended
        yield _run_cells(levels, starts, offsets, start,
                         min(start + CHUNK_CELLS, int(offsets[-1])), dim)[1]


def _indices(levels, keys: np.ndarray, dim: int) -> np.ndarray:
    """Per-axis indices of the cells (level, key), by de-interleaving the
    key's top `level` digits; `levels` is one integer or one per cell.  Key
    bits above the universe's key range land on axis 0, so such a cell's
    index leaves [0, 2^level) and its corners escape the universe."""
    levels = np.asarray(levels, dtype=np.int64)
    v = keys >> (dim * (_key_depth_cap(dim) - levels))
    if dim == 1:
        return v[:, None]
    digits = v & ((np.int64(1) << (dim * levels)) - 1)
    idx = np.zeros((len(keys), dim), dtype=np.int64)
    for m in range(int(levels.max(initial=0))):
        for k in range(dim):
            idx[:, k] |= ((digits >> (dim * m + dim - 1 - k)) & 1) << m
    idx[:, 0] += (v >> (dim * levels)) << levels
    return idx


def _steps(omega: Box, levels) -> np.ndarray:
    """Side lengths, per cell and axis, of the dyadic cells at `levels`
    (one level or one per cell)."""
    side = np.asarray(omega.hi) - np.asarray(omega.lo)
    # exact: scaling by a power of two, the same bits as side * 2.0**-level
    return np.ldexp(side[None, :],
                    -np.asarray(levels, dtype=np.int32).reshape(-1, 1))


def _coords(lo: np.ndarray, step: np.ndarray, levels, indices: np.ndarray,
            at: float) -> np.ndarray:
    """lo + (index + at) * step per cell and axis, for the cells' _steps:
    the lower corners at 0, the upper ones at 1 and the tags at 0.5."""
    x = lo + (indices + at) * step
    if np.max(levels, initial=0) > 52:
        # a float index rounds from 2^53 on, which only 1-d keys reach;
        # with its low ten bits added last, a coordinate that is a float
        # comes out exact on a universe with dyadic ends
        twice = 2 * indices + int(2 * at)
        low, half = twice & 1023, 0.5 * step
        x = np.where((np.asarray(levels) > 52).reshape(-1, 1),
                     (lo + (twice - low) * half) + low * half, x)
    return x


def _geometry(omega: Box, levels, indices: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower corners, upper corners and center tags of the cells."""
    lo, step = np.asarray(omega.lo)[None, :], _steps(omega, levels)
    return tuple(_coords(lo, step, levels, indices, at) for at in (0, 1, 0.5))


class Chunk(NamedTuple):
    """Cells start .. start + len(levels) - 1 of a family, with their
    derived geometry.  The children expand() gives leave los, his and tags
    as None, for batches() to derive a batch at a time."""

    start: int
    levels: np.ndarray
    keys: np.ndarray
    indices: np.ndarray
    los: np.ndarray | None
    his: np.ndarray | None
    tags: np.ndarray | None

    def batches(self, universe: Box) -> Iterator[tuple]:
        """Rows, lower corners, upper corners and tags, KERNEL_ROWS cells at a time."""
        for start in range(0, len(self.levels), KERNEL_ROWS):
            rows = slice(start, start + KERNEL_ROWS)
            if self.los is not None:
                yield rows, self.los[rows], self.his[rows], self.tags[rows]
            else:
                yield rows, *_geometry(universe, self.levels[rows],
                                       self.indices[rows])

    def ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's key range [start, end): it owns its key with the
        bits below its level cleared, the same truncation its index takes."""
        spans = _key_spans(self.levels, self.indices.shape[1])
        starts = self.keys & -spans
        return starts, starts + spans


@dataclass
class TaggedFamily:
    """Finitely many interior-disjoint tagged cubes plus the uncovered rest.

    Run r holds counts[r] dyadic cubes of the universe at level levels[r],
    the first with key starts[r] and each next one a key span on, each
    tagged at its center; the cells are in strictly increasing key order.
    The residual frontier is the runs (residual_starts, residual_counts),
    all at residual_level.
    tag_override, when set, is (positions, tags): tags that replace the
    centers of those cells.
    """

    universe: Box
    domain_norm: NormKind
    levels: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    residual_measure: float
    residual_level: int
    residual_starts: np.ndarray
    residual_counts: np.ndarray
    tag_override: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        self._offsets = np.concatenate(([0], np.cumsum(self.counts)))

    def __len__(self) -> int:
        return int(self._offsets[-1])

    @property
    def dim(self) -> int:
        return self.universe.dim

    def cells(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Levels and keys of cells start .. stop - 1."""
        return _run_cells(self.levels, self.starts, self._offsets, start,
                          stop, self.dim)

    def chunks(self) -> Iterator[Chunk]:
        """The cells in canonical order, CHUNK_CELLS at a time."""
        # the generator holds none of a chunk's arrays while suspended, so
        # a consumer can drop a chunk before asking for the next one
        for start in range(0, len(self), CHUNK_CELLS):
            yield self._chunk(start, start + CHUNK_CELLS)

    def _chunk(self, start: int, stop: int) -> Chunk:
        levels, keys = self.cells(start, min(stop, len(self)))
        idx = _indices(levels, keys, self.dim)
        los, his, tags = _geometry(self.universe, levels, idx)
        if self.tag_override is not None:
            pos, moved = self.tag_override
            here = (pos >= start) & (pos < start + len(levels))
            tags[pos[here] - start] = moved[here]
        return Chunk(start, levels, keys, idx, los, his, tags)

    def residual_boxes(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Corners of the residual frontier's cells, CHUNK_CELLS at a time."""
        for keys in _front_keys(self.residual_starts, self.residual_counts,
                                self.residual_level, self.dim):
            idx = _indices(self.residual_level, keys, self.dim)
            los, his, _ = _geometry(self.universe, self.residual_level, idx)
            yield los, his


def _require_square(omega: Box):
    side = np.asarray(omega.hi) - np.asarray(omega.lo)
    if not np.all(side == side[0]):
        raise ValueError("dyadic sieve needs a square universe")


def with_cells(fam: TaggedFamily, levels: np.ndarray,
               keys: np.ndarray) -> TaggedFamily:
    """fam with the cells (levels[i], keys[i]), in the order given, tagged
    at their centers: a cell out of order or off the grid is just a run of
    its own."""
    levels, starts, counts = _runs(np.asarray(levels, dtype=np.int8), keys,
                                   np.ones(len(keys), dtype=np.int64), fam.dim)
    return replace(fam, levels=levels, starts=starts, counts=counts,
                   tag_override=None)


def _decide_runs(g: Gauge, lo: np.ndarray, step: np.ndarray, level: int,
                 scale: float, ratio: float, starts: np.ndarray, counts: np.ndarray):
    """The decided pieces of the 1-d frontier runs at level, of side scale,
    as (starts, counts, fine) per halving, and the runs left to test cell by
    cell: a run of KERNEL_ROWS cells or more is decided where the gauge's
    bounds pass or fail all its cells, else halved down to KERNEL_ROWS cells.
    On a universe with dyadic ends _coords increases with the key."""
    span = _key_spans(level, 1)
    long = counts >= KERNEL_ROWS
    done, rest = [], [(starts[~long], counts[~long])]
    starts, counts = starts[long], counts[long]
    while len(starts):
        c = _coords(lo, step, level, _indices(level, np.concatenate(
            (starts, starts + (counts - 1) * span)), 1), 0.5)
        # over the centers and their children's, as the look-ahead gets them
        low, high = g.bounds_batch(c[:len(starts)] - 0.25 * scale,
                                   c[len(starts):] + 0.25 * scale)
        fine = 0.5 * scale * ratio <= low
        sure = fine | (high < 0.5 * scale * ratio)
        done.append((starts[sure], counts[sure], fine[sure]))
        small = ~sure & (counts <= KERNEL_ROWS)
        rest.append((starts[small], counts[small]))
        big = ~sure & ~small
        half = counts[big] // 2
        starts = np.concatenate((starts[big], starts[big] + half * span))
        counts = np.concatenate((half, counts[big] - half))
    return done, tuple(np.concatenate(a) for a in zip(*rest))


def dyadic_sieve(omega: Box, g: Gauge, mu: RadonMeasure, eta: float,
                 max_depth: int = 24,
                 domain_norm: NormKind = NormKind.TWO) -> TaggedFamily:
    """Level-synchronous refinement until the uncovered measure drops to eta.

    A cell is emitted once halfside * cube_reach(domain_norm) <= delta(center),
    non-strict, and the same test holds one level down at every child
    center; the extra look-ahead keeps one-step refinements of the output
    fine even where the gauge dips sharply.  Everything else splits into
    its 2^d children.  The depth limit is max_depth, or one level above
    the key range if that is shallower, so that every refinement of the
    output still has keys.  DepthExceeded carries a sample of the stuck
    cells with their gauge values.  The density must be uniform.  Bounds of
    a 1-d gauge decide runs of KERNEL_ROWS cells or more whole or in halves.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    _require_square(omega)
    dim = omega.dim
    side = float(omega.hi[0] - omega.lo[0])
    ratio = cube_reach(domain_norm, dim)
    signs = 2.0 * _CHILD_OFFSETS[dim] - 1.0
    limit = min(max_depth, _key_depth_cap(dim) - 1)
    uni_lo = np.asarray(omega.lo)[None, :]

    level = 0
    front = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))
    got = [(np.empty(0, dtype=np.int8), front[0][:0], front[1][:0])]
    while True:
        scale = side * 2.0 ** -level
        cells = int(front[1].sum())
        residual = mu.w0 * scale ** dim * cells
        if residual <= eta or cells == 0:
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
                f"residual {residual:.3e} > eta {eta:.3e} at depth "
                f"{limit} ({cells} cells stuck)", stuck=stuck)

        step, span = _steps(omega, level), _key_spans(level, dim)
        parts = []
        if g.bounds_batch is not None and dim == 1 and cells >= KERNEL_ROWS \
                and front[1].max() >= KERNEL_ROWS:
            parts, front = _decide_runs(g, uni_lo, step, level, scale, ratio,
                                        *front)
        decided = len(parts)
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
            # the chunk's runs: a run ends where the test flips or the keys
            # jump to another frontier run
            first = np.concatenate(([True], (ok[1:] != ok[:-1]) | (
                keys[1:] - keys[:-1] != span))).nonzero()[0]
            parts.append((keys[first], np.concatenate(
                (first[1:], [len(keys)])) - first, ok[first]))
        starts, counts, fine = (np.concatenate(a) for a in zip(*parts))
        if decided:  # into key order
            order = np.argsort(starts, kind="stable")
            starts, counts, fine = starts[order], counts[order], fine[order]
        levels = np.full(len(starts), level, dtype=np.int8)
        got.append((levels[fine], starts[fine], counts[fine]))
        # a run of c cells splits into one run of 2^d c children
        _, starts, counts = _runs(levels[~fine], starts[~fine], counts[~fine],
                                  dim)
        front = (starts, counts * 2 ** dim)
        level += 1

    # the emitted runs of all levels, sorted once into key order
    levels, starts, counts = (np.concatenate(a) for a in zip(*got))
    order = np.argsort(starts, kind="stable")
    runs = _runs(levels[order], starts[order], counts[order], dim)
    return TaggedFamily(omega, domain_norm, *runs, float(residual), level,
                        *front)


class CellChecks(NamedTuple):
    """What the checks that look at one cell alone found on each cell of a
    pool, computed once per distinct cell: a walk checks a chunk's cells
    once, and its refinements' children once, taking into each refinement
    the children it holds.  A pool in which every cell passes keeps no
    arrays, all of them None."""

    tags: np.ndarray | None = None
    escapes: np.ndarray | None = None
    off_center: np.ndarray | None = None
    circ: np.ndarray | None = None
    delta: np.ndarray | None = None

    @property
    def bad(self) -> bool:
        """Some cell fails a check."""
        return self.tags is not None

    def take(self, sel: np.ndarray) -> "CellChecks":
        """The checks of the cells at positions sel."""
        if not self.bad:
            return self
        return _cell_checks(*(a[sel] for a in self))


def _cell_checks(tags, escapes, off_center, circ, delta) -> CellChecks:
    if escapes.any() or off_center.any() or np.any(circ > delta):
        return CellChecks(tags, escapes, off_center, circ, delta)
    return CellChecks()


def check_cells(c: Chunk, g: Gauge, fam: TaggedFamily,
                each: Callable | None = None) -> CellChecks:
    """Containment in fam's universe, the tag inside the inner ball and the
    circumradius about the tag against the gauge, for each cell of c, a
    KERNEL_ROWS batch at a time: a batch whose cells all pass is let go, and
    only a pool with a failing cell is checked again, whole, for its arrays.
    each(rows, los, his, tags) gets each batch, so a caller that evaluates
    the cells too derives their corners and tags once."""
    lo, hi = np.asarray(fam.universe.lo), np.asarray(fam.universe.hi)

    def checks(los, his, tags):
        inner = norm_batch(tags - 0.5 * (los + his), fam.domain_norm)
        return (tags,
                np.any(los < lo - 1e-12, axis=1) | np.any(his > hi + 1e-12, axis=1),
                inner > 0.5 * (his - los).min(axis=1) + 1e-15,
                norm_batch(np.maximum(his - tags, tags - los), fam.domain_norm),
                g.delta_batch(tags))

    passed = True
    for rows, *box in c.batches(fam.universe):
        if each is not None:
            each(rows, *box)
        passed = passed and not _cell_checks(*checks(*box)).bad
    if passed:
        return CellChecks()
    return _cell_checks(*map(np.concatenate, zip(*(
        checks(*box) for _, *box in c.batches(fam.universe)))))


class FamilyCheck:
    """Every invariant of one family, rechecked from scratch piece by piece.

    Feed the family's cells in canonical order to add(), a piece at a time,
    with their CellChecks, then ask verdict() with the family's mass.
    Containment in the universe, interior disjointness, with refined set
    every cell above the last key level (so that a refinement of the family
    can split it), tags inside each set's inner ball, fineness
    (circumradius about the tag under the gauge, non-strict) and measure
    balance against mu to 1e-9 relative.  A failure
    anywhere in the family is reported in that order of priority; the
    fineness message names the worst cell of the whole family.
    Disjointness is certified on keys: each cell's key range must start at
    or after the end of the previous cell's, which also rejects a family
    out of canonical order.  Only running totals are kept, and the per-cell
    results can be shared by families that hold the same cells, so several
    refinements of one family are checked in full in one walk of it.
    """

    def __init__(self, fam: TaggedFamily, mu: RadonMeasure, eta: float,
                 refined: bool = False):
        self.mu, self.eta = mu, eta
        self.residual = fam.residual_measure
        self.last = _key_depth_cap(fam.dim) if refined else None
        self.escapes = self.overlap = self.deep = self.off_center = False
        self.worst = self.prev_end = None

    def add(self, starts: np.ndarray, ends: np.ndarray,
            cells: CellChecks) -> bool:
        """Check the next cells, of key ranges [starts, ends) and per-cell
        checks cells; returns whether no cell so far fails a check."""
        self.overlap = self.overlap or bool(np.any(starts[1:] < ends[:-1])) \
            or (self.prev_end is not None and starts[0] < self.prev_end)
        self.prev_end = ends[-1]
        # a cell at the last key level spans one key
        if self.last is not None and np.any(ends - starts <= 1):
            self.deep = True
        if cells.bad:
            self.escapes = self.escapes or bool(cells.escapes.any())
            self.off_center = self.off_center or bool(cells.off_center.any())
            circ, delta = cells.circ, cells.delta
            if np.any(circ > delta):
                k = int(np.argmax(circ - delta))
                if self.worst is None or circ[k] - delta[k] > self.worst[0]:
                    self.worst = (circ[k] - delta[k], cells.tags[k], circ[k],
                                  delta[k])
        return not (self.escapes or self.overlap or self.deep
                    or self.off_center or self.worst is not None)

    def verdict(self, mass: float, report: dict | None = None) -> bool:
        """True when the whole family, of total measure mass, passed, else
        report["reason"] says why."""
        notes = report if report is not None else {}

        def fail(reason: str) -> bool:
            notes["reason"] = reason
            return False

        if self.escapes:
            return fail("cell escapes the universe")
        if self.overlap:
            return fail("interior overlap (key ranges collide)")
        if self.deep:
            last = self.last
            return fail(f"a cell at level {last} cannot be split: level "
                        f"{last + 1} exceeds the {last}-level key range")
        if self.off_center:
            return fail("tag outside the inner ball of its cell")
        if self.worst is not None:
            _, tag, circ, delta = self.worst
            return fail(f"fineness violated at tag {tuple(tag)}: "
                        f"circumradius {circ} > delta {delta}")

        balance = mass + self.residual
        total = float(self.mu.total)
        tol = 1e-9 * max(1.0, abs(total))
        if abs(balance - total) > tol:
            return fail(f"measure balance off: {balance} vs {total}")
        if self.residual > self.eta * (1 + 1e-12) + 1e-15:
            return fail(f"residual {self.residual} above eta {self.eta}")
        return True


def verify_family(fam: TaggedFamily, g: Gauge, mu: RadonMeasure, eta: float,
                  report: dict | None = None) -> bool:
    """Recheck every invariant of FamilyCheck in one chunked pass: True
    when all hold, else report["reason"] names the failure."""
    check = FamilyCheck(fam, mu, eta)
    masses = []
    for c in fam.chunks():
        check.add(*c.ranges(), check_cells(c, g, fam))
        masses.extend(exact_parts(measure_box_batch(mu, c.los, c.his)))
    return check.verdict(math.fsum(masses), report)


class Refinement:
    """The cells one refinement of an n-cell family splits: counts[b] of the
    DRAW_BLOCK positions of block b, drawn uniformly on demand by a generator
    seeded with (seed, b).  Refinement() splits nothing."""

    def __init__(self, n: int = 0, counts=(), seed: int = 0):
        self.n, self.counts, self.seed = n, np.asarray(counts, np.int64), seed
        self.count = int(self.counts.sum())

    def positions(self, start: int, stop: int) -> np.ndarray:
        """The sorted positions in [start, stop) it splits, less start."""
        got = [np.empty(0, dtype=np.int64)]
        for b in range(start // DRAW_BLOCK, -(-min(stop, self.n) // DRAW_BLOCK)):
            at, rng = b * DRAW_BLOCK, np.random.default_rng((self.seed, b))
            pos = at + np.sort(rng.choice(min(DRAW_BLOCK, self.n - at),
                                          self.counts[b], replace=False))
            got.append(pos[pos.searchsorted(start):pos.searchsorted(stop)] - start)
        return np.concatenate(got)


def refinement_choice(n: int, fraction: float,
                      rng: np.random.Generator) -> Refinement:
    """The cells a refinement of an n-cell family splits: round(fraction *
    n) of them, at least one, drawn without replacement (no draw at all
    for an empty family), as their count per block, then one seed."""
    if n == 0:
        return Refinement()
    # numpy's draws take under 10^9 cells, so a larger n splits in halves of whole blocks
    most = 2 * ((10**9 - 1) // DRAW_BLOCK * DRAW_BLOCK)
    if n > most:
        raise DepthExceeded(f"a refinement of the {n}-cell family cannot be "
                            f"drawn: the draw supports at most {most} cells")
    count = min(max(1, int(round(fraction * n))), n)
    halves = np.array_split(np.diff(np.r_[0:n:DRAW_BLOCK, n]), 1 + (n >= 10**9))
    left = count if len(halves) == 1 else int(
        rng.hypergeometric(halves[0].sum(), halves[1].sum(), count))
    counts = [rng.multivariate_hypergeometric(sizes, k)
              for sizes, k in zip(halves, (left, count - left))]
    return Refinement(n, np.concatenate(counts), int(rng.integers(2 ** 63)))


def refine_family(fam: TaggedFamily, fraction: float,
                  rng: np.random.Generator) -> TaggedFamily:
    """Split a random subset of cube cells into their dyadic children.

    The result covers the same region, so verification and every
    approximation bound hold against it unchanged.  Each chosen cell is
    replaced in place by its children, which own its key range in key
    order, so the result stays in canonical order.  The theorem verifier
    walks such refinements with expand() instead of building them.
    """
    n = len(fam)
    if n == 0:
        return fam
    chosen = refinement_choice(n, fraction, rng).positions(0, n)
    levels, keys = fam.cells(0, n)
    split = np.zeros(n, dtype=bool)
    split[chosen] = True
    # a chosen cell is repeated once per child, and its children's keys
    # then overwrite the copies
    copies = np.where(split, 2 ** fam.dim, 1)
    kids = np.repeat(split, copies)
    refined = np.repeat(keys, copies)
    refined[kids] = _split(keys[chosen], levels[chosen], fam.dim)
    return with_cells(fam, np.repeat(levels + split, copies), refined)


def expand(c: Chunk, chosen: list[np.ndarray], universe: Box
           ) -> tuple[Chunk, Callable[[int], np.ndarray]]:
    """One chunk of several refinements of a family at once.

    chosen[t] holds the sorted positions, within c, of the cells that
    refinement t splits; an empty chosen[t] is the family itself, whose
    piece is every cell of c in order.  Returns the children of every cell
    some refinement splits, each parent's once, parent by parent and in
    key order, and piece: piece(t) is refinement t's piece, the positions
    of its cells in canonical order in the pool of c's cells followed by
    those children, and the positions of the children it holds.  A child's
    indices, and so its corners and tag, derive from its parent's, so a
    child lies inside its parent whatever its key.  A piece is built on
    each call and the children's corners and tags when needed, so nothing
    per refinement and no second copy of a chunk's geometry need be held.
    """
    n, dim = len(c.levels), universe.dim
    fan = 2 ** dim
    split = np.zeros(n, dtype=bool)
    split[np.concatenate(chosen)] = True
    parents = np.flatnonzero(split)
    rank = np.cumsum(split) - 1
    levels = np.repeat(c.levels[parents] + 1, fan)
    keys = _split(c.keys[parents], c.levels[parents], dim)
    # the same integers de-interleaving the children's keys gives
    idx = (2 * c.indices[parents][:, None, :]
           + _CHILD_OFFSETS[dim][None, :, :]).reshape(-1, dim)

    def piece(t: int) -> tuple[np.ndarray, np.ndarray]:
        # each position holds the pool position one past the previous one,
        # except where the piece jumps to a split cell's first child, at
        # n + fan * rank, and back to the cell after it; a split cell's
        # children start at its own position plus fan - 1 for each split
        # cell before it, as in refine_family
        ch = chosen[t]
        first = ch + (fan - 1) * np.arange(len(ch))
        kid = n + fan * rank[ch]
        step = np.ones(n + (fan - 1) * len(ch), dtype=np.int32)
        step[0] = 0
        step[first] += kid - ch
        back = first + fan < len(step)
        step[first[back] + fan] += ch[back] + 1 - (kid[back] + fan)
        held = (kid[:, None] + np.arange(fan)).reshape(-1)
        return np.cumsum(step, dtype=np.int32), held

    return Chunk(c.start, levels, keys, idx, None, None, None), piece


def random_dyadic_partition(omega: Box, rng: np.random.Generator,
                            max_level: int = 5, stop_prob: float = 0.35
                            ) -> TaggedFamily:
    """Full cover (residual 0) with randomly varied cell depths, under the
    Euclidean domain norm."""
    _require_square(omega)
    dim = omega.dim
    level = 0
    active = np.zeros(1, dtype=np.int64)
    got = []
    while len(active):
        if level >= max_level:
            emit = np.ones(len(active), dtype=bool)
        else:
            emit = rng.random(len(active)) < stop_prob
        got.append((np.full(int(emit.sum()), level, dtype=np.int8),
                    active[emit]))
        active = _split(active[~emit], level, dim)
        level += 1

    levels, keys = (np.concatenate(c) for c in zip(*got))
    order = np.argsort(keys, kind="stable")
    runs = _runs(levels[order], keys[order], np.ones(len(keys), dtype=np.int64),
                 dim)
    # nothing is left uncovered: the residual frontier has no runs
    return TaggedFamily(omega, NormKind.TWO, *runs, 0.0, level, active, active)


# --------------------------------------------------------------------------
# falsification hooks

def sabotage_overlap(fam: TaggedFamily, rng: np.random.Generator) -> TaggedFamily:
    """Copy one cell (level, key) over its neighbor, so two cells of the
    family coincide."""
    if len(fam) < 2:
        raise ValueError("need at least two cells to create an overlap")
    i = int(rng.integers(len(fam)))
    j = i + 1 if i + 1 < len(fam) else i - 1
    level, key = fam.cells(i, i + 1)
    # run r, which holds cell j, splits into its cells before j, i's copy and the rest
    r = int(fam._offsets.searchsorted(j, "right")) - 1
    at = j - int(fam._offsets[r])
    after = fam.starts[r] + (at + 1) * _key_spans(fam.levels[r], fam.dim)
    runs = [np.r_[a[:r], mid, a[r + 1:]] for a, mid in (
        (fam.levels, [fam.levels[r], level[0], fam.levels[r]]),
        (fam.starts, [fam.starts[r], key[0], after]),
        (fam.counts, [at, 1, fam.counts[r] - at - 1]))]
    levels, starts, counts = (a[runs[2] > 0] for a in runs)
    return replace(fam, levels=levels, starts=starts, counts=counts, tag_override=None)


def sabotage_offcenter(fam: TaggedFamily, rng: np.random.Generator) -> TaggedFamily:
    """Move a few tags outside their cells' inner balls."""
    if len(fam) == 0:
        raise ValueError("empty family")
    idx = rng.choice(len(fam), size=min(3, len(fam)), replace=False)
    levels, keys = map(np.concatenate, zip(*(fam.cells(i, i + 1) for i in idx)))
    _, _, tags = _geometry(fam.universe, levels, _indices(levels, keys, fam.dim))
    half = 0.5 * _steps(fam.universe, levels)[:, 0]
    tags[:, 0] += 1.2 * half
    return replace(fam, tag_override=(idx, tags))

"""Gauge-fine dyadic cube families over a square box universe.

The dyadic sieve keeps a frontier of equal-level cells, emits the ones whose
circumradius about the center already fits under the gauge, and splits the
rest.  A cell is (level, index) against the universe, and every corner and
tag derives from that.  Every family (sieve output, refined trial, random
partition) expands cells with _split, which builds each child's interleaved-
bit key from its parent's key and its (level, index), and _cube_family sorts
the keys into canonical depth-first lexicographic order.  The keys double as
an exact interior disjointness certificate, since a dyadic cell owns a
contiguous key range; verify_family trusts them, and a bit-interleaving
reference in the tests pins them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DepthExceeded
from .geometry import Box, Gauge, NormKind, norm_batch, norm_ratio
from .measure import RadonMeasure, measure_box_batch

_CHILD_OFFSETS = {d: np.array(np.meshgrid(*([[0, 1]] * d), indexing="ij"),
                              dtype=np.int64).reshape(d, -1).T
                  for d in (1, 2, 3)}
# each child offset's key digit, axis 0 most significant
_CHILD_DIGITS = {d: (off << np.arange(d - 1, -1, -1)).sum(axis=1)
                 for d, off in _CHILD_OFFSETS.items()}


def _key_depth_cap(dim: int) -> int:
    return 62 // dim


def _split(indices: np.ndarray, keys: np.ndarray, levels, dim: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """The 2^d children of each cell, parent by parent: their indices and
    their depth-first lexicographic keys (the parent's key with the child's
    digit at the next level down).  `levels` is the parents' level, one
    integer or one per cell."""
    cap = _key_depth_cap(dim)
    levels = np.asarray(levels, dtype=np.int64)
    if len(indices) and int(levels.max()) + 1 > cap:
        raise ValueError(f"level {int(levels.max()) + 1} exceeds the "
                         f"{cap}-level key range")
    child_ix = (indices[:, None, :] * 2 + _CHILD_OFFSETS[dim][None, :, :]) \
        .reshape(-1, dim)
    shift = (dim * (cap - levels - 1)).reshape(-1, 1)
    child_keys = (keys[:, None] | (_CHILD_DIGITS[dim][None, :] << shift)) \
        .reshape(-1)
    return child_ix, child_keys


def _key_spans(levels: np.ndarray, dim: int) -> np.ndarray:
    cap = _key_depth_cap(dim)
    return np.int64(1) << (dim * (cap - levels.astype(np.int64)))


@dataclass(frozen=True)
class SieveParams:
    eta: float
    max_depth: int = 24

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")


@dataclass
class TaggedFamily:
    """Finitely many interior-disjoint tagged cubes plus the uncovered rest.

    Cell corners derive from (level, index) against the universe; `keys`
    are the cells' Morton keys, built alongside (level, index) by _split.
    """

    universe: Box
    domain_norm: NormKind
    levels: np.ndarray
    indices: np.ndarray
    tags: np.ndarray
    keys: np.ndarray
    residual_measure: float
    residual_los: np.ndarray
    residual_his: np.ndarray

    def __len__(self) -> int:
        return len(self.tags)

    @property
    def dim(self) -> int:
        return self.universe.dim

    @cached_property
    def _corners(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(self.universe.lo)
        step = _steps(self.universe, self.levels)
        return lo[None, :] + self.indices * step, \
            lo[None, :] + (self.indices + 1) * step

    @property
    def los(self) -> np.ndarray:
        return self._corners[0]

    @property
    def his(self) -> np.ndarray:
        return self._corners[1]

    def measures(self, mu: RadonMeasure) -> np.ndarray:
        return measure_box_batch(mu, self.los, self.his)

    def depth_histogram(self) -> dict[int, int]:
        if len(self.levels) == 0:
            return {}
        counts = np.bincount(self.levels)
        return {int(k): int(v) for k, v in enumerate(counts) if v}


def _steps(omega: Box, levels: np.ndarray) -> np.ndarray:
    """Side lengths, per cell and axis, of the dyadic cells at `levels`."""
    side = np.asarray(omega.hi) - np.asarray(omega.lo)
    return side[None, :] * (2.0 ** -levels.astype(float))[:, None]


def _require_square(omega: Box):
    side = np.asarray(omega.hi) - np.asarray(omega.lo)
    if not np.all(side == side[0]):
        raise ValueError("dyadic sieve needs a square universe")


def _cube_family(omega: Box, domain_norm: NormKind, levels: np.ndarray,
                 indices: np.ndarray, keys: np.ndarray,
                 residual_measure: float, residual_los: np.ndarray,
                 residual_his: np.ndarray) -> TaggedFamily:
    """The dyadic cells (level, index) of omega with their keys, tagged at
    their centers and sorted stably into canonical key order."""
    order = np.argsort(keys, kind="stable")
    levels = levels.astype(np.int32, copy=False)[order]
    indices, keys = indices[order], keys[order]
    tags = np.asarray(omega.lo)[None, :] \
        + (indices + 0.5) * _steps(omega, levels)
    return TaggedFamily(universe=omega, domain_norm=domain_norm,
                        levels=levels, indices=indices, tags=tags, keys=keys,
                        residual_measure=float(residual_measure),
                        residual_los=residual_los, residual_his=residual_his)


def dyadic_sieve(omega: Box, g: Gauge, mu: RadonMeasure, p: SieveParams,
                 domain_norm: NormKind = NormKind.TWO) -> TaggedFamily:
    """Level-synchronous refinement until the uncovered measure drops to eta.

    A cell is emitted once halfside * m(inf -> domain_norm) <= delta(center),
    non-strict, and the same test holds one level down at every child
    center; the extra look-ahead keeps one-step refinements of the output
    fine even where the gauge dips sharply.  Everything else splits into
    its 2^d children.  DepthExceeded carries a sample of the stuck cells
    with their gauge values.
    """
    _require_square(omega)
    dim = omega.dim
    uni_lo = np.asarray(omega.lo)
    side = float(omega.hi[0] - omega.lo[0])
    ratio = norm_ratio(NormKind.INF, domain_norm, dim)
    offsets = _CHILD_OFFSETS[dim]

    level = 0
    active = np.zeros((1, dim), dtype=np.int64)
    active_keys = np.zeros(1, dtype=np.int64)
    got = [(np.empty(0, dtype=np.int32), active[:0], active_keys[:0])]

    while True:
        scale = side * 2.0 ** -level
        if len(active) == 0:
            residual = 0.0
        elif mu.uniform:
            residual = mu.w0 * scale ** dim * len(active)
        else:
            a_lo = uni_lo[None, :] + active * scale
            residual = float(measure_box_batch(mu, a_lo, a_lo + scale).sum())
        if residual <= p.eta or len(active) == 0:
            res_lo = uni_lo[None, :] + active * scale
            res_hi = res_lo + scale
            break
        if level > p.max_depth:
            a_lo = uni_lo[None, :] + active * scale
            centers = a_lo + 0.5 * scale
            deltas = g.delta_batch(centers[:8])
            stuck = [{"lo": [float(v) for v in a_lo[i]],
                      "hi": [float(v) for v in a_lo[i] + scale],
                      "delta": float(deltas[i]),
                      "needed": float(0.5 * scale * ratio)}
                     for i in range(min(8, len(active)))]
            raise DepthExceeded(
                f"residual {residual:.3e} > eta {p.eta:.3e} at depth "
                f"{p.max_depth} ({len(active)} cells stuck)", stuck=stuck)

        centers = uni_lo[None, :] + (active + 0.5) * scale
        deltas = g.delta_batch(centers)
        fine = (0.5 * scale * ratio) <= deltas
        if fine.any():
            signs = 2.0 * offsets - 1.0
            kids = centers[fine][:, None, :] + 0.25 * scale * signs[None, :, :]
            kid_d = g.delta_batch(kids.reshape(-1, dim)) \
                .reshape(-1, len(offsets)).min(axis=1)
            ok = (0.25 * scale * ratio) <= kid_d
            fine[np.nonzero(fine)[0][~ok]] = False
        got.append((np.full(int(fine.sum()), level, dtype=np.int32),
                    active[fine], active_keys[fine]))
        active, active_keys = _split(active[~fine], active_keys[~fine],
                                     level, dim)
        level += 1

    levels, indices, keys = (np.concatenate(c) for c in zip(*got))
    return _cube_family(omega, domain_norm, levels, indices, keys, residual,
                        res_lo, res_hi)


def verify_family(fam: TaggedFamily, g: Gauge, mu: RadonMeasure, eta: float,
                  report: dict | None = None) -> bool:
    """Recheck every family invariant from scratch.

    Fineness (circumradius about the tag under the gauge, non-strict), tags
    inside each set's inner ball, interior disjointness, containment in the
    universe, and measure balance against mu to 1e-9 relative.  The one
    disjointness check is on the key ranges the cells own; it trusts the
    keys _split built from (level, index), which the tests pin.
    """
    notes = report if report is not None else {}

    def fail(reason: str) -> bool:
        notes["reason"] = reason
        return False

    los, his, tags = fam.los, fam.his, fam.tags
    if len(fam):
        uni_lo = np.asarray(fam.universe.lo)
        uni_hi = np.asarray(fam.universe.hi)
        if np.any(los < uni_lo - 1e-12) or np.any(his > uni_hi + 1e-12):
            return fail("cell escapes the universe")
        order = np.argsort(fam.keys, kind="stable")
        k = fam.keys[order]
        ends = k + _key_spans(fam.levels[order], fam.dim)
        if np.any(k[1:] < ends[:-1]):
            return fail("interior overlap (key ranges collide)")

        deltas = g.delta_batch(tags)
        circ = norm_batch(np.maximum(his - tags, tags - los), fam.domain_norm)
        inner = norm_batch(tags - 0.5 * (los + his), fam.domain_norm)
        half = 0.5 * (his - los).min(axis=1)
        if np.any(inner > half + 1e-15):
            return fail("tag outside the inner ball of its cell")
        if np.any(circ > deltas):
            worst = int(np.argmax(circ - deltas))
            return fail(f"fineness violated at tag {tuple(tags[worst])}: "
                        f"circumradius {circ[worst]} > delta {deltas[worst]}")

    measures = fam.measures(mu) if len(fam) else np.empty(0)
    balance = float(measures.sum()) + fam.residual_measure
    total = float(mu.total)
    tol = 1e-9 * max(1.0, abs(total))
    if abs(balance - total) > tol:
        return fail(f"measure balance off: {balance} vs {total}")
    if fam.residual_measure > eta * (1 + 1e-12) + 1e-15:
        return fail(f"residual {fam.residual_measure} above eta {eta}")
    notes["cells"] = len(fam)
    notes["residual"] = fam.residual_measure
    return True


def refine_family(fam: TaggedFamily, fraction: float,
                  rng: np.random.Generator) -> TaggedFamily:
    """Split a random subset of cube cells into their dyadic children.

    Used to vary trials; the result covers the same region, so verification
    and every approximation bound are re-run against it unchanged.
    """
    n = len(fam)
    if n == 0:
        return fam
    count = max(1, int(round(fraction * n)))
    chosen = np.zeros(n, dtype=bool)
    chosen[rng.choice(n, size=min(count, n), replace=False)] = True

    dim = fam.dim
    split_lv = fam.levels[chosen]
    child_ix, child_keys = _split(fam.indices[chosen], fam.keys[chosen],
                                  split_lv, dim)
    return _cube_family(fam.universe, fam.domain_norm,
                        np.concatenate([fam.levels[~chosen],
                                        np.repeat(split_lv + 1, 2 ** dim)]),
                        np.concatenate([fam.indices[~chosen], child_ix]),
                        np.concatenate([fam.keys[~chosen], child_keys]),
                        fam.residual_measure, fam.residual_los,
                        fam.residual_his)


def random_dyadic_partition(omega: Box, rng: np.random.Generator,
                            max_level: int = 5, stop_prob: float = 0.35,
                            domain_norm: NormKind = NormKind.TWO) -> TaggedFamily:
    """Full cover (residual 0) with randomly varied cell depths."""
    _require_square(omega)
    dim = omega.dim
    level = 0
    active = np.zeros((1, dim), dtype=np.int64)
    active_keys = np.zeros(1, dtype=np.int64)
    got = []
    while len(active):
        if level >= max_level:
            emit = np.ones(len(active), dtype=bool)
        else:
            emit = rng.random(len(active)) < stop_prob
        got.append((np.full(int(emit.sum()), level, dtype=np.int32),
                    active[emit], active_keys[emit]))
        active, active_keys = _split(active[~emit], active_keys[~emit],
                                     level, dim)
        level += 1

    levels, indices, keys = (np.concatenate(c) for c in zip(*got))
    return _cube_family(omega, domain_norm, levels, indices, keys, 0.0,
                        np.empty((0, dim)), np.empty((0, dim)))


# --------------------------------------------------------------------------
# falsification hooks

def sabotage_overlap(fam: TaggedFamily, rng: np.random.Generator) -> TaggedFamily:
    """Copy one cell (level, index, key, tag) over its neighbor, so two cells
    of the family coincide."""
    if len(fam) < 2:
        raise ValueError("need at least two cells to create an overlap")
    i = int(rng.integers(len(fam)))
    j = i + 1 if i + 1 < len(fam) else i - 1
    levels, indices = fam.levels.copy(), fam.indices.copy()
    tags, keys = fam.tags.copy(), fam.keys.copy()
    for a in (levels, indices, tags, keys):
        a[j] = a[i]
    return replace(fam, levels=levels, indices=indices, tags=tags, keys=keys)


def sabotage_offcenter(fam: TaggedFamily, rng: np.random.Generator) -> TaggedFamily:
    """Move a few tags outside their cells' inner balls."""
    if len(fam) == 0:
        raise ValueError("empty family")
    tags = fam.tags.copy()
    count = min(3, len(fam))
    idx = rng.choice(len(fam), size=count, replace=False)
    half = 0.5 * _steps(fam.universe, fam.levels[idx])[:, 0]
    tags[idx, 0] += 1.2 * half
    return replace(fam, tags=tags)

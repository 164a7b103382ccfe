"""Gauge-fine dyadic cube families over a square box universe.

The dyadic sieve keeps a frontier of equal-level cells, emits the ones whose
circumradius about the center already fits under the gauge, and splits the
rest.  Every family (sieve output, refined trial, random partition) is
built by _cube_family, which sorts the cells into canonical depth-first
lexicographic order via interleaved-bit keys; the keys double as an exact
interior disjointness certificate, since a dyadic cell owns a contiguous
key range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DepthExceeded
from .geometry import Box, Gauge, NormKind, norm_batch, norm_ratio
from .measure import RadonMeasure, measure_box_batch

_CHILD_OFFSETS = {d: np.array(np.meshgrid(*([[0, 1]] * d), indexing="ij"),
                              dtype=np.int64).reshape(d, -1).T
                  for d in (1, 2, 3)}


def _key_depth_cap(dim: int) -> int:
    return 62 // dim


def _morton_keys(level: int, idx: np.ndarray, dim: int) -> np.ndarray:
    """Depth-first lexicographic sort keys, axis 0 most significant within
    each level digit."""
    cap = _key_depth_cap(dim)
    if level > cap:
        raise ValueError(f"level {level} exceeds the {cap}-level key range")
    keys = np.zeros(len(idx), dtype=np.int64)
    for j in range(1, level + 1):
        digit = np.zeros(len(idx), dtype=np.int64)
        for k in range(dim):
            digit |= ((idx[:, k] >> (level - j)) & 1) << (dim - 1 - k)
        keys |= digit << (dim * (cap - j))
    return keys


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

    Box corners derive from (level, index) against the universe; sabotage
    hooks that edit geometry directly must clear `dyadic`, which downgrades
    disjointness checking to the geometric sweep.
    """

    universe: Box
    domain_norm: NormKind
    levels: np.ndarray
    indices: np.ndarray
    tags: np.ndarray
    halfsides: np.ndarray
    keys: np.ndarray
    residual_measure: float
    residual_los: np.ndarray
    residual_his: np.ndarray
    warnings: list[str] = field(default_factory=list)
    dyadic: bool = True
    _los: np.ndarray | None = None
    _his: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.tags)

    @property
    def dim(self) -> int:
        return self.universe.dim

    def _derive_corners(self):
        lo = np.asarray(self.universe.lo)
        side = np.asarray(self.universe.hi) - lo
        step = side[None, :] * (2.0 ** -self.levels.astype(float))[:, None]
        self._los = lo[None, :] + self.indices * step
        self._his = lo[None, :] + (self.indices + 1) * step

    @property
    def los(self) -> np.ndarray:
        if self._los is None:
            self._derive_corners()
        return self._los

    @property
    def his(self) -> np.ndarray:
        if self._his is None:
            self._derive_corners()
        return self._his

    def measures(self, mu: RadonMeasure) -> np.ndarray:
        return measure_box_batch(mu, self.los, self.his)

    def depth_histogram(self) -> dict[int, int]:
        if len(self.levels) == 0:
            return {}
        counts = np.bincount(self.levels)
        return {int(k): int(v) for k, v in enumerate(counts) if v}

    def replace_geometry(self, los: np.ndarray, his: np.ndarray,
                         tags: np.ndarray) -> "TaggedFamily":
        """Copy with explicit corners, dropping the dyadic fast path."""
        fam = TaggedFamily(universe=self.universe,
                           domain_norm=self.domain_norm,
                           levels=self.levels.copy(), indices=self.indices.copy(),
                           tags=np.array(tags, dtype=float),
                           halfsides=self.halfsides.copy(), keys=self.keys.copy(),
                           residual_measure=self.residual_measure,
                           residual_los=self.residual_los,
                           residual_his=self.residual_his,
                           warnings=list(self.warnings), dyadic=False)
        fam._los = np.array(los, dtype=float)
        fam._his = np.array(his, dtype=float)
        return fam


def _require_square(omega: Box):
    side = np.asarray(omega.hi) - np.asarray(omega.lo)
    if not np.all(side == side[0]):
        raise ValueError("dyadic sieve needs a square universe")


def _circumradius_about_tags(los, his, tags, domain_norm) -> np.ndarray:
    far = np.maximum(his - tags, tags - los)
    return norm_batch(far, domain_norm)


def _cube_family(omega: Box, domain_norm: NormKind, levels: np.ndarray,
                 indices: np.ndarray, residual_measure: float,
                 residual_los: np.ndarray,
                 residual_his: np.ndarray) -> TaggedFamily:
    """The dyadic cells (level, index) of omega, tagged at their centers and
    sorted stably into canonical key order."""
    levels = levels.astype(np.int32, copy=False)
    keys = np.empty(len(levels), dtype=np.int64)
    # one key computation per level, over that level's rows
    by_level = np.argsort(levels, kind="stable")
    starts = np.flatnonzero(np.diff(levels[by_level])) + 1
    for rows in np.split(by_level, starts):
        if len(rows):
            keys[rows] = _morton_keys(int(levels[rows[0]]), indices[rows],
                                      omega.dim)
    order = np.argsort(keys, kind="stable")
    levels, indices, keys = levels[order], indices[order], keys[order]

    lo = np.asarray(omega.lo)
    side = np.asarray(omega.hi) - lo
    step = side[None, :] * (2.0 ** -levels.astype(float))[:, None]
    return TaggedFamily(universe=omega, domain_norm=domain_norm,
                        levels=levels, indices=indices,
                        tags=lo[None, :] + (indices + 0.5) * step,
                        halfsides=0.5 * step[:, 0], keys=keys,
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
    got_levels, got_idx = [], []
    total = float(mu.total)

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
        if fine.any():
            emitted = active[fine]
            got_levels.append(np.full(len(emitted), level, dtype=np.int32))
            got_idx.append(emitted)
        coarse = active[~fine]
        if len(coarse):
            active = (coarse[:, None, :] * 2 + offsets[None, :, :]) \
                .reshape(-1, dim)
        else:
            active = np.empty((0, dim), dtype=np.int64)
        level += 1

    if got_levels:
        levels = np.concatenate(got_levels)
        indices = np.concatenate(got_idx)
    else:
        levels = np.empty(0, dtype=np.int32)
        indices = np.empty((0, dim), dtype=np.int64)
    fam = _cube_family(omega, domain_norm, levels, indices, residual,
                       res_lo, res_hi)
    if total and fam.residual_measure > total:
        fam.warnings.append("residual exceeds total measure; check density")
    return fam


def _geometric_disjoint(los: np.ndarray, his: np.ndarray) -> bool:
    """Interior disjointness by plane sweep along axis 0."""
    n = len(los)
    order = np.argsort(los[:, 0], kind="stable")
    active: list[int] = []
    for oi in order:
        lo0 = los[oi, 0]
        active = [j for j in active if his[j, 0] > lo0]
        for j in active:
            if np.all(np.maximum(los[oi], los[j]) < np.minimum(his[oi], his[j])):
                return False
        active.append(oi)
    return True


def verify_family(fam: TaggedFamily, g: Gauge, mu: RadonMeasure, eta: float,
                  report: dict | None = None) -> bool:
    """Recheck every family invariant from scratch.

    Fineness (circumradius about the tag under the gauge, non-strict), tags
    inside each set's inner ball, interior disjointness, containment in the
    universe, and measure balance against mu to 1e-9 relative.
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
        clean = fam.dyadic
        if clean:
            lo_ref = np.asarray(fam.universe.lo)
            side_ref = np.asarray(fam.universe.hi) - lo_ref
            step = side_ref[None, :] \
                * (2.0 ** -fam.levels.astype(float))[:, None]
            clean = bool(np.array_equal(lo_ref[None, :] + fam.indices * step, los)
                         and np.array_equal(
                             lo_ref[None, :] + (fam.indices + 1) * step, his))
        if clean:
            order = np.argsort(fam.keys, kind="stable")
            k = fam.keys[order]
            ends = k + _key_spans(fam.levels[order], fam.dim)
            if np.any(k[1:] < ends[:-1]):
                return fail("interior overlap (key ranges collide)")
        elif not _geometric_disjoint(los, his):
            return fail("interior overlap (geometric sweep)")

        deltas = g.delta_batch(tags)
        circ = _circumradius_about_tags(los, his, tags, fam.domain_norm)
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
    if not fam.dyadic:
        raise ValueError("refinement needs a dyadic family")
    n = len(fam)
    if n == 0:
        return fam
    count = max(1, int(round(fraction * n)))
    chosen = np.zeros(n, dtype=bool)
    chosen[rng.choice(n, size=min(count, n), replace=False)] = True

    dim = fam.dim
    offsets = _CHILD_OFFSETS[dim]
    keep_lv, keep_ix = fam.levels[~chosen], fam.indices[~chosen]
    split_lv, split_ix = fam.levels[chosen], fam.indices[chosen]
    child_ix = (split_ix[:, None, :] * 2 + offsets[None, :, :]).reshape(-1, dim)
    child_lv = np.repeat(split_lv + 1, 2 ** dim)

    out = _cube_family(fam.universe, fam.domain_norm,
                       np.concatenate([keep_lv, child_lv]),
                       np.concatenate([keep_ix, child_ix]),
                       fam.residual_measure, fam.residual_los, fam.residual_his)
    out.warnings.extend(fam.warnings)
    return out


def random_dyadic_partition(omega: Box, rng: np.random.Generator,
                            max_level: int = 5, stop_prob: float = 0.35,
                            domain_norm: NormKind = NormKind.TWO) -> TaggedFamily:
    """Full cover (residual 0) with randomly varied cell depths."""
    _require_square(omega)
    dim = omega.dim
    offsets = _CHILD_OFFSETS[dim]
    level = 0
    active = np.zeros((1, dim), dtype=np.int64)
    got_lv, got_ix = [], []
    while len(active):
        if level >= max_level:
            emit = np.ones(len(active), dtype=bool)
        else:
            emit = rng.random(len(active)) < stop_prob
        if emit.any():
            got_lv.append(np.full(int(emit.sum()), level, dtype=np.int32))
            got_ix.append(active[emit])
        rest = active[~emit]
        active = (rest[:, None, :] * 2 + offsets[None, :, :]).reshape(-1, dim) \
            if len(rest) else np.empty((0, dim), dtype=np.int64)
        level += 1

    return _cube_family(omega, domain_norm, np.concatenate(got_lv),
                        np.concatenate(got_ix), 0.0,
                        np.empty((0, dim)), np.empty((0, dim)))


# --------------------------------------------------------------------------
# falsification hooks

def sabotage_overlap(fam: TaggedFamily, rng: np.random.Generator) -> TaggedFamily:
    """Shift one interior cell by a third of its width; neighbors overlap."""
    if len(fam) < 2:
        raise ValueError("need at least two cells to create an overlap")
    i = int(rng.integers(len(fam)))
    los = fam.los.copy()
    his = fam.his.copy()
    tags = fam.tags.copy()
    shift = (his[i, 0] - los[i, 0]) / 3.0
    direction = 1.0 if his[i, 0] + shift <= fam.universe.hi[0] else -1.0
    los[i, 0] += direction * shift
    his[i, 0] += direction * shift
    tags[i, 0] += direction * shift
    out = fam.replace_geometry(los, his, tags)
    out.warnings.append("sabotage: overlap-cells")
    return out


def sabotage_offcenter(fam: TaggedFamily, rng: np.random.Generator) -> TaggedFamily:
    """Move a few tags outside their cells' inner balls."""
    if len(fam) == 0:
        raise ValueError("empty family")
    tags = fam.tags.copy()
    count = min(3, len(fam))
    idx = rng.choice(len(fam), size=count, replace=False)
    for i in idx:
        tags[i, 0] += 1.2 * fam.halfsides[i]
    out = fam.replace_geometry(fam.los.copy(), fam.his.copy(), tags)
    out.warnings.append("sabotage: offcenter-tags")
    return out

"""Adaptive box quadrature with a range-based error bound.

Cell rule: tensor-product Simpson on the 3^d lattice.  Cell error charge:
cell volume times the Euclidean norm of the per-component range of the values
sampled on that lattice.  The charge bounds the true error only where the
sampled range is the true range.  That holds for the current corpus
(piecewise-constant jumps land between lattice points of some straddling
cell, monotone singular tails attain their range at lattice corners, smooth
entries sit far below the charge) but not for an arbitrary integrand, so
the bound is an enclosure for the corpus only, not a proof in general.

Refinement rule, per box: each round splits the _POP_ROUND cells with the
largest charges into their 2^d halves, ties going to the oldest cell.  A
cell whose charge is at most 1e-300 is set aside and never split.  The bound
is the correctly rounded sum (math.fsum) of the charges of all current
cells; refinement stops once it is within tol, or, before a round, once
more than max_cells cells have been assessed.

Lock-step rounds: many boxes are refined together, in the style of globally
adaptive cubature over many subregions (Berntsen, Espelid and Genz, ACM
TOMS 17(4), 1991).  One integrand call assesses every box's root cell.
Then each round advances the oldest live boxes whose children fit in
_ROUND_CELLS cells, and always at least one box; it assesses all their
children in one integrand call and touches no other box's cells.
Each box still follows the rule above on its own, so its cells, value and
bound are the same as when it is integrated alone.  That holds only if the
integrand is row-wise: each output row depends on its own point only.

Layout: a cell is one row [lo | hi | value | charge]; a stack of cells
gathers its lattice points and children with one take each from per-axis
tables and takes its ranges over a lattice-major copy of its values, so
these steps loop over whole stacks, not over short d- or 3^d-long rows.  No
value or bound depends on that layout by a bit: the Simpson sums keep the
point-major rows whose order numpy's pairwise sums follow.

The engine is deliberately independent of the exact-integral oracles in
corpus: it only ever touches eval_batch.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ToleranceUnreachable
from .geometry import NormKind, norm_batch

_POP_ROUND = 256
# children assessed per lock-step round: one 2-d box's full round fits
_ROUND_CELLS = 1024


# the 3^d lattice's barycentric steps along one axis
_STEPS = np.array([0.0, 0.5, 1.0])


def _simpson_weights(dim: int) -> np.ndarray:
    w1 = np.array([1.0, 4.0, 1.0]) / 6.0
    w = np.ones(1)
    for _ in range(dim):
        w = np.outer(w, w1).ravel()
    return w


def adaptive_box_quadrature_batch(eval_batch, los, his, m: int, tols,
                                  max_cells: int = 200_000,
                                  strict: bool = True):
    """Integrate a vector map over k boxes; returns (values (k, m), bounds
    (k,)).

    eval_batch maps an (N, d) point array and the (N,) box index of each
    point to an (N, m) value array, row by row.  Box i is refined against
    tols[i].  Its bound is the sum of its per-cell range charges in the
    Euclidean norm.  With strict=False, a box that runs out of cell budget
    returns its looser bound instead of raising.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    k, dim = los.shape
    weights = _simpson_weights(dim)
    npt = 3 ** dim
    kids = 2 ** dim
    width = 2 * dim + m + 1
    val_cols = slice(2 * dim, 2 * dim + m)
    # a cell's lattice points and children read their coordinates, axis 0
    # varying slowest, from three values per axis: lo + {0, 0.5, 1} * (hi -
    # lo) for the points; lo, mid and hi for the children, whose value and
    # charge columns assess then fills
    axes = 3 * np.arange(dim)
    lattice = (np.array(list(itertools.product(range(3), repeat=dim)))
               + axes).ravel()
    corner = np.array(list(itertools.product(range(2), repeat=dim))) + axes
    child_cols = np.concatenate(
        [corner, corner + 1, np.zeros((kids, m + 1), dtype=int)],
        axis=1).ravel()

    def assess(rows: np.ndarray, box: np.ndarray):
        """Fill the Simpson value and range charge of rows [lo | hi | value
        | charge], a stack of cells of the given boxes."""
        n = len(rows)
        w = rows[:, dim:2 * dim] - rows[:, :dim]
        table = rows[:, :dim, None] + _STEPS * w[:, :, None]
        pts = table.reshape(n, 3 * dim).take(lattice, axis=1)
        vols = np.ones(n)
        for a in range(dim):
            vols *= w[:, a]
        vals = np.asarray(eval_batch(pts.reshape(n * npt, dim),
                                     np.repeat(box, npt)), dtype=float)
        vals = vals.reshape(n, npt, m)
        rows[:, val_cols] = (weights[None, :, None] * vals).sum(axis=1) \
            * vols[:, None]
        lattice_major = np.ascontiguousarray(vals.transpose(1, 0, 2))
        rng = lattice_major.max(axis=0) - lattice_major.min(axis=0)
        rows[:, -1] = norm_batch(rng, NormKind.TWO) * vols
        return rows

    def by_box(rows, own, n: int):
        """Cut rows sorted by owner 0..n-1 into one slice per owner."""
        cut = np.searchsorted(own, np.arange(n + 1)).tolist()
        return [rows[a:b] for a, b in zip(cut, cut[1:])]

    # each box's pool holds its splittable cells in creation order; its
    # set-aside cells keep only their value sum and their nonzero charges
    roots = np.empty((k, width))
    roots[:, :dim], roots[:, dim:2 * dim] = los, his
    assess(roots, np.arange(k))
    pools = [roots[b:b + 1] for b in range(k)]
    values = np.zeros((k, m))
    set_err: list[list[float]] = [[] for _ in range(k)]
    cells = [1] * k
    bounds = np.empty(k)
    stale = [True] * k
    live = list(range(k))
    while live:
        # advance the oldest live boxes whose children fit in the round
        adv, grow, i = [], 0, 0
        while i < len(live):
            b = live[i]
            if stale[b]:
                bounds[b] = math.fsum(pools[b][:, -1].tolist() + set_err[b])
                stale[b] = False
            err, tol = bounds[b], tols[b]
            if not (err > tol and len(pools[b])) or cells[b] > max_cells:
                if strict and err > tol and len(pools[b]):
                    raise ToleranceUnreachable(
                        f"quadrature budget exhausted at error {err:.3e} "
                        f"(target {tol:.3e})")
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
        # per box, the _POP_ROUND largest charges, ties to the oldest cell
        order = np.lexsort((-pool[:, -1], owner))
        rank = np.arange(len(pool)) - (np.cumsum(sizes) - sizes)[owner]
        pick = order[rank < _POP_ROUND]
        rest = np.sort(order[rank >= _POP_ROUND])
        lo, hi = pool[pick, :dim], pool[pick, dim:2 * dim]
        table = np.stack([lo, 0.5 * (lo + hi), hi], axis=2)
        child = table.reshape(-1, 3 * dim).take(child_cols, axis=1)
        cown = np.repeat(owner[pick], kids)
        child = assess(child.reshape(-1, width), np.asarray(adv)[cown])
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


def adaptive_box_quadrature(eval_batch, lo, hi, m: int, tol: float,
                            max_cells: int = 200_000, strict: bool = True):
    """Integrate a vector map over one box; returns (value (m,), error bound).

    eval_batch maps an (N, d) point array to an (N, m) value array.  This is
    adaptive_box_quadrature_batch with a single box.
    """
    values, bounds = adaptive_box_quadrature_batch(
        lambda P, box: eval_batch(P), [lo], [hi], m, [tol],
        max_cells=max_cells, strict=strict)
    return values[0], float(bounds[0])

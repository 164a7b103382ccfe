import numpy as np
import pytest

from morsegauge.geometry import Gauge
from morsegauge.measure import RadonMeasure


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def unit_measure(f):
    return RadonMeasure.unit(f.universe)


def constant_gauge(value):
    """The gauge that is value everywhere."""
    return Gauge(batch=lambda X: np.full(len(X), value))


def brute_mean_dev(f, lo, hi, v, n=20001):
    """Midpoint-rule deviation integral, independent of every oracle.

    Only trustworthy for 1-d integrands away from the singular point; the
    2-d entries get their independent check from adaptive quadrature.
    """
    lo, hi = float(lo[0]), float(hi[0])
    xs = np.linspace(lo, hi, n, endpoint=False) + (hi - lo) / (2 * n)
    vals = f.eval_batch(xs[:, None])
    devs = f.ynorm_rows(vals - np.asarray(v)[None, :])
    return float(devs.mean() * (hi - lo))


def run_cells(levels, starts, counts, dim):
    """Reference cell arrays of runs: their levels and keys cell by cell,
    by np.repeat, cell i of a run being its start plus i key spans."""
    levels = np.repeat(levels, counts)
    within = np.arange(len(levels)) - np.repeat(np.cumsum(counts) - counts,
                                                counts)
    spans = np.int64(1) << (dim * (62 // dim - levels.astype(np.int64)))
    return levels, np.repeat(starts, counts) + within * spans


def cell_arrays(fam):
    """Reference cell arrays of a family's runs, put into key order by a
    stable sort, the way the sieve assembled its cells when families were
    cell arrays."""
    levels, keys = run_cells(fam.levels, fam.starts, fam.counts, fam.dim)
    order = np.argsort(keys, kind="stable")
    return levels[order], keys[order]

"""Gauge-fine tagged partitions with certified Riemann-sum accuracy.

The pipeline: pick an integrand from the corpus, build a two-branch gauge
from its shell budgets and jump tubes, sieve the universe into a gauge-fine
dyadic family, then certify the simple-sum, L1, truncation, and
set-function bounds against exact integrals.
"""

from .corpus import corpus_function
from .errors import (BoundViolated, DepthExceeded, NotPiecewise,
                     PreconditionUncertified, ToleranceUnreachable,
                     TubeInfeasible)
from .measure import RadonMeasure
from .riemann import verify_theorem

__version__ = "0.1.0"

# README's library example and the errors it names; the rest is in submodules
__all__ = [
    "BoundViolated", "DepthExceeded", "NotPiecewise",
    "PreconditionUncertified", "RadonMeasure", "ToleranceUnreachable",
    "TubeInfeasible", "corpus_function", "verify_theorem",
]

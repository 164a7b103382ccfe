"""Gauge-fine tagged partitions with certified Riemann-sum accuracy.

The pipeline: pick an integrand from the corpus, build a two-branch gauge
from its shell budgets and jump tubes, sieve the universe into a gauge-fine
dyadic family, then certify the simple-sum, L1, truncation, and
set-function bounds against exact integrals.
"""

from .analysis import CompactContinuitySet, lusin_compact_set
from .corpus import CorpusFunction, corpus_function, corpus_names
from .errors import (BoundViolated, DepthExceeded, MalformedShape,
                     NotPiecewise, OutOfUniverse, PreconditionUncertified,
                     ToleranceUnreachable, TubeInfeasible)
from .gauge import (GaugeBuildParams, NullTube, build_gauge, build_null_tubes,
                    shell_budget, shell_index, soundness_sweep)
from .geometry import Box, Gauge, NormKind, norm_ratio
from .measure import RadonMeasure, annulus_measure, ball_volume, measure_box
from .partition import (SieveParams, TaggedFamily, dyadic_sieve,
                        random_dyadic_partition, refine_family, verify_family)
from .riemann import (ApproximationReport, CorollaryReport, verify_corollary,
                      verify_theorem)

__version__ = "0.1.0"

__all__ = [
    "ApproximationReport", "BoundViolated", "Box", "CompactContinuitySet",
    "CorollaryReport", "CorpusFunction", "DepthExceeded", "Gauge",
    "GaugeBuildParams", "MalformedShape", "NormKind", "NotPiecewise",
    "NullTube", "OutOfUniverse", "PreconditionUncertified", "RadonMeasure",
    "SieveParams", "TaggedFamily", "ToleranceUnreachable", "TubeInfeasible",
    "annulus_measure", "ball_volume", "build_gauge", "build_null_tubes",
    "corpus_function", "corpus_names", "dyadic_sieve", "lusin_compact_set",
    "measure_box", "norm_ratio", "random_dyadic_partition",
    "refine_family", "shell_budget", "shell_index", "soundness_sweep",
    "verify_corollary", "verify_family", "verify_theorem",
]

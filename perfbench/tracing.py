"""Span tracing of morsegauge from outside the package.

The tracer wraps the public functions of each module and re-binds every
name that points at them in every loaded ``morsegauge`` module (so
``riemann.dyadic_sieve`` and ``cli.verify_theorem`` are traced too).  It
also patches the kernel methods of the corpus classes and
``Gauge.delta_batch``.  Spans stay in memory until the run ends.

The span stack is shared by all threads.  That is sound only while one
thread runs at a time, which the benchmark ensures by pinning
``MORSE_GAUGE_THREADS=1``: the package's pools then have one worker and the
submitting thread blocks on it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "morsegauge"


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a)
    return 1 if len(shape) < 2 else int(shape[0])


def _arg_rows(index):
    return lambda args, kwargs, result: _rows(args[index])


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _family_len(args, kwargs, result) -> int:
    return len(args[0])


def _sweep_probes(args, kwargs, result) -> int:
    return int(result.probes)


# (module, function, span name, count).  The three exact-measure functions
# share one span name; nested calls of one name collapse into one span.
FUNCTIONS = (
    ("partition", "dyadic_sieve", "partition.dyadic_sieve", _result_len),
    ("partition", "refine_family", "partition.refine_family", _result_len),
    ("partition", "verify_family", "partition.verify_family", _family_len),
    ("partition", "random_dyadic_partition",
     "partition.random_dyadic_partition", _result_len),
    ("riemann", "verify_theorem", "riemann.verify_theorem", None),
    ("riemann", "build_report", "riemann.build_report", _family_len),
    ("riemann", "verify_corollary", "riemann.verify_corollary", None),
    ("gauge", "build_gauge", "gauge.build_gauge", None),
    ("gauge", "soundness_sweep", "gauge.soundness_sweep", _sweep_probes),
    ("measure", "measure_box_batch", "measure.measure_box_batch",
     _arg_rows(1)),
    ("measure", "measure_box", "measure.exact", None),
    ("measure", "measure_box_exact", "measure.exact", None),
    ("measure", "measure_box_clipped", "measure.exact", None),
    ("analysis", "lusin_compact_set", "analysis.lusin_compact_set", None),
    ("cli", "main", "cli.main", None),
)

# Methods of every class in the corpus registry (and its corpus bases);
# counts are rows of the first array argument (points or boxes).
CORPUS_METHODS = ("eval_batch", "certified_halfside_batch", "integral_batch",
                  "dev_integral_for_tags")

QUADRATURE = "quadrature.adaptive_box_quadrature"


class Span:
    __slots__ = ("name", "parent", "start", "end", "count", "hit")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.count = 0
        self.hit = False


class _CountingCallback:
    """Integrand callback that counts the rows it is asked to evaluate."""

    def __init__(self, fn):
        self.fn = fn
        self.rows = 0

    def __call__(self, P):
        self.rows += _rows(P)
        return self.fn(P)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> Span | None:
        """Open a span; None when the innermost open span has this name."""
        if self._open and self.spans[self._open[-1]].name == name:
            return None
        span = Span(name, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def finish(self, span: Span | None) -> None:
        if span is not None:
            span.end = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if span is not None and count is not None:
                span.count = count(args, kwargs, result)
            return result
        return traced

    def wrap_quadrature(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            callback = _CountingCallback(bound.arguments["eval_batch"])
            bound.arguments["eval_batch"] = callback
            span = self.begin(QUADRATURE)
            try:
                value, err = fn(*bound.args, **bound.kwargs)
            finally:
                self.finish(span)
            if span is not None:
                span.count = callback.rows
                span.hit = err > bound.arguments["tol"]
            return value, err
        return traced

    # -- patching ------------------------------------------------------------

    def _rebind(self, original, wrapped) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def _patch_method(self, cls, attr: str, name: str, count) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, count))

    def install(self) -> None:
        """Wrap every traced entry point; undo with uninstall()."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}")
                for m in ("analysis", "cli", "corpus", "gauge", "geometry",
                          "measure", "partition", "quadrature", "riemann")}
        for modname, attr, name, count in FUNCTIONS:
            original = getattr(mods[modname], attr)
            self._rebind(original, self.wrap(name, original, count))
        quad = mods["quadrature"].adaptive_box_quadrature
        self._rebind(quad, self.wrap_quadrature(quad))

        self._patch_method(mods["geometry"].Gauge, "delta_batch",
                           "geometry.delta_batch", _arg_rows(1))
        corpus = mods["corpus"]
        classes = {base for cls in corpus._REGISTRY.values()
                   for base in cls.__mro__
                   if base.__module__ == corpus.__name__}
        for cls in sorted(classes, key=lambda c: c.__qualname__):
            for attr in CORPUS_METHODS:
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, f"corpus.{attr}",
                                       _arg_rows(1))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def to_records(self) -> list[list]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [[s.name, s.start - t0, s.end - t0, s.parent, s.count, s.hit]
                for s in self.spans]


def layer_metrics(tracer: Tracer, names, passes: int,
                  traced_wall: float) -> dict[str, float]:
    """Per-pass per-layer figures from the spans of ``passes`` traced passes.

    A name is ``<span>.<statistic>`` or ``<layer>.self_share``:
    ``s`` is time inside the span, ``self_s`` that time minus the time of
    its child spans, ``calls`` the number of spans, ``cells``/``points``/
    ``boxes``/``probes`` the span's work count, ``ns_per_<unit>`` self time
    per counted unit, and ``budget_hit_frac`` the share of calls that
    returned an error above their tolerance.  ``self_share`` is a layer's
    self time over the traced wall time.  ``traced_wall`` is the summed
    wall time of the traced passes.
    """
    totals: dict[str, list[float]] = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        t = totals.setdefault(span.name, [0.0, 0.0, 0, 0, 0])
        t[0] += span.end - span.start
        t[1] += self_s
        t[2] += 1
        t[3] += span.count
        t[4] += span.hit
    out = {}
    for name in names:
        prefix, stat = name.rsplit(".", 1)
        if stat == "self_share":
            own = sum(t[1] for span, t in totals.items()
                      if span.startswith(prefix + "."))
            out[name] = own / traced_wall
            continue
        s, self_s, calls, count, hits = totals.get(prefix, (0.0, 0.0, 0, 0, 0))
        if stat == "s":
            out[name] = s / passes
        elif stat == "self_s":
            out[name] = self_s / passes
        elif stat == "calls":
            out[name] = calls / passes
        elif stat in ("cells", "points", "boxes", "probes"):
            out[name] = count / passes
        elif stat.startswith("ns_per_"):
            out[name] = 1e9 * self_s / count if count else 0.0
        elif stat == "budget_hit_frac":
            out[name] = hits / calls if calls else 0.0
        else:
            raise ValueError(f"unknown per-layer statistic in {name!r}")
    return out


def root_time(tracer: Tracer) -> float:
    """Time covered by spans that have no traced parent."""
    return sum(s.end - s.start for s in tracer.spans if s.parent < 0)

"""Command line front end.

Outputs are byte-reproducible: JSON is dumped with sorted keys, CSV floats
go through '%.17g', rows follow the (fn, eps, trial) order of the request,
and nothing records wall-clock time.  Each command returns its report.json
payload, its CSV as (name, header, rows) and its stdout lines; main writes
both files before it prints a line.  Exit codes: 0 on success, 2 when a
certified bound or family check fails, 3 when the input is invalid or the
request is infeasible or unsupported as posed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from .analysis import lusin_compact_set
from .corpus import corpus_function, corpus_names
from .errors import (BoundViolated, DepthExceeded, NotPiecewise,
                     PreconditionUncertified, ToleranceUnreachable,
                     TubeInfeasible)
from .gauge import GaugeBuildParams, build_gauge
from .geometry import NormKind, cube_reach
from .measure import RadonMeasure
from .partition import sabotage_offcenter, sabotage_overlap
from .riemann import verify_corollary, verify_theorem

_LAMBDA_CHOICES = ("1", "sqrt2", "sqrt3")
# each sabotage mode's (gauge hook, family hook)
_SABOTAGE = {
    "inflate-delta": (lambda g: g.scaled(2.0), None),
    "overlap-cells": (None, sabotage_overlap),
    "offcenter-tags": (None, sabotage_offcenter),
}
# most points (grid ** dim) lebesgue-map tabulates; its memory grows with them
_MAX_MAP_POINTS = 1 << 20
# lebesgue-map rows turned into Python floats at a time
_MAP_CHUNK_ROWS = 4096


def _fmt(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    """Write each row as it comes, so a generator keeps memory flat."""
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _resolve_norms(args, dim: int) -> tuple[NormKind, float]:
    dn = NormKind.INF if args.lam == "1" else NormKind.TWO
    return dn, cube_reach(dn, dim)


def _load_function(args):
    ynorm = {"1": NormKind.ONE, "2": NormKind.TWO,
             "inf": NormKind.INF}[args.ynorm]
    return corpus_function(args.fn, y_norm=ynorm)


def cmd_run_theorem(args, f, mu):
    dn, lam = _resolve_norms(args, f.dim_in)
    jobs = list(args.eps)
    gauge_hook, family_hook = _SABOTAGE.get(args.sabotage, (None, None))
    results = [verify_theorem(f, mu, e, trials=args.trials, seed=args.seed,
                              domain_norm=dn, max_depth=args.max_depth,
                              eta=args.eta, _gauge_hook=gauge_hook,
                              _family_hook=family_hook)
               for e in jobs]

    rows, lines = [], []
    payload = {"command": "run-theorem", "fn": f.name,
               "ynorm": args.ynorm, "lambda": lam,
               "eps": jobs, "trials": args.trials, "seed": args.seed,
               "sabotage": args.sabotage, "results": []}
    for eps, reports in zip(jobs, results):
        for r in reports:
            payload["results"].append(r.to_dict())
            rows.append([f.name, args.ynorm, lam, eps, r.trial, r.cell_count,
                         r.residual_measure, r.l1_partition,
                         r.l1_partition_error, r.residual_abs, r.l1_total,
                         r.local_error_sum, r.truncation_error,
                         r.truncation_index, int(r.ok())])
        lines.append(f"{f.name} eps={_fmt(eps)}: {len(reports)} trials ok, "
                     f"worst l1 {_fmt(max(r.l1_total for r in reports))}")
    header = ["fn", "ynorm", "lambda", "eps", "trial", "cells",
              "residual_measure", "l1_partition", "l1_partition_error",
              "residual_abs", "l1_total", "local_error_sum",
              "truncation_error", "truncation_index", "ok"]
    return payload, ("summary.csv", header, rows), lines


def cmd_run_corollary(args, f, mu):
    dn, lam = _resolve_norms(args, f.dim_in)
    jobs = list(args.eps)
    results = [verify_corollary(f, mu, e, seed=args.seed, domain_norm=dn)
               for e in jobs]

    rows, lines = [], []
    payload = {"command": "run-corollary", "fn": f.name,
               "ynorm": args.ynorm, "lambda": lam, "eps": jobs,
               "seed": args.seed, "results": []}
    for eps, rep in zip(jobs, results):
        payload["results"].append(rep.to_dict())
        rows.append([f.name, eps, rep.riemann_gap, rep.abs_total,
                     rep.worst_family_mass, rep.witness_mass,
                     rep.reconstruction_gap, int(rep.ok())])
        lines.append(f"{f.name} eps={_fmt(eps)}: corollary ok, "
                     f"riemann gap {_fmt(rep.riemann_gap)}")
    header = ["fn", "eps", "riemann_gap", "abs_total", "worst_family_mass",
              "witness_mass", "reconstruction_gap", "ok"]
    return payload, ("summary.csv", header, rows), lines


def cmd_run_lusin(args, f, mu):
    rows, lines = [], []
    payload = {"command": "run-lusin", "fn": f.name, "eps": list(args.eps),
               "results": []}
    for eps in args.eps:
        K = lusin_compact_set(f, f.universe, eps, mu)
        payload["results"].append({
            "eps": eps,
            "pieces": [[list(b.lo), list(b.hi)] for b in K.pieces],
            "separation": K.separation,
            "omitted_measure": K.omitted_measure})
        rows.append([f.name, eps, len(K.pieces), K.separation,
                     K.omitted_measure])
        lines.append(f"{f.name} eps={_fmt(eps)}: {len(K.pieces)} pieces, "
                     f"omitted {_fmt(K.omitted_measure)}")
    header = ["fn", "eps", "pieces", "separation", "omitted_measure"]
    return payload, ("summary.csv", header, rows), lines


def cmd_lebesgue_map(args, f, mu):
    dn, lam = _resolve_norms(args, f.dim_in)
    eps = args.eps[0]
    g = build_gauge(f, mu, GaugeBuildParams(eps=eps, domain_norm=dn))
    n = args.grid
    axes = [np.linspace(lo, hi, n, endpoint=False) + (hi - lo) / (2 * n)
            for lo, hi in zip(f.universe.lo, f.universe.hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=-1)
    deltas = g.delta_batch(X)

    header = [f"x{k}" for k in range(f.dim_in)] + ["delta"]
    rows = (row for i in range(0, len(X), _MAP_CHUNK_ROWS)
            for row in np.column_stack((X[i:i + _MAP_CHUNK_ROWS],
                                        deltas[i:i + _MAP_CHUNK_ROWS])).tolist())
    payload = {"command": "lebesgue-map", "fn": f.name, "eps": eps,
               "grid": n, "lambda": lam,
               "delta_min": float(deltas.min()),
               "delta_max": float(deltas.max()),
               "provenance": g.provenance}
    lines = [f"{f.name} eps={_fmt(eps)}: delta in "
             f"[{_fmt(float(deltas.min()))}, {_fmt(float(deltas.max()))}]"]
    return payload, ("lebesgue_map.csv", header, rows), lines


class _UsageError(Exception):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the code of a violated bound;
    # main reports it as invalid input instead, with exit 3
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="morsegauge",
        description="Gauge-fine partitions and certified Riemann sums for "
                    "a corpus of vector-valued integrands.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, sabotage=False):
        p.add_argument("--fn", required=True, choices=corpus_names())
        p.add_argument("--ynorm", choices=("1", "2", "inf"), default="2")
        p.add_argument("--eps", type=float, action="append",
                       help="target accuracy; repeatable")
        p.add_argument("--lambda", dest="lam", choices=_LAMBDA_CHOICES,
                       default=None,
                       help="regularity constant of the cover family")
        p.add_argument("--eta", type=float, default=None,
                       help="residual measure target (default from eps)")
        p.add_argument("--max-depth", type=int, default=None)
        p.add_argument("--trials", type=int, default=5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out")
        if sabotage:
            p.add_argument("--sabotage", choices=tuple(_SABOTAGE),
                           default=None)

    pt = sub.add_parser("run-theorem", help="certify the approximation chain")
    common(pt, sabotage=True)
    pt.set_defaults(func=cmd_run_theorem)

    pc = sub.add_parser("run-corollary", help="certify the set-function form")
    common(pc)
    pc.set_defaults(func=cmd_run_corollary)

    pl = sub.add_parser("run-lusin", help="compact near-continuity set")
    common(pl)
    pl.set_defaults(func=cmd_run_lusin)

    pm = sub.add_parser("lebesgue-map", help="tabulate the gauge on a grid")
    common(pm)
    pm.add_argument("--grid", type=int, default=64)
    pm.set_defaults(func=cmd_lebesgue_map)
    return ap


def _input_error(args, dim: int) -> str | None:
    """Why the parsed arguments are out of range for a dim-d integrand, or
    None when they are not."""
    for eps in args.eps:
        if not (math.isfinite(eps) and eps > 0):
            return f"--eps must be finite and positive, got {eps!r}"
        if eps < sys.float_info.min:
            # eps / 4 and the budgets below it would underflow to zero
            return (f"--eps must be at least the smallest normal float "
                    f"{sys.float_info.min!r}, got {eps!r}")
    if args.eta is not None and not (math.isfinite(args.eta) and args.eta > 0):
        return f"--eta must be finite and positive, got {args.eta!r}"
    if args.max_depth is not None and args.max_depth < 0:
        return f"--max-depth must be nonnegative, got {args.max_depth}"
    if args.trials < 1:
        return f"--trials must be at least 1, got {args.trials}"
    if args.seed < 0:
        return f"--seed must be nonnegative, got {args.seed}"
    if args.command == "lebesgue-map" and len(args.eps) > 1:
        return f"lebesgue-map takes one --eps, got {len(args.eps)}"
    grid = getattr(args, "grid", 1)
    if grid < 1:
        return f"--grid must be at least 1, got {grid}"
    if grid ** dim > _MAX_MAP_POINTS:
        return (f"--grid {grid} gives {grid ** dim} points in {dim}-d, "
                f"above the limit of {_MAX_MAP_POINTS}")
    need = {"sqrt2": 2, "sqrt3": 3}.get(args.lam, dim)
    if need != dim:
        return f"--lambda {args.lam} needs a {need}-d integrand, got {dim}-d"
    return None


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"INVALID INPUT: {e}", file=sys.stderr)
        return 3
    if not args.eps:
        args.eps = [0.1]
    f = _load_function(args)
    problem = _input_error(args, f.dim_in)
    if problem is not None:
        print(f"INVALID INPUT: {problem}", file=sys.stderr)
        return 3
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload, (name, header, rows), lines = args.func(
            args, f, RadonMeasure.unit(f.universe))
        (out / "report.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
        _write_csv(out / name, header, rows)
    except OSError as e:
        print(f"INVALID INPUT: --out {args.out}: {e}", file=sys.stderr)
        return 3
    except BoundViolated as e:
        print(f"BOUND VIOLATED: {e}", file=sys.stderr)
        return 2
    except (DepthExceeded, ToleranceUnreachable, TubeInfeasible,
            NotPiecewise, PreconditionUncertified) as e:
        print(f"UNREACHABLE: {e}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

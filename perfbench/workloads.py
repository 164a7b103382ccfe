"""The three benchmark workloads and the checks on their outputs.

A workload builds its inputs once (``setup``) and then yields the
operations of one pass for a given seed.  Each operation is timed on its
own; its check runs outside the timed region, returns the work the
operation did (cells, probes or commands) and raises ``CheckFailed`` on a
wrong output.

Operations look the package functions up on their modules at call time, so
the tracer's wrappers are used whenever they are installed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Seed-independent counts of the spike1 @ eps 0.01 family: the sieve output
# and each trial that refines 15 % of it.
SPIKE_BASE_CELLS = 3_558_174
SPIKE_REFINED_CELLS = 4_091_900
SPIKE_TRIALS = 5
# 10,000 probes at two scales plus 128 quadrature cross-checks.
SWEEP_PROBES = 10_000
SWEEP_PROBES_REPORTED = 20_128
SABOTAGE_MODES = ("inflate-delta", "overlap-cells", "offcenter-tags")


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    check: Callable[[object], int]


def _flags_ok(flags: dict, where: str) -> None:
    bad = sorted(k for k, v in flags.items() if not v)
    require(not bad, f"{where}: pass flags false: {', '.join(bad)}")


# --------------------------------------------------------------------------
# spike-fine: one large certified family

class SpikeFine:
    name = "spike-fine"
    work_unit = "cells"

    def setup(self, work_dir: Path):
        from morsegauge import corpus, measure, riemann
        f = corpus.corpus_function("spike1")
        return {"riemann": riemann, "f": f,
                "mu": measure.RadonMeasure.unit(f.universe)}

    def operations(self, st, seed: int):
        def run():
            return st["riemann"].verify_theorem(
                st["f"], st["mu"], 0.01, trials=SPIKE_TRIALS, seed=seed)

        def check(reports) -> int:
            require(len(reports) == SPIKE_TRIALS,
                    f"{len(reports)} reports, expected {SPIKE_TRIALS}")
            for r in reports:
                _flags_ok(r.pass_flags, f"trial {r.trial}")
                want = SPIKE_BASE_CELLS if r.trial == 0 else SPIKE_REFINED_CELLS
                require(r.cell_count == want,
                        f"trial {r.trial}: {r.cell_count} cells, "
                        f"expected {want}")
            return sum(r.cell_count for r in reports)

        yield Operation("verify_theorem spike1 eps=0.01", run, check)


# --------------------------------------------------------------------------
# sweep-2d: gauge soundness sweeps, dominated by the quadrature cross-check

class Sweep2D:
    name = "sweep-2d"
    work_unit = "probes"
    FUNCTIONS = ("checker2d", "lipschitz2d")

    def setup(self, work_dir: Path):
        from morsegauge import corpus, gauge, measure
        cases = []
        for fn in self.FUNCTIONS:
            f = corpus.corpus_function(fn)
            cases.append((f, measure.RadonMeasure.unit(f.universe),
                          gauge.GaugeBuildParams(eps=0.01)))
        return {"gauge": gauge, "cases": cases}

    def operations(self, st, seed: int):
        gauge = st["gauge"]
        for f, mu, p in st["cases"]:
            def run(f=f, mu=mu, p=p):
                g = gauge.build_gauge(f, mu, p)
                return gauge.soundness_sweep(f, g, mu, p,
                                             n_probes=SWEEP_PROBES,
                                             seed=seed)

            def check(rep) -> int:
                require(rep.probes == SWEEP_PROBES_REPORTED,
                        f"{rep.fn}: {rep.probes} probes, "
                        f"expected {SWEEP_PROBES_REPORTED}")
                require(not rep.violations and rep.ok(),
                        f"{rep.fn}: {len(rep.violations)} violations")
                return rep.probes

            yield Operation(f"sweep {f.name} eps=0.01", run, check)


# --------------------------------------------------------------------------
# cli-small: many small CLI commands, including the falsification canaries

def _read_json(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def _check_theorem(out: Path, eps: list[float], trials: int) -> None:
    results = _read_json(out)["results"]
    require(len(results) == len(eps) * trials,
            f"{len(results)} results, expected {len(eps) * trials}")
    for r in results:
        _flags_ok(r["pass_flags"], f"eps {r['eps']} trial {r['trial']}")
    with (out / "summary.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == len(results) and all(r["ok"] == "1" for r in rows),
            "summary.csv has a row that is not ok")


def _check_corollary(out: Path, eps: list[float], trials: int) -> None:
    results = _read_json(out)["results"]
    require(len(results) == len(eps), f"{len(results)} corollary results")
    for r in results:
        _flags_ok(r["pass_flags"], f"corollary eps {r['eps']}")


def _check_lusin(out: Path, eps: list[float], trials: int) -> None:
    results = _read_json(out)["results"]
    require(len(results) == len(eps), f"{len(results)} lusin results")
    for r, e in zip(results, eps):
        require(bool(r["pieces"]), f"eps {e}: no pieces")
        require(0.0 <= r["omitted_measure"] < e,
                f"eps {e}: omitted {r['omitted_measure']} not below eps")
        require(r["separation"] > 0.0, f"eps {e}: separation not positive")


def _check_map(out: Path, eps: list[float], trials: int) -> None:
    report = _read_json(out)
    require(0.0 < report["delta_min"] <= report["delta_max"] <= 1.0,
            f"gauge range [{report['delta_min']}, {report['delta_max']}] "
            "outside (0, 1]")
    with (out / "lebesgue_map.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    dim = len(rows[0]) - 1
    require(len(rows) - 1 == report["grid"] ** dim,
            f"{len(rows) - 1} map rows, expected {report['grid'] ** dim}")


def _check_sabotage(code: int, stderr: str) -> None:
    require(code == 2 and "BOUND VIOLATED" in stderr,
            f"sabotage exited {code} without BOUND VIOLATED")


class CliSmall:
    name = "cli-small"
    work_unit = "commands"
    TRIALS = 5

    @staticmethod
    def _commands():
        """(command, fn, eps list, extra args, output check or None)."""
        from morsegauge.corpus import MANDATORY
        cmds = [("run-theorem", fn, [0.1, 0.01], [], _check_theorem)
                for fn in ("constant", "linear1", "step2")]
        cmds.append(("run-theorem", "spike1", [0.1], [], _check_theorem))
        cmds += [("run-corollary", fn, [0.1], [], _check_corollary)
                 for fn in MANDATORY]
        cmds += [("run-lusin", fn, [0.1, 0.01], [], _check_lusin)
                 for fn in ("step2", "checker2d")]
        cmds.append(("lebesgue-map", "linear1", [0.1], [], _check_map))
        # falsification canaries: each must be caught and exit 2
        cmds += [("run-theorem", "linear1", [0.1], ["--sabotage", mode], None)
                 for mode in SABOTAGE_MODES]
        return cmds

    def setup(self, work_dir: Path):
        from morsegauge import cli
        jobs = []
        for k, (cmd, fn, eps, extra, check) in enumerate(self._commands()):
            out = work_dir / "cli" / f"{k:02d}-{cmd}-{fn}"
            out.mkdir(parents=True, exist_ok=True)
            argv = [cmd, "--fn", fn, "--trials", str(self.TRIALS),
                    "--out", str(out)]
            for e in eps:
                argv += ["--eps", repr(e)]
            label = " ".join([cmd, fn, *(f"eps={e}" for e in eps), *extra])
            jobs.append((label, argv + extra, out, eps, check))
        return {"cli": cli, "jobs": jobs}

    def operations(self, st, seed: int):
        cli = st["cli"]
        for label, argv, out, eps, check_output in st["jobs"]:
            def run(argv=argv + ["--seed", str(seed)]):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli.main(list(argv))
                return code, stderr.getvalue()

            def check(result, out=out, eps=eps, check_output=check_output):
                code, stderr = result
                if check_output is None:
                    _check_sabotage(code, stderr)
                else:
                    require(code == 0, f"exit code {code}: {stderr.strip()}")
                    check_output(out, eps, self.TRIALS)
                return 1

            yield Operation(label, run, check)


WORKLOADS = {w.name: w for w in (SpikeFine(), Sweep2D(), CliSmall())}

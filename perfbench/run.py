"""Benchmark of the morsegauge certify pipeline.

    python3 perfbench/run.py --workload spike-fine --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload runs as a closed loop: one
caller, one operation at a time, in this one process.  Passes repeat until
``--seconds`` have gone by (at least one pass).  Every operation's output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics, from passes that alternate untraced and traced.
The exit code is 1 when any check failed and 2 when the package sources are
missing.  Run records and span traces go to ``.perfbench/`` at the root.
"""

from __future__ import annotations

import os

# Pinned before numpy can be imported, identically for every commit measured.
PINNED_ENV = {
    "MORSE_GAUGE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 5

from tracing import Tracer, layer_metrics, root_time  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# Runs in a fresh interpreter: import morsegauge and build the inputs.
SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[2], sys.argv[3]]
from pathlib import Path
import workloads
t0 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].setup(Path(sys.argv[4]))
print(repr(time.perf_counter() - t0))
"""


def setup_time(workload: str, work_dir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, workload, str(SRC),
         str(BENCH_DIR), str(work_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.work = 0
        self.attempted = 0
        self.failures: list[str] = []


def run_pass(wl, state, seed: int, traced: bool,
             tracer: Tracer | None) -> Pass:
    p = Pass(traced)
    if traced:
        tracer.install()
    try:
        for op in wl.operations(state, seed):
            p.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as e:  # a raising operation is a failed one
                p.wall += time.perf_counter() - t0
                p.failures.append(f"{op.label}: raised {e!r}")
                continue
            p.wall += time.perf_counter() - t0
            try:
                p.work += op.check(result)
            except CheckFailed as e:
                p.failures.append(f"{op.label}: {e}")
    finally:
        if traced:
            tracer.uninstall()
    return p


def run_passes(wl, state, seed: int, seconds: float,
               tracer: Tracer | None) -> list[Pass]:
    """Passes until `seconds` have gone by; with a tracer, untraced and
    traced passes alternate and each kind runs at least once.

    Pass k runs with seed ``seed * 1000 + k`` so that a run averages over
    several inputs; a traced pass reuses the seed of the untraced pass
    before it, so the two differ only by the tracing.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        pass_seed = seed * 1000 + (k // 2 if tracer is not None else k)
        passes.append(run_pass(wl, state, pass_seed, traced, tracer))
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start >= seconds:
            return passes


def environment(seed: int) -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "machine": platform.machine(),
        "seed": seed,
        "env": {k: os.environ[k] for k in PINNED_ENV},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "morsegauge" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"no package sources under {SRC} (or no {spec_path.name}); "
              "run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work_dir = WORK / wl.name
    state = wl.setup(work_dir)
    setups = [] if args.trace else [
        setup_time(wl.name, work_dir) for _ in range(SETUP_SAMPLES)]

    tracer = Tracer() if args.trace else None
    passes = run_passes(wl, state, args.seed, args.seconds, tracer)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    untraced = [p for p in passes if not p.traced]
    wall = statistics.median(p.wall for p in untraced)
    rate = statistics.median(p.work / p.wall for p in untraced)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lines = [f"workload {wl.name} seed {args.seed}: {len(passes)} passes, "
             f"{attempted} operations, {len(failures)} failed"]
    if args.trace:
        traced = [p for p in passes if p.traced]
        traced_wall = sum(p.wall for p in traced)
        kind = "per_layer"
        names = [m["name"] for m in spec[kind]]
        layer_names = [n for n in names if not n.startswith("trace.")]
        values = layer_metrics(tracer, layer_names, len(traced), traced_wall)
        twall = statistics.median(p.wall for p in traced)
        values.update({
            "trace.wall_s": twall,
            "trace.untraced_wall_s": wall,
            "trace.overhead_s": twall - wall,
            "trace.span_coverage": root_time(tracer) / traced_wall,
        })
        lines.append(f"  traced wall_s {twall:.4f} s (median of {len(traced)}"
                     f"), untraced {wall:.4f} s (median of {len(untraced)})")
        lines.append(f"  span coverage {values['trace.span_coverage']:.4f}")
        for n in sorted(n for n in names if n.endswith(".self_share")):
            lines.append(f"  {n:<40} {values[n]:.4f} of traced wall")
        for n in sorted(n for n in layer_names if n.endswith(".s")):
            share = values[n] * len(traced) / traced_wall
            lines.append(f"  {n:<40} {share:.4f} of traced wall (inclusive)")
    else:
        kind = "end_to_end"
        values = {"wall_s": wall, "setup_s": statistics.median(setups),
                  "peak_rss_mb": rss_mb, "work_per_s": rate}
        lines += [
            f"  wall_s        {wall:.4f} s (median of {len(untraced)} passes)",
            f"  setup_s       {values['setup_s']:.4f} s "
            f"(median of {len(setups)} fresh interpreters)",
            f"  peak_rss_mb   {rss_mb:.1f} MB",
            f"  fail_frac     {len(failures) / attempted:.4f} "
            f"({len(failures)}/{attempted})",
            f"  {wl.work_unit}_per_s {rate:.1f} {wl.work_unit}/s "
            "(reported as work_per_s)",
        ]
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           f"disagree with BENCHMARK.json {kind}")
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    env = environment(args.seed)
    lines += [f"  failed: {f}" for f in failures[:20]]
    lines.append(f"env: {json.dumps(env, sort_keys=True)}")
    print("\n".join(lines))

    record = {"workload": wl.name, "trace": args.trace, "env": env,
              "seconds": args.seconds, "setup_samples": setups,
              "passes": [{"traced": p.traced, "wall_s": p.wall,
                          "work": p.work, "attempted": p.attempted,
                          "failures": p.failures} for p in passes],
              "metrics": metrics}
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (WORK / f"spans-{stem}.json").write_text(
            json.dumps(tracer.to_records()))

    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

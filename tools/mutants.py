"""Mutation gate: each mutant below loosens or breaks one check of the
verifier, and the tests named with it must fail on it.

For each mutant the script copies src/, tests/ and pyproject.toml to a
temporary directory and runs the mutant's tests there with -x, first as
they are, where they must pass, then with the mutant's old text (which
must occur exactly once in its file) replaced by its new text, where they
must fail.  It exits 1 if any mutant survives, if its tests fail or are
missing without it, or if its old text no longer occurs exactly once, so
the list cannot rot silently.  Run it from anywhere:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RIEMANN = "src/morsegauge/riemann.py"
PARTITION = "src/morsegauge/partition.py"
QUADRATURE = "src/morsegauge/quadrature.py"
FLAG_EDGES = "tests/test_riemann.py::test_report_flag_flips_one_ulp_past_its_edge"
MASS_FLAGS = "tests/test_riemann.py::test_corollary_mass_flags_flip_just_past_their_edges"

# name: (file, old text, new text, tests)
MUTANTS = {
    "l1-partition-2eps": (
        RIEMANN, '"l1_partition_lt_eps": l1p < eps,',
        '"l1_partition_lt_eps": l1p < 2.0 * eps,', [FLAG_EDGES + "[l1p]"]),
    "local-10eps": (
        RIEMANN, '"local_error_lt_eps": local < eps,',
        '"local_error_lt_eps": local < 10.0 * eps,', [FLAG_EDGES + "[local]"]),
    "truncation-30eps": (
        RIEMANN, '"truncation_lt_3eps": trunc < 3.0 * eps,',
        '"truncation_lt_3eps": trunc < 30.0 * eps,',
        [FLAG_EDGES + "[truncation]"]),
    "balance-1e-3": (
        PARTITION, "tol = 1e-9 * max(1.0, abs(total))",
        "tol = 1e-3 * max(1.0, abs(total))",
        ["tests/test_partition.py::test_verdict_balance_flips_just_past_its_tolerance"]),
    "residual-2eta": (
        PARTITION, "if self.residual > self.eta * (1 + 1e-12) + 1e-15:",
        "if self.residual > 2 * self.eta:",
        ["tests/test_partition.py::test_verdict_residual_flips_just_past_eta"]),
    "inner-ball-1e-3": (
        PARTITION, "inner > 0.5 * (his - los).min(axis=1) + 1e-15,",
        "inner > 0.5 * (his - los).min(axis=1) + 1e-3,",
        ["tests/test_partition.py::test_tag_on_the_inner_ball_radius_passes"]),
    "mass-bounded-1e-3": (
        RIEMANN, '"mass_bounded": worst <= abs_total + 1e-9,',
        '"mass_bounded": worst <= abs_total + 1e-3,', [MASS_FLAGS]),
    "witness-5eps": (
        RIEMANN, '"witness_near_total": witness_mass >= abs_total - 0.5 * eps,',
        '"witness_near_total": witness_mass >= abs_total - 5.0 * eps,',
        [MASS_FLAGS]),
    "quadrature-ties-newest": (
        QUADRATURE, "order = np.lexsort((-pool[:, -1], owner))",
        "order = np.lexsort((-np.arange(len(pool)), -pool[:, -1], owner))",
        ["tests/test_quadrature.py"]),
    "l1-partition-no-err": (
        RIEMANN, "    l1p = part + part_err\n", "    l1p = part\n",
        [FLAG_EDGES + "[l1p]"]),
    "strict-fineness": (
        PARTITION,
        "if escapes.any() or off_center.any() or np.any(circ > delta):",
        "if escapes.any() or off_center.any() or np.any(circ >= delta):",
        ["tests/test_partition.py::test_check_cells_fineness_is_non_strict"]),
    "sieve-limit-at-key-cap": (
        PARTITION, "limit = min(max_depth, _key_depth_cap(dim) - 1)",
        "limit = min(max_depth, _key_depth_cap(dim))",
        ["tests/test_sieve_runs.py::test_key_cap_stops_the_run_sieve_as_the_cell_sieve"]),
    "total-no-residual": (
        RIEMANN, "total = part + part_err + residual_abs",
        "total = part + part_err", [FLAG_EDGES + "[total]"]),
    "skip-refined-check": (
        RIEMANN,
        "                if cells is not None:\n                    trial.check.add(",
        "                if False:\n                    trial.check.add(",
        ["tests/test_riemann.py::test_failing_child_two_refined_trials_share"]),
    "balance-unscaled": (
        PARTITION, "tol = 1e-9 * max(1.0, abs(total))", "tol = 1e-9",
        ["tests/test_partition.py::test_verdict_balance_flips_just_past_its_tolerance"]),
    "containment-1e-9": (
        PARTITION, "np.any(los < lo - 1e-12, axis=1)",
        "np.any(los < lo - 1e-9, axis=1)",
        ["tests/test_partition.py::test_check_cells_containment_slack"]),
    "failing-batch-dropped": (
        PARTITION, "passed = passed and not _cell_checks(",
        "passed = not _cell_checks(",
        ["tests/test_partition.py::test_check_cells_lets_passing_batches_go"]),
    "no-overlap-check-at-seam": (
        PARTITION, "or (self.prev_end is not None and starts[0] < self.prev_end)",
        "or False",
        ["tests/test_partition.py::test_verifier_rejects_keys_out_of_order"]),
    "eligibility-shortcut-inverted": (
        RIEMANN,
        "if not self.total - self.carry[0] <= self.threshold + 1e-15:",
        "if self.total - self.carry[0] <= self.threshold + 1e-15:",
        ["tests/test_riemann.py::test_truncation_profile_is_one_cumsum_of_the_family"]),
}


def outcome(tests: list[str], mutant=None) -> tuple[int, float]:
    """pytest's exit code for the tests on a copy of the tree with the
    mutant (file, old text, new text) applied, or none, and its seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, Path(tmp, sub),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if mutant is not None:
            path, old, new = mutant
            target = Path(tmp, path)
            target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests], cwd=tmp, env=env, capture_output=True).returncode
        return code, time.perf_counter() - start


def verdict(name: str, baseline: dict) -> str:
    """killed, or why the mutant counts as a survivor."""
    path, old, new, tests = MUTANTS[name]
    n = (ROOT / path).read_text().count(old)
    if n != 1:
        return f"old text occurs {n} times in {path}"
    key = tuple(tests)
    if key not in baseline:
        baseline[key] = outcome(tests)[0]
    if baseline[key] != 0:
        # 1: a test fails without the mutant; 4 or 5: a test is missing
        return f"its tests exit {baseline[key]} without it"
    code, took = outcome(tests, (path, old, new))
    if code == 1:
        return f"killed ({took:.1f} s)"
    return f"its tests exit {code} with it"


def main() -> int:
    baseline, survivors = {}, []
    for name in MUTANTS:
        why = verdict(name, baseline)
        if not why.startswith("killed"):
            survivors.append(name)
        print(f"{name}: {why}" if why.startswith("killed")
              else f"SURVIVED {name}: {why}", flush=True)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: "
              f"{', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

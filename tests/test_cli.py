import json
import math

import numpy as np
import pytest

from morsegauge import cli, partition, riemann
from morsegauge.cli import main
from morsegauge.corpus import corpus_function
from morsegauge.gauge import GaugeBuildParams, build_gauge
from morsegauge.measure import RadonMeasure


def run(args):
    return main(args)


def test_run_theorem_writes_outputs(tmp_path, capsys):
    out = tmp_path / "t"
    code = run(["run-theorem", "--fn", "step2", "--eps", "0.1",
                "--trials", "2", "--out", str(out)])
    assert code == 0
    blob = json.loads((out / "report.json").read_text())
    assert blob["command"] == "run-theorem"
    assert blob["fn"] == "step2"
    assert len(blob["results"]) == 2
    csv_text = (out / "summary.csv").read_text()
    header, *rows = csv_text.strip().split("\n")
    assert header.startswith("fn,ynorm,lambda,eps,trial,cells")
    assert len(rows) == 2
    assert rows[0].split(",")[0] == "step2"
    assert rows[0].split(",")[-1] == "1"
    msg = capsys.readouterr().out
    assert "step2 eps=0.1" in msg


def test_run_theorem_multiple_eps(tmp_path):
    out = tmp_path / "t"
    code = run(["run-theorem", "--fn", "linear1", "--eps", "0.1",
                "--eps", "0.05", "--trials", "1", "--out", str(out)])
    assert code == 0
    blob = json.loads((out / "report.json").read_text())
    assert blob["eps"] == [0.1, 0.05]
    assert len(blob["results"]) == 2


def test_run_theorem_defaults_eps(tmp_path):
    out = tmp_path / "t"
    code = run(["run-theorem", "--fn", "constant", "--trials", "1",
                "--out", str(out)])
    assert code == 0
    blob = json.loads((out / "report.json").read_text())
    assert blob["eps"] == [0.1]


def test_byte_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["run-theorem", "--fn", "checker2d", "--eps", "0.1",
            "--trials", "3", "--seed", "11"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["run-theorem", "--fn", "spike1", "--eps", "0.03", "--trials", "3"],
    ["run-corollary", "--fn", "spike1", "--eps", "0.05"]])
def test_outputs_do_not_depend_on_how_the_walk_is_cut(argv, tmp_path,
                                                      monkeypatch):
    # every total is the correctly rounded sum of its per-cell terms, so
    # the chunk size and the trials per walk change no byte
    outputs = set()
    for chunk in (1 << 12, 1 << 16, 1 << 18):
        for per_walk in (1, 8):
            monkeypatch.setattr(partition, "CHUNK_CELLS", chunk)
            monkeypatch.setattr(riemann, "TRIALS_PER_WALK", per_walk)
            out = tmp_path / f"{chunk}-{per_walk}"
            assert run(argv + ["--out", str(out)]) == 0
            outputs.add(tuple((out / name).read_bytes()
                              for name in ("report.json", "summary.csv")))
    assert len(outputs) == 1


def test_sabotage_modes_exit_two(tmp_path, capsys):
    for mode in ("inflate-delta", "overlap-cells", "offcenter-tags"):
        out = tmp_path / mode
        code = run(["run-theorem", "--fn", "linear1", "--eps", "0.1",
                    "--trials", "1", "--sabotage", mode, "--out", str(out)])
        assert code == 2, mode
        assert "BOUND VIOLATED" in capsys.readouterr().err


def test_unreachable_depth_exits_three(tmp_path, capsys):
    code = run(["run-theorem", "--fn", "spike1", "--eps", "0.1",
                "--trials", "1", "--max-depth", "6",
                "--out", str(tmp_path / "t")])
    assert code == 3
    assert "UNREACHABLE" in capsys.readouterr().err


def test_lusin_unreachable_for_smooth_entry(tmp_path, capsys):
    code = run(["run-lusin", "--fn", "lipschitz2d", "--eps", "0.1",
                "--out", str(tmp_path / "t")])
    assert code == 3
    assert "UNREACHABLE" in capsys.readouterr().err


def test_run_corollary(tmp_path):
    out = tmp_path / "c"
    code = run(["run-corollary", "--fn", "linear1", "--eps", "0.1",
                "--out", str(out)])
    assert code == 0
    blob = json.loads((out / "report.json").read_text())
    assert blob["command"] == "run-corollary"
    assert blob["results"][0]["pass_flags"]["mass_bounded"]
    header = (out / "summary.csv").read_text().split("\n")[0]
    assert header == ("fn,eps,riemann_gap,abs_total,worst_family_mass,"
                      "witness_mass,reconstruction_gap,ok")


def test_run_lusin_frozen_step2(tmp_path):
    out = tmp_path / "l"
    code = run(["run-lusin", "--fn", "step2", "--eps", "0.1",
                "--out", str(out)])
    assert code == 0
    blob = json.loads((out / "report.json").read_text())
    res = blob["results"][0]
    (a, b), (c, d) = res["pieces"]
    assert a == [0.0] and d == [1.0]
    assert b[0] == pytest.approx(0.475)
    assert c[0] == pytest.approx(0.525)
    assert res["separation"] == pytest.approx(0.05)
    assert res["omitted_measure"] == pytest.approx(0.05)


def test_lebesgue_map(tmp_path):
    out = tmp_path / "m"
    code = run(["lebesgue-map", "--fn", "step2", "--eps", "0.1",
                "--grid", "16", "--out", str(out)])
    assert code == 0
    lines = (out / "lebesgue_map.csv").read_text().strip().split("\n")
    assert lines[0] == "x0,delta"
    assert len(lines) == 17
    blob = json.loads((out / "report.json").read_text())
    assert blob["grid"] == 16
    assert 0 < blob["delta_min"] <= blob["delta_max"] <= 1


def test_lebesgue_map_rows_span_write_chunks(tmp_path):
    """Every row of a map written in several chunks is the gauge at its
    grid point, in grid order, printed with %.17g."""
    out = tmp_path / "m"
    assert run(["lebesgue-map", "--fn", "checker2d", "--eps", "0.1",
                "--grid", "100", "--out", str(out)]) == 0
    f = corpus_function("checker2d")
    g = build_gauge(f, RadonMeasure.unit(f.universe), GaugeBuildParams(eps=0.1))
    axis = np.linspace(0.0, 1.0, 100, endpoint=False) + 0.005
    X = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")],
                 axis=-1)
    assert len(X) > 2 * cli._MAP_CHUNK_ROWS
    want = ["x0,x1,delta"] + [
        ",".join("%.17g" % v for v in (*x, d))
        for x, d in zip(X.tolist(), g.delta_batch(X).tolist())]
    assert (out / "lebesgue_map.csv").read_text() == "\n".join(want) + "\n"


def test_unknown_fn_rejected(capsys):
    assert main(["run-theorem", "--fn", "mystery"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("INVALID INPUT: argument --fn: invalid choice")
    assert len(err.strip().splitlines()) == 1


def test_missing_subcommand_exits_three_and_help_zero(capsys):
    # argparse's own exit code 2 is the code of a violated bound
    assert main([]) == 3
    err = capsys.readouterr().err
    assert err.strip() == \
        "INVALID INPUT: the following arguments are required: command"
    for argv in (["--help"], ["run-theorem", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def test_lambda_one_uses_sup_norm_family(tmp_path):
    out = tmp_path / "s"
    code = run(["run-theorem", "--fn", "checker2d", "--eps", "0.1",
                "--trials", "1", "--lambda", "1", "--out", str(out)])
    assert code == 0
    blob = json.loads((out / "report.json").read_text())
    assert blob["lambda"] == 1.0


@pytest.fixture
def densities(tmp_path):
    """1-d density grid files: a graded one, one that vanishes on a cell,
    malformed ones, and the path of one that does not exist. The CLI has
    no --density option, so each is refused as an unrecognized argument."""
    files = {
        "graded.json": {"level": 2, "values": [1.0, 2.0, 3.0, 4.0]},
        "vanishing.json": {"level": 2, "values": [0.0, 1.0, 1.0, 1.0]},
        "short.json": {"level": 2, "values": [1.0, 1.0, 1.0]},
        "nolevel.json": {"values": [1.0]},
        "fractional.json": {"level": 2.5, "values": [1.0, 1.0, 1.0, 1.0]},
        "boollevel.json": {"level": True, "values": [1.0, 1.0]},
        "negative.json": {"level": 1, "values": [1.0, -1.0]},
        "infinite.json": {"level": 1, "values": [1.0, math.inf]},
        "badlevel.csv": "level,two\n1.0\n",
        "nan.csv": "level,1\n1.0\nnan\n",
    }
    paths = {"missing": str(tmp_path / "missing.json")}
    for name, content in files.items():
        path = tmp_path / name
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content))
        paths[name.split(".")[0]] = str(path)
    return paths


def assert_rejected(argv, tmp_path, capsys):
    """The CLI exits 3 with one stderr line and writes no report; input
    it rejects up front leaves no output directory at all."""
    out = tmp_path / "o"
    code = run(argv + ["--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "report.json").exists()
    if err.startswith("INVALID INPUT"):
        assert not out.exists()
    return err


@pytest.mark.parametrize("argv", [
    pytest.param(["run-theorem", "--fn", "linear1", "--eps", "0"], id="eps-zero"),
    pytest.param(["run-theorem", "--fn", "linear1", "--eps", "-1"], id="eps-negative"),
    pytest.param(["run-theorem", "--fn", "linear1", "--eps", "nan"], id="eps-nan"),
    pytest.param(["run-theorem", "--fn", "linear1", "--eps", "0.1", "--eps", "inf"],
                 id="eps-inf"),
    pytest.param(["run-theorem", "--fn", "linear1", "--trials", "0"], id="trials-zero"),
    pytest.param(["run-theorem", "--fn", "linear1", "--eta", "0"], id="eta-zero"),
    pytest.param(["run-theorem", "--fn", "linear1", "--eta", "nan"], id="eta-nan"),
    pytest.param(["run-theorem", "--fn", "linear1", "--max-depth", "-1"],
                 id="max-depth-negative"),
    pytest.param(["run-theorem", "--fn", "spike1", "--eps", "0.5", "--eta", "1e-25",
                  "--max-depth", "70", "--trials", "1"],
                 id="max-depth-past-key-cap"),
    # the sieve decides its one frontier run per level whole, down to a
    # family of 2^43 cells that no refinement can be drawn from
    pytest.param(["run-theorem", "--fn", "linear1", "--eps", "1e-12"],
                 id="family-past-the-draw-limit"),
    pytest.param(["run-lusin", "--fn", "step2", "--eps", "0"], id="lusin-eps-zero"),
    pytest.param(["run-lusin", "--fn", "step2", "--eps", "-1"], id="lusin-eps-negative"),
    pytest.param(["run-corollary", "--fn", "linear1", "--eps", "nan"],
                 id="corollary-eps-nan"),
    pytest.param(["lebesgue-map", "--fn", "linear1", "--grid", "0"], id="grid-zero"),
    pytest.param(["lebesgue-map", "--fn", "checker2d", "--grid", "100000"],
                 id="grid-2d-too-many-points"),
    pytest.param(["lebesgue-map", "--fn", "linear1", "--grid", "1000000000"],
                 id="grid-1d-too-many-points"),
    pytest.param(["run-theorem", "--fn", "linear1", "--density", "{graded}"],
                 id="theorem-graded-density"),
    pytest.param(["run-corollary", "--fn", "linear1", "--density", "{graded}"],
                 id="corollary-graded-density"),
    pytest.param(["lebesgue-map", "--fn", "linear1", "--density", "{vanishing}"],
                 id="map-vanishing-density"),
    pytest.param(["run-theorem", "--fn", "linear1", "--density", "{missing}"],
                 id="density-missing-file"),
    pytest.param(["run-corollary", "--fn", "linear1", "--density", "{short}"],
                 id="density-wrong-count"),
    pytest.param(["run-lusin", "--fn", "step2", "--density", "{nolevel}"],
                 id="density-no-level"),
    pytest.param(["lebesgue-map", "--fn", "linear1", "--density", "{badlevel}"],
                 id="density-csv-level-not-numeric"),
    pytest.param(["run-theorem", "--fn", "linear1", "--density", "{negative}"],
                 id="density-negative"),
    pytest.param(["run-corollary", "--fn", "linear1", "--density", "{infinite}"],
                 id="density-infinite"),
    pytest.param(["run-lusin", "--fn", "step2", "--density", "{nan}"],
                 id="density-csv-nan"),
    pytest.param(["run-theorem", "--fn", "linear1", "--density", "{fractional}"],
                 id="density-json-fractional-level"),
    pytest.param(["run-theorem", "--fn", "linear1", "--density", "{boollevel}"],
                 id="density-json-bool-level"),
    pytest.param(["run-theorem", "--fn", "step2", "--eps", "1e-300", "--trials", "1"],
                 id="theorem-tube-below-float-resolution"),
    pytest.param(["run-corollary", "--fn", "step2", "--eps", "1e-300"],
                 id="corollary-tube-below-float-resolution"),
    pytest.param(["run-theorem", "--fn", "checker2d", "--eps", "1e-300",
                  "--trials", "1"], id="checker-tube-below-float-resolution"),
    pytest.param(["lebesgue-map", "--fn", "step2", "--eps", "1e-300", "--grid", "4"],
                 id="map-tube-below-float-resolution"),
    pytest.param(["run-theorem", "--fn", "linear1", "--eps", "1e-323"],
                 id="theorem-eps-subnormal"),
    pytest.param(["run-corollary", "--fn", "constant", "--eps", "1e-323"],
                 id="corollary-eps-subnormal"),
    pytest.param(["lebesgue-map", "--fn", "checker2d", "--eps", "5e-324", "--grid", "2"],
                 id="map-eps-smallest-subnormal"),
    pytest.param(["lebesgue-map", "--fn", "linear1", "--eps", "0.1", "--eps", "0.2",
                  "--grid", "4"], id="map-second-eps"),
    pytest.param(["run-theorem", "--fn", "mystery"], id="unknown-fn"),
    pytest.param(["run-theorem", "--fn", "linear1", "--eps", "abc"], id="eps-not-a-float"),
    pytest.param(["run-theorem", "--fn", "linear1", "--trials", "1.5"],
                 id="trials-not-an-int"),
    pytest.param(["run-theorem", "--fn", "linear1", "--bogus"], id="unknown-option"),
    pytest.param(["run-everything", "--fn", "linear1"], id="unknown-subcommand"),
    pytest.param(["run-theorem", "--fn", "linear1", "--seed", "-1"],
                 id="seed-negative"),
    pytest.param(["run-corollary", "--fn", "linear1", "--seed", "-1"],
                 id="corollary-seed-negative"),
    pytest.param(["run-lusin", "--fn", "step2", "--seed", "-1"],
                 id="lusin-seed-negative"),
    pytest.param(["lebesgue-map", "--fn", "linear1", "--seed", "-1"],
                 id="map-seed-negative"),
    # --fn fixes the dimension, so there is no --dim to restate it
    pytest.param(["run-theorem", "--fn", "linear1", "--dim", "2"], id="dim"),
])
def test_rejected_input_exits_three(argv, densities, tmp_path, capsys):
    err = assert_rejected([a.format(**densities) for a in argv], tmp_path, capsys)
    for option in ("--density", "--dim"):
        if option in argv:
            assert f"unrecognized arguments: {option}" in err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_that_cannot_be_a_directory_exits_three(under, tmp_path, capsys):
    # an existing file, or a path under one: one line and exit 3
    blocker = tmp_path / "taken"
    blocker.write_text("x")
    out = blocker / "o" if under else blocker
    code = run(["run-theorem", "--fn", "linear1", "--trials", "1",
                "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"INVALID INPUT: --out {out}: ")
    assert len(err.strip().splitlines()) == 1
    assert blocker.read_text() == "x"


@pytest.mark.parametrize("command", ["run-theorem", "run-corollary",
                                     "run-lusin", "lebesgue-map"])
def test_unwritable_report_prints_nothing(command, tmp_path, capsys):
    # a directory stands where report.json goes: the command fails before
    # it prints a line
    out = tmp_path / "o"
    (out / "report.json").mkdir(parents=True)
    code = run([command, "--fn", "step2", "--trials", "1", "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"INVALID INPUT: --out {out}: ")
    assert len(captured.err.strip().splitlines()) == 1


def test_unwritable_output_exits_three(tmp_path, capsys):
    # the directory exists, but a directory stands where report.json goes
    out = tmp_path / "o"
    (out / "report.json").mkdir(parents=True)
    code = run(["run-lusin", "--fn", "step2", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"INVALID INPUT: --out {out}: ")
    assert len(err.strip().splitlines()) == 1


def test_lambda_validation(tmp_path, capsys):
    assert_rejected(["run-theorem", "--fn", "linear1", "--lambda", "sqrt2"],
                    tmp_path, capsys)
    assert_rejected(["run-theorem", "--fn", "checker2d", "--lambda", "sqrt3"],
                    tmp_path, capsys)


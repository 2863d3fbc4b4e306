"""End-to-end CLI behavior through click's test runner."""

import ast
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import recalib
from recalib import cli
from recalib.cli import MODEL_FORMAT_VERSION, load_model, main, save_model
from recalib.core import (
    BinningScheme,
    Composite,
    PiecewiseRecalibrator,
    ShiftCorrector,
    apply_batch,
    compose,
    estimate_weights,
)
from recalib.fileio import fmt_float
from recalib.oracle import GaussianMixtureTask, exact_shift_weights, sample

from oracles import read_columns_rowwise_ref

CAL_BOUND_1000_10_01 = 0.033838997806812986
ZETA_76_1E6 = 0.0038230038407442187
SHIFT_APRIORI_EXAMPLE = 4.4059393375386034

FIT_CSV = "z,y\n0.1,0\n0.2,1\n0.3,0\n0.4,1\n"

# A model that maps every score to itself, for tests that need some model file.
UNIT_SHIFT = ShiftCorrector(exact_shift_weights(0.5, 0.5))


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def line_value(output: str, prefix: str) -> float:
    for line in output.splitlines():
        if line.startswith(prefix):
            return float(line.split(":", 1)[1])
    raise AssertionError(f"no line starts with {prefix!r} in:\n{output}")


def labels_csv(path, zeros: int, ones: int) -> None:
    path.write_text("y\n" + "0\n" * zeros + "1\n" * ones)


# --------------------------------------------------------------- start-up

def _src_env() -> dict:
    src = os.path.dirname(os.path.dirname(recalib.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _scipy_modules_after(code: str, *args: str) -> str:
    """Last stdout line of a fresh interpreter that runs ``code`` and then
    prints the recalib.oracle flag and the sorted loaded scipy modules."""
    code += ("\nprint('recalib.oracle' in sys.modules, "
             "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, *args], env=_src_env(),
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1]


def test_cli_import_does_not_load_scipy():
    # The oracle and the experiments load on first use, so no command
    # pays for scipy at start-up.
    assert _scipy_modules_after("import sys, recalib.cli") == "False []"


def test_deployment_commands_do_not_load_scipy(tmp_path):
    # fit without --task, apply, shift, bound, bound-shift and optbins --K
    # never need the Gaussian-mixture oracle.
    data, scores = tmp_path / "data.csv", tmp_path / "scores.csv"
    data.write_text(FIT_CSV)
    scores.write_text("z\n0.1\n0.9\n")
    p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
    labels_csv(p_path, 3, 2)
    labels_csv(q_path, 1, 4)
    model, composite = str(tmp_path / "model.json"), str(tmp_path / "composite.json")
    commands = [
        ["fit", "--input", data, "--bins", 2, "--out", model],
        ["apply", "--model", model, "--input", scores, "--out", tmp_path / "a.csv"],
        ["shift", "--labels-p", p_path, "--labels-q", q_path, "--base-model", model,
         "--out", composite],
        ["apply", "--model", composite, "--input", scores, "--out", tmp_path / "b.csv"],
        ["bound", "--n", 1000, "--B", 10],
        ["bound-shift", "--B", 46, "--n-p", 100_000, "--n-q", 1_000, "--p-min", 0.1,
         "--q-min", 0.1, "--w-min", 0.2, "--w-max", 1.8],
        ["optbins", "--n", 1_000_000, "--K", 1],
    ]
    code = ("import json, sys\n"
            "from recalib.cli import main\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    main(args, standalone_mode=False)")
    argv = json.dumps([[str(a) for a in c] for c in commands])
    assert _scipy_modules_after(code, argv) == "False []"
    assert (tmp_path / "b.csv").read_text().startswith("z,z_cal\n")


def test_studies_and_risks_do_not_load_scipy_integrate():
    # The oracle integrates with numpy alone: a study, or the risk of any
    # recalibrator form, loads scipy.special and nothing heavier.
    code = """
import sys
import recalib.experiments as e
from recalib.core import BinningScheme, PiecewiseRecalibrator, ShiftCorrector, compose
from recalib.oracle import (GaussianMixtureTask, MonotoneRecalibrator, exact_shift_weights,
                            population_risk)
tiny = e.ExperimentConfig(n_grid=(1000,), B_grid=(6, 10), seeds=1, n_P=64, n_Q=27)
e.run_risk_grid(tiny)
e.run_optimal_B(tiny)
e.run_label_shift(tiny)
e.run_label_shift(e.ExperimentConfig(seeds=1))
task = GaussianMixtureTask(0.3)
pw = PiecewiseRecalibrator(BinningScheme((0.0, 0.4, 1.0)), (0.2, 0.7), (1, 1))
shift = ShiftCorrector(exact_shift_weights(0.5, 0.3))
for h in (pw, compose(shift, pw), MonotoneRecalibrator(lambda z: z), shift,
          MonotoneRecalibrator(lambda z: z * z)):
    population_risk(task, h)
"""
    flag, modules = _scipy_modules_after(code).split(" ", 1)
    modules = ast.literal_eval(modules)
    assert flag == "True" and "scipy.special" in modules
    loaded = {m.split(".")[1] for m in modules if "." in m}
    assert loaded.isdisjoint({"integrate", "optimize", "sparse"}), sorted(loaded)


def test_public_names_resolve():
    # The package namespace is the public names of core and bounds; the
    # oracle and the experiments are submodules, imported on request.
    from recalib import bounds, core

    assert set(recalib.__all__) == {"__version__", *core.__all__, *bounds.__all__}
    namespace: dict = {}
    exec("from recalib import *", namespace)
    listing = dir(recalib)
    for name in recalib.__all__:
        assert getattr(recalib, name) is namespace[name], name
        assert name in listing, name
    from recalib import experiments, oracle

    assert {"oracle", "experiments"} <= set(dir(recalib))
    assert oracle is recalib.oracle is sys.modules["recalib.oracle"]
    assert experiments is recalib.experiments is sys.modules["recalib.experiments"]
    assert not hasattr(recalib, "no_such_name")
    assert not hasattr(recalib, "phi_balance")
    with pytest.raises(ImportError):
        exec("from recalib import no_such_name", {})
    assert _scipy_modules_after("import sys, recalib") == "False []"


def test_pyproject_version_matches_package():
    # A regex, not tomllib, which Python 3.10 lacks.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as f:
        match = re.search(r'^version = "([^"]+)"$', f.read(), re.MULTILINE)
    assert match is not None
    assert match.group(1) == recalib.__version__


# ------------------------------------------------------------------- fit

def test_fit_four_point_example(tmp_path):
    inp = tmp_path / "data.csv"
    inp.write_text(FIT_CSV)
    out = tmp_path / "model.json"
    res = run("fit", "--input", inp, "--bins", 2, "--out", out)
    assert res.exit_code == 0, res.output + res.stderr
    assert f"model written to {out}" in res.output
    model, meta = load_model(str(out))
    assert model.scheme.edges == (0.0, 0.2, 1.0)
    assert model.values == (0.5, 0.5)
    assert model.counts == (2, 2)
    assert meta["n"] == 4 and meta["B"] == 2 and meta["delta"] == 0.1
    assert len(meta["source_sha256"]) == 64
    assert "NOT MET" in res.output


def test_fit_auto_bins_picks_scan_minimizer(tmp_path):
    s = sample(GaussianMixtureTask(0.5), 1_000_000, seed=2)
    inp = tmp_path / "big.csv"
    rows = "\n".join(f"{fmt_float(z)},{y}" for z, y in zip(s.z, s.y))
    inp.write_text("z,y\n" + rows + "\n")
    out = tmp_path / "model.json"
    res = run("fit", "--input", inp, "--bins", "auto", "--K", 1.0, "--out", out)
    assert res.exit_code == 0, res.output + res.stderr
    assert "auto bin count: B = 76" in res.output
    # The reported sharpness bound is the smooth term the selection minimised.
    assert "sharpness bound: 8K^2/B^2" in res.output
    sha_line = next(l for l in res.output.splitlines() if l.startswith("sharpness risk bound:"))
    assert sha_line.split(":", 1)[1].strip() == fmt_float(8 * 1.0 * 1.0 / (76 * 76))
    model, meta = load_model(str(out))
    assert meta["B"] == 76
    assert model.scheme.B == 76
    assert sum(model.counts) == 1_000_000


def test_fit_warns_on_stderr_when_gate_not_met(tmp_path):
    inp = tmp_path / "data.csv"
    inp.write_text(FIT_CSV)
    out = tmp_path / "model.json"
    res = run("fit", "--input", inp, "--bins", 2, "--out", out)
    assert res.exit_code == 0, res.stderr
    detail = "n = 4 fails n >= c B log(2B/delta) = 17854.2"
    assert res.stderr == f"warning: sample-size gate not met ({detail})\n"
    # The warning adds nothing to stdout.
    assert res.stdout == (
        "calibration risk bound: 3.9212205046377386\n"
        "sharpness risk bound:   1.0\n"
        "total risk bound:       4.921220504637739\n"
        f"sample-size gate:       NOT MET ({detail})\n"
        f"model written to {out}\n"
    )
    # 20,000 points meet the gate for B = 2 (threshold 17854.2): no warning.
    big = tmp_path / "big.csv"
    big.write_text("z,y\n" + "".join(f"{(i + 0.5) / 20_000},{i % 2}\n" for i in range(20_000)))
    res = run("fit", "--input", big, "--bins", 2, "--out", out)
    assert res.exit_code == 0, res.stderr
    assert res.stderr == ""
    assert "sample-size gate:       ok" in res.stdout


def test_fit_parse_errors(tmp_path):
    out = tmp_path / "model.json"
    cases = (
        ("z,y\n0.5,2\n", ["row 2, column y", "is not 0 or 1"]),
        ("score,label\n0.5,1\n", ["row 1", "expected header z,y"]),
        ("", ["empty file"]),
        ("z,y\n1.5,1\n", ["outside [0.0, 1.0]"]),
        ("z,y\nfoo,1\n", ["row 2, column z", "is not a number"]),
        # float() reads non-ASCII digits; a score is ASCII only.
        ("z,y\n０.５,1\n", ["row 2, column z", "'０.５' is not a number"]),
        ("z,y\n0.25,0\n0.٥,1\n", ["row 3, column z", "'0.٥' is not a number"]),
        ("z,y\n0.5,1,9\n", ["expected 2 fields"]),
        # Header fields are named by repr, so the message stays one line,
        # and only spaces and tabs around them are ignored.
        ('"q\nz",y\n0.5,1\n', ["row 1", "got 'q\\nz','y'"]),
        ('"z\n",y\n0.5,1\n', ["row 1", "expected header z,y, got 'z\\n','y'"]),
    )
    for text, needles in cases:
        inp = tmp_path / "bad.csv"
        inp.write_text(text, encoding="utf-8")
        res = run("fit", "--input", inp, "--bins", 2, "--out", out)
        assert res.exit_code == 2, text
        # Every message names the file, row and column errors included.
        assert res.stderr.startswith(f"error: {inp}: ") and res.stderr.count("\n") == 1, text
        for needle in needles:
            assert needle in res.stderr, (text, res.stderr)
    inp.write_text(" z\t, y \n0.5,1\n0.25,0\n")
    assert run("fit", "--input", inp, "--bins", 2, "--out", out).exit_code == 0


def assert_input_error(res) -> None:
    """Exit 2 with exactly one stderr line, an ``error:`` message."""
    assert res.exit_code == 2, (res.output, res.exception)
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr


def test_fit_bad_bins_flag(tmp_path):
    inp = tmp_path / "data.csv"
    inp.write_text(FIT_CSV)
    res = run("fit", "--input", inp, "--bins", "several", "--out", tmp_path / "m.json")
    assert res.exit_code == 2
    assert "--bins must be an integer or 'auto'" in res.stderr
    # Bad --delta, --K and --pi are input problems, caught before fitting.
    out = tmp_path / "m2.json"
    for flags in (("--bins", 0), ("--bins", -3),
                  ("--bins", 2, "--delta", 0), ("--bins", 2, "--delta", "nan"),
                  ("--bins", "auto", "--K", 1, "--delta", 5),
                  ("--bins", "auto", "--K", "nan"), ("--bins", "auto", "--K", "inf"),
                  ("--task", "gaussian", "--pi", 1.5), ("--task", "gaussian", "--pi", 0)):
        res = run("fit", "--input", inp, *flags, "--out", out)
        assert_input_error(res)
        assert res.stdout == "", flags
        assert not out.exists(), flags
    # With an integer --bins, a given K selects the smooth sharpness bound
    # 8K^2/B^2, as in `bound`; without one the bound stays 2/B, unwarned.
    for flags in (("--K", 5), ("--task", "gaussian"), ("--task", "gaussian", "--pi", 0.3)):
        res = run("fit", "--input", inp, "--bins", 2, *flags, "--out", out)
        assert res.exit_code == 0 and "assuming K=1" not in res.stderr, (flags, res.stderr)
        assert line_value(res.stdout, "sharpness risk bound:") > 2.0, flags
        if flags == ("--K", 5):
            bound = run("bound", "--n", 4, "--B", 2, *flags).stdout
            assert res.stdout.splitlines()[:3] == bound.splitlines()[:3]
        out.unlink()
    # Flags that conflict are refused in either mode.
    for flags, message in (
        (("--bins", 2, "--K", 1, "--task", "gaussian", "--pi", 0.3),
         "--K and --task both set the smoothness constant; pass one"),
        (("--bins", 2, "--pi", 0.3), "--pi needs --task"),
        (("--K", 1, "--task", "gaussian"),
         "--K and --task both set the smoothness constant; pass one"),
        (("--K", 1, "--pi", 0.3), "--pi needs --task"),
        (("--pi", 0.3,), "--pi needs --task"),
    ):
        res = run("fit", "--input", inp, *flags, "--out", out)
        assert_input_error(res)
        assert res.stdout == "", flags
        assert res.stderr == f"error: {message}\n", flags
        assert not out.exists(), flags
    # Flags are checked before the input is read: a bad flag on a
    # malformed CSV reports the flag.
    bad = tmp_path / "bad.csv"
    bad.write_text("z,y\n0.1,2\n")
    for flags, message in (
        (("--bins", 2, "--delta", 0), "--delta must lie in (0, 1), got 0.0"),
        (("--bins", "several"), "--bins must be an integer or 'auto', got 'several'"),
        (("--bins", 0), "--bins must be at least 1, got 0"),
        (("--bins", -3), "--bins must be at least 1, got -3"),
        (("--bins", 2, "--pi", 0.3), "--pi needs --task"),
        (("--K", "nan"), "--K must be finite and nonnegative, got nan"),
        (("--task", "gaussian", "--pi", 0), "--pi: pi must lie strictly between 0 and 1"),
    ):
        res = run("fit", "--input", bad, *flags, "--out", out)
        assert res.stderr == f"error: {message}\n", flags
        assert_input_error(res)
        assert res.stdout == "" and not out.exists(), flags


def test_fit_unwritable_out_exits_2(tmp_path):
    inp = tmp_path / "data.csv"
    inp.write_text(FIT_CSV)
    out = tmp_path / "nodir" / "m.json"
    res = run("fit", "--input", inp, "--bins", 2, "--out", out)
    assert res.exit_code == 2
    assert res.stderr == f"error: {out}: No such file or directory\n"
    assert res.stdout == ""


def test_fit_degenerate_and_infeasible_exit_3(tmp_path):
    inp = tmp_path / "ties.csv"
    inp.write_text("z,y\n0.5,0\n0.5,1\n0.5,0\n0.5,1\n")
    res = run("fit", "--input", inp, "--bins", 2, "--out", tmp_path / "m.json")
    assert res.exit_code == 3
    assert "ties" in res.stderr
    # The automatic bin count is only reported with a fitted model.
    res = run("fit", "--input", inp, "--bins", "auto", "--K", 1, "--out", tmp_path / "m.json")
    assert res.exit_code == 3 and res.stdout == ""
    assert not (tmp_path / "m.json").exists()

    inp2 = tmp_path / "small.csv"
    inp2.write_text(FIT_CSV)
    res2 = run("fit", "--input", inp2, "--bins", 10, "--out", tmp_path / "m2.json")
    assert res2.exit_code == 3


def test_fit_refuses_flags_whose_bounds_overflow(tmp_path):
    # The refusal comes before the model is written and before any stdout.
    inp = tmp_path / "data.csv"
    inp.write_text("z,y\n" + "".join(f"{i / 2000},{i % 2}\n" for i in range(2000)))
    out = tmp_path / "m.json"
    for flags in (("--bins", "auto", "--K", 1e200), ("--bins", "auto", "--K", 1, "--delta", 1e-320),
                  ("--bins", 4, "--delta", 1e-320)):
        res = run("fit", "--input", inp, *flags, "--out", out)
        assert_input_error(res)
        assert res.stdout == "" and "out of floating-point range" in res.stderr, flags
        assert not out.exists()


# ----------------------------------------------------------------- apply

def test_apply_piecewise_bin_edges(tmp_path):
    model_path = tmp_path / "model.json"
    save_model(
        str(model_path),
        PiecewiseRecalibrator(BinningScheme((0.0, 0.2, 1.0)), (0.25, 0.75), (2, 2)),
        {},
    )
    inp = tmp_path / "scores.csv"
    inp.write_text("z\n0.2\n0.200001\n0\n1\n")
    out = tmp_path / "calibrated.csv"
    res = run("apply", "--model", model_path, "--input", inp, "--out", out)
    assert res.exit_code == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "z,z_cal"
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert got == [0.25, 0.75, 0.25, 0.75]
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tmp.")]


def test_apply_composite_writes_apply_batch_values(tmp_path):
    pw = PiecewiseRecalibrator(BinningScheme((0.0, 0.3, 0.7, 1.0)), (0.1, 0.45, 0.8), (2, 3, 4))
    h = compose(ShiftCorrector(exact_shift_weights(0.5, 0.2)), pw)
    model_path = tmp_path / "composite.json"
    save_model(str(model_path), h, {})
    z = np.concatenate(([0.0, 0.3, 0.7, 1.0], sample(GaussianMixtureTask(0.5), 500, seed=4).z))
    inp = tmp_path / "scores.csv"
    inp.write_text("z\n" + "".join(f"{fmt_float(v)}\n" for v in z))
    out = tmp_path / "calibrated.csv"
    res = run("apply", "--model", model_path, "--input", inp, "--out", out)
    assert res.exit_code == 0, res.stderr
    want = "".join(f"{fmt_float(a)},{fmt_float(b)}\n" for a, b in zip(z, apply_batch(h, z)))
    assert out.read_text() == "z,z_cal\n" + want


def test_apply_model_file_errors(tmp_path):
    inp = tmp_path / "scores.csv"
    inp.write_text("z\n0.5\n")
    out = tmp_path / "calibrated.csv"

    versioned = tmp_path / "future.json"
    versioned.write_text(json.dumps({"format_version": 99, "model": {"kind": "identity"}}))
    res = run("apply", "--model", versioned, "--input", inp, "--out", out)
    assert res.exit_code == 2
    assert "not supported" in res.stderr

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{")
    assert run("apply", "--model", corrupt, "--input", inp, "--out", out).exit_code == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"format_version": 1, "model": {"kind": "mystery"}}))
    res3 = run("apply", "--model", unknown, "--input", inp, "--out", out)
    assert res3.exit_code == 2
    assert "unknown model kind" in res3.stderr

    p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
    labels_csv(p_path, 10, 10)
    labels_csv(q_path, 5, 5)
    malformed = (
        [],
        {"format_version": 1, "model": "x"},
        {"format_version": 1,
         "model": {"kind": "piecewise", "edges": 5, "values": [0.5], "counts": [1]}},
        {"format_version": 1,
         "model": {"kind": "piecewise", "edges": [0.0, math.nan, 1.0],
                   "values": [0.5, 0.5], "counts": [1, 1]}},
        {"format_version": 1,
         "model": {"kind": "shift", "w": [1.0, 1.0], "provenance": "plug-in",
                   "p_hat": [0.0, 1.0], "q_hat": [0.5, 0.5]}},
        # Kinds that no command writes, removed in 0.7.0.
        {"format_version": 1, "model": {"kind": "constant", "value": 0.5}, "metadata": {}},
        {"format_version": 1, "model": {"kind": "identity"}, "metadata": {}},
        {"format_version": 1,
         "model": {"kind": "piecewise", "edges": [0.0, 0.5, 1.0],
                   "values": [0.5, 0.5], "counts": [10, math.inf]}},
        {"format_version": 1,
         "model": {"kind": "piecewise", "edges": [0.0, 10 ** 400, 1.0],
                   "values": [0.5, 0.5], "counts": [1, 1]}},
        # true == 1 and 1.0 == 1 in Python, but neither is version 1.
        {"format_version": True,
         "model": {"kind": "piecewise", "edges": [0.0, 0.5, 1.0],
                   "values": [0.5, 0.5], "counts": [1, 1]}},
        {"format_version": 1.0,
         "model": {"kind": "piecewise", "edges": [0.0, 0.5, 1.0],
                   "values": [0.5, 0.5], "counts": [1, 1]}},
        # Fractional counts, which int() would truncate to (1, 2).
        {"format_version": 1,
         "model": {"kind": "piecewise", "edges": [0.0, 0.5, 1.0],
                   "values": [0.5, 0.5], "counts": [1.7, 2.2]}},
        {"format_version": 1,
         "model": {"kind": "piecewise", "edges": [0.0, 0.5, 1.0],
                   "values": [0.5, 0.5], "counts": [1, True]}},
        # Exact weights carry no frequencies, not even null ones.
        {"format_version": 1,
         "model": {"kind": "shift", "w": [1.0, 1.0], "provenance": "exact", "p_hat": None}},
        # Label shift is binary: three weights are refused.
        {"format_version": 1,
         "model": {"kind": "shift", "w": [1.0, 1.0, 1.0], "provenance": "exact"}},
        # A composite with its parts swapped.
        {"format_version": 1,
         "model": {"kind": "composite",
                   "outer": {"kind": "piecewise", "edges": [0.0, 0.5, 1.0],
                             "values": [0.5, 0.5], "counts": [1, 1]},
                   "inner": {"kind": "shift", "w": [1.0, 1.0], "provenance": "exact"}}},
        # Subnormal weights, whose corrector underflows to 0/0: `apply` wrote
        # nan for the shift model and a traceback for the composite.
        {"format_version": 1,
         "model": {"kind": "shift", "w": [5e-324, 5e-324], "provenance": "exact"}},
        {"format_version": 1,
         "model": {"kind": "composite",
                   "outer": {"kind": "shift", "w": [5e-324, 5e-324], "provenance": "exact"},
                   "inner": {"kind": "piecewise", "edges": [0.0, 0.5, 1.0],
                             "values": [0.5, 0.75], "counts": [1, 1]}}},
    )
    # Arrays nested past the JSON parser's recursion limit.
    nested = "[" * 100_000 + "]" * 100_000
    for i, text in enumerate([*map(json.dumps, malformed), nested]):
        path = tmp_path / f"malformed_{i}.json"
        path.write_text(text)
        for res, written in ((run("apply", "--model", path, "--input", inp, "--out", out), out),
                             (run("shift", "--labels-p", p_path, "--labels-q", q_path,
                                  "--base-model", path, "--out", tmp_path / "m.json"),
                              tmp_path / "m.json")):
            assert res.exit_code == 2, (text[:200], res.output, res.exception)
            assert res.stderr.startswith(f"error: {path}: ") and res.stderr.count("\n") == 1, text[:200]
            assert res.stdout == "" and not written.exists(), text[:200]


FUZZ_PIECEWISE = {
    "format_version": 1,
    "model": {"kind": "piecewise", "edges": [0.0, 0.3, 1.0],
              "values": [0.25, 0.75], "counts": [3, 7]},
    "metadata": {"n": 10, "B": 2},
}
FUZZ_COMPOSITE = {
    "format_version": 1,
    "model": {"kind": "composite",
              "outer": {"kind": "shift", "w": [1.6, 0.4], "provenance": "plug-in",
                        "p_hat": [0.5, 0.5], "q_hat": [0.8, 0.2]},
              "inner": FUZZ_PIECEWISE["model"]},
    "metadata": {},
}
FUZZ_JUNK = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, None, True, 0, -1, 1.5]),
    # What float() reads as a number: a bool, a numeric string, and a
    # string of digits in place of a list.
    st.sampled_from([False, True, "0", " 1 ", "1e0", "01", ["0", "1"], [True, False]]),
    st.integers(min_value=-10**400, max_value=10**400),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.floats(), st.integers(), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.text(max_size=4), st.one_of(st.floats(), st.text(max_size=2)),
                    max_size=2),
)


_DELETE = object()


def _json_paths(obj, prefix=()):
    """Every path (tuple of keys and indices) into a JSON value, the root included."""
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _mutate(obj, path, junk):
    """A copy of ``obj`` with the value at ``path`` replaced by ``junk``, or
    removed when ``junk`` is ``_DELETE``."""
    if not path:
        return junk
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if junk is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = junk
    return obj


def _number_fields_are_json_numbers(model) -> bool:
    """Whether every number field of a model object and of its parts is a
    JSON list of numbers: ints or floats, not bools or strings."""
    if not isinstance(model, dict):
        return True
    return all(
        isinstance(v, list) and all(type(x) in (int, float) for x in v)
        for k, v in model.items() if k in ("edges", "values", "counts", "w", "p_hat", "q_hat")
    ) and all(_number_fields_are_json_numbers(model.get(k)) for k in ("outer", "inner"))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_model_file_fuzz_exits_0_or_2(tmp_path, data):
    # Replacing, deleting or junk-typing any field of a valid model file
    # ends apply and shift --base-model in exit 0 or a one-line exit 2,
    # and in exit 0 only if every number field is still a list of numbers.
    obj = data.draw(st.sampled_from([FUZZ_PIECEWISE, FUZZ_COMPOSITE]))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(obj))))
        junk = data.draw(st.one_of(st.just(_DELETE), FUZZ_JUNK) if path else FUZZ_JUNK)
        obj = _mutate(obj, path, junk)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    scores, p_path, q_path = tmp_path / "scores.csv", tmp_path / "p.csv", tmp_path / "q.csv"
    scores.write_text("z\n0\n0.3\n0.5\n1\n")
    labels_csv(p_path, 10, 10)
    labels_csv(q_path, 5, 5)
    for res in (run("apply", "--model", model, "--input", scores, "--out", tmp_path / "o.csv"),
                run("shift", "--labels-p", p_path, "--labels-q", q_path,
                    "--base-model", model, "--out", tmp_path / "m.json")):
        assert res.exit_code in (0, 2), (obj, res.exception)
        if res.exit_code == 2:
            assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, obj
        else:
            assert _number_fields_are_json_numbers(obj["model"]), obj


def test_apply_rejects_out_of_range_scores(tmp_path):
    model_path = tmp_path / "shift.json"
    save_model(str(model_path), UNIT_SHIFT, {})
    inp = tmp_path / "scores.csv"
    inp.write_text("z\n1.5\n")
    res = run("apply", "--model", model_path, "--input", inp, "--out", tmp_path / "o.csv")
    assert res.exit_code == 2
    assert res.stderr == f"error: {inp}: row 2, column z: 1.5 outside [0.0, 1.0]\n"


def test_apply_bad_last_row_leaves_no_file(tmp_path):
    model_path = tmp_path / "shift.json"
    save_model(str(model_path), UNIT_SHIFT, {})
    inp = tmp_path / "scores.csv"
    inp.write_text("z\n" + "0.5\n" * 1000 + "nan?\n")
    res = run("apply", "--model", model_path, "--input", inp, "--out", tmp_path / "o.csv")
    assert res.exit_code == 2
    assert res.stderr == f"error: {inp}: row 1002, column z: 'nan?' is not a number\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.csv", "shift.json"]


def test_apply_unwritable_out_exits_2(tmp_path):
    model_path = tmp_path / "shift.json"
    save_model(str(model_path), UNIT_SHIFT, {})
    inp = tmp_path / "scores.csv"
    inp.write_text("z\n0.5\n")
    out = tmp_path / "nodir" / "o.csv"
    res = run("apply", "--model", model_path, "--input", inp, "--out", out)
    assert res.exit_code == 2
    assert res.stderr == f"error: {out}: No such file or directory\n"


def test_exact_shift_model_with_frequencies_exits_2(tmp_path):
    # Exact weights carry no class frequencies; loading such a file used to
    # succeed and leave a model that save_model could not write.
    model_path = tmp_path / "shift.json"
    model_path.write_text(json.dumps(
        {"format_version": 1, "metadata": {},
         "model": {"kind": "shift", "w": [1, 2], "provenance": "exact", "p_hat": ["a", "b"]}}))
    inp, out = tmp_path / "scores.csv", tmp_path / "o.csv"
    inp.write_text("z\n0.5\n")
    res = run("apply", "--model", model_path, "--input", inp, "--out", out)
    assert_input_error(res)
    assert res.stderr == (f"error: {model_path}: "
                          "malformed model: exact weights carry no class frequencies\n")
    assert not out.exists()


def test_written_files_honour_the_umask(tmp_path):
    # A file written under umask 022 is 0o644, as open() would make it, and
    # the temporary it was written through is gone.
    code = ("import os, sys; from recalib.fileio import write_text_atomic; os.umask(0o022); "
            "write_text_atomic(sys.argv[1], 'x\\n'); print(oct(os.stat(sys.argv[1]).st_mode & 0o777))")
    path = tmp_path / "out.txt"
    res = subprocess.run([sys.executable, "-c", code, str(path)], env=_src_env(),
                         capture_output=True, text=True, check=True)
    assert res.stdout == "0o644\n"
    assert path.read_text() == "x\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# ------------------------------------------------------- CSV readers, apply writer

def test_non_utf8_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"z,y\n0.1,0\n0.\xff2,1\n")
    scores = tmp_path / "scores.csv"
    scores.write_bytes(b"z\n0.\xff2\n")
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"y\n0\n\xff\n")
    q_path = tmp_path / "q.csv"
    labels_csv(q_path, 5, 5)
    model_path = tmp_path / "shift.json"
    save_model(str(model_path), UNIT_SHIFT, {})
    for path, args in (
            (bad, ("fit", "--input", bad, "--bins", 1)),
            (scores, ("apply", "--model", model_path, "--input", scores)),
            (labels, ("shift", "--labels-p", labels, "--labels-q", q_path))):
        res = run(*args, "--out", tmp_path / "out")
        assert_input_error(res)
        assert res.stderr.startswith(f"error: {path}: not UTF-8: byte 0xff at offset "), res.stderr
        assert not (tmp_path / "out").exists()


def test_oversized_csv_field_exits_2_naming_the_row(tmp_path):
    model_path = tmp_path / "shift.json"
    save_model(str(model_path), UNIT_SHIFT, {})
    inp = tmp_path / "scores.csv"
    inp.write_text("z\n0.5\n" + "0" * 200_000 + "\n")
    res = run("apply", "--model", model_path, "--input", inp, "--out", tmp_path / "o.csv")
    assert res.exit_code == 2
    assert res.stderr == f"error: {inp}: row 3: field larger than field limit (131072)\n"
    # A field at the limit is no error: 0.000... parses as 0.
    inp.write_text("z\n0." + "0" * 131_070 + "\n")
    res = run("apply", "--model", model_path, "--input", inp, "--out", tmp_path / "o.csv")
    assert res.exit_code == 0, res.stderr
    assert (tmp_path / "o.csv").read_text() == "z,z_cal\n0.0,0.0\n"


def test_apply_empty_score_stream_writes_header_only(tmp_path):
    model_path = tmp_path / "shift.json"
    save_model(str(model_path), UNIT_SHIFT, {})
    inp = tmp_path / "scores.csv"
    inp.write_text("z\n")
    res = run("apply", "--model", model_path, "--input", inp, "--out", tmp_path / "o.csv")
    assert res.exit_code == 0, res.stderr
    assert (tmp_path / "o.csv").read_text() == "z,z_cal\n"


def _writer_models():
    # Values 0.0 and -0.0 in different bins, so both bit patterns of zero
    # come out of each model.
    pw = PiecewiseRecalibrator(BinningScheme((0.0, 0.3, 0.6, 1.0)), (0.0, -0.0, 0.875), (2, 2, 2))
    return pw, compose(ShiftCorrector(exact_shift_weights(0.5, 0.2)), pw)


@pytest.mark.parametrize("which", [0, 1], ids=["piecewise", "composite"])
def test_apply_output_equals_per_row_formatting(tmp_path, which):
    h = _writer_models()[which]
    z = np.concatenate(([0.0, -0.0, 5e-324, 1.0, 0.3, 0.6, -0.0, 0.0],
                        sample(GaussianMixtureTask(0.5), 300, seed=9).z))
    model_path = tmp_path / "model.json"
    save_model(str(model_path), h, {})
    inp = tmp_path / "scores.csv"
    inp.write_text("z\n" + "".join(f"{fmt_float(v)}\n" for v in z))
    out = tmp_path / "calibrated.csv"
    res = run("apply", "--model", model_path, "--input", inp, "--out", out)
    assert res.exit_code == 0, res.stderr
    z_cal = apply_batch(h, z)
    want = "".join(f"{fmt_float(a)},{fmt_float(c)}\n" for a, c in zip(z, z_cal))
    assert out.read_text() == "z,z_cal\n" + want
    # The case the per-bit-pattern rendering must keep apart.
    assert {fmt_float(c) for c in z_cal} >= {"0.0", "-0.0"}


def test_plain_csv_takes_the_column_path(tmp_path):
    # The column-wise path accepts the files the CLI is fed in practice
    # (and the benchmark writes), with the row reader's arrays.
    d = sample(GaussianMixtureTask(0.5), 2_000, seed=3)
    files = {
        ("z", "y"): "z,y\n" + "".join(f"{z!r},{y}\n" for z, y in zip(d.z.tolist(), d.y.tolist())),
        ("z",): "z\n" + "\n".join(map(repr, d.z.tolist())),  # no final newline
        ("y",): "y\n" + "".join(f"{y}\n" for y in d.y.tolist()),
    }
    for header, text in files.items():
        path = tmp_path / "in.csv"
        path.write_text(text)
        fast = cli._split_columns(text.encode(), header)
        assert fast is not None, header
        ref, digest = read_columns_rowwise_ref(str(path), header)
        got, got_digest = cli._read_columns(str(path), header)
        assert got_digest == digest
        for a, b, c in zip(fast, got, ref):
            assert a.dtype == b.dtype == c.dtype
            assert a.tobytes() == b.tobytes() == c.tobytes()


# Rows of a valid file for each command, and the field values a mutation
# may put in: every input the column path must refuse or agree on.
CSV_BASES = {
    "fit": (b"z,y", [[b"0.1", b"0"], [b"0.25", b"1"], [b"0.5", b"0"], [b"0.75", b"1"], [b"1", b"1"]]),
    "apply": (b"z", [[b"0"], [b"0.3"], [b"0.5"], [b"1"]]),
    "shift": (b"y", [[b"0"], [b"1"], [b"1"], [b"0"]]),
}
CSV_FIELDS = [
    b"0", b"1", b"0.4", b"nan", b"inf", b"-0", b"-0.0", b"1e-400", b"-1e-400", b"5e-324",
    b"0_5", b"0.2_5", b" 1", b"1 ", b"\t0.5", b"+.5", b"", b"x", b"2", b"1.5", b"0,5",
    b'"0.5"', b'"1"', b'"0', b'0"', b"0" * 200_000, b"0." + b"0" * 131_070, b"\xff", b"0.5\x00",
    "０.５".encode(), " 0.5".encode(), b"1\x85",
    # float() reads these, and the field parsers refuse them.
    b'"1\n"', b'"0.5\n"', b"\x0b1", b"0.5\x0c", b"\x0c0", "1 ".encode(),
    # Spaces and tabs are the padding both readers allow.
    b"\t1", b"1\t", b" 0 ", b"\t0.5 ",
]


@st.composite
def csv_inputs(draw):
    command = draw(st.sampled_from(sorted(CSV_BASES)))
    head, rows = CSV_BASES[command]
    rows = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["field", "extra", "drop", "blank", "pad"]))
        if kind == "field" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(CSV_FIELDS))
        elif kind == "extra":
            rows[i].append(draw(st.sampled_from([b"", b"9", b"0"])))
        elif kind == "drop" and rows[i]:
            rows[i].pop()
        elif kind == "blank":
            rows.insert(i, [])
        elif kind == "pad" and rows[i]:
            rows[i][-1] = b" " + rows[i][-1] + b" "
    if draw(st.integers(0, 5)) == 0:
        head = draw(st.sampled_from([b"z,y", b"y,z", b" z , y", b"z", b"y", b"z,y,", b"Z", b""]))
    eol = draw(st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"]))
    data = eol.join([head] + [b",".join(r) for r in rows]) + eol
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from([b"\r", b"\n", b'"', b",", b" ", b"\x00"])) + data[k:]
    if draw(st.booleans()):
        data = data[:-draw(st.integers(1, 4))]  # a truncated last row
    if draw(st.integers(0, 5)) == 0:
        data = b"\xef\xbb\xbf" + data  # BOM
    if draw(st.integers(0, 5)) == 0:
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xff" + data[k:]
    return command, data


def _cli_outcome(tmp_path, command, path):
    out = tmp_path / "out"
    if out.exists():
        out.unlink()
    args = {
        "fit": ["fit", "--input", path, "--bins", 2],
        "apply": ["apply", "--model", tmp_path / "model.json", "--input", path],
        "shift": ["shift", "--labels-p", path, "--labels-q", tmp_path / "q.csv"],
    }[command]
    res = run(*args, "--out", out)
    assert res.exit_code in (0, 2, 3), res.exception
    if res.exit_code == 2:
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    return res.exit_code, res.stdout, res.stderr, out.read_bytes() if out.exists() else None


def _assert_same_outcome_as_row_reader(tmp_path, command, data):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    got = _cli_outcome(tmp_path, command, path)
    with mock.patch.object(cli, "_read_columns", read_columns_rowwise_ref):
        want = _cli_outcome(tmp_path, command, path)
    assert got == want, data[:200]


def _reader_fixtures(tmp_path):
    save_model(str(tmp_path / "model.json"), _writer_models()[0], {})
    labels_csv(tmp_path / "q.csv", 5, 5)


@pytest.mark.parametrize("command", sorted(CSV_BASES))
def test_each_csv_edge_case_matches_the_row_reader(tmp_path, command):
    # One change at a time to a valid file: each field value above in each
    # column of the first data row, and each byte csv treats specially at
    # each offset after the header.
    _reader_fixtures(tmp_path)
    head, rows = CSV_BASES[command]
    for j in range(len(rows[0])):
        for field in CSV_FIELDS:
            changed = [list(r) for r in rows]
            changed[0][j] = field
            _assert_same_outcome_as_row_reader(
                tmp_path, command, b"\n".join([head] + [b",".join(r) for r in changed]) + b"\n")
    data = b"\n".join([head] + [b",".join(r) for r in rows[:2]]) + b"\n"
    for k in range(len(head) + 1, len(data) + 1):
        for byte in (b"\r", b"\n", b'"', b",", b" ", b"\x00", b"\xff"):
            _assert_same_outcome_as_row_reader(tmp_path, command, data[:k] + byte + data[k:])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=csv_inputs())
def test_csv_readers_match_the_row_reader(tmp_path, case):
    # fit, apply and shift on a CSV with up to three changes to its rows,
    # header, line ends and bytes give the same exit code, stdout, stderr
    # and output bytes as with the row-by-row reader.
    _reader_fixtures(tmp_path)
    _assert_same_outcome_as_row_reader(tmp_path, *case)


def test_model_round_trip_is_bitwise(tmp_path):
    fitted = PiecewiseRecalibrator(
        BinningScheme((0.0, 0.21221, 0.503, 0.77, 1.0)),
        (0.13371, 0.4242, 0.586, 0.9192),
        (3, 4, 5, 6),
    )
    plugin = estimate_weights([0, 0, 1, 1, 1], [0, 1, 1, 1, 1])
    models = (
        fitted,
        ShiftCorrector(plugin),
        compose(ShiftCorrector(exact_shift_weights(0.5, 0.1)), fitted),
    )
    grid = np.linspace(0.0, 1.0, 10_001)
    for i, h in enumerate(models):
        path = tmp_path / f"model_{i}.json"
        save_model(str(path), h, {"i": i})
        loaded, meta = load_model(str(path))
        assert meta == {"i": i}
        assert np.array_equal(apply_batch(h, grid), apply_batch(loaded, grid))


def test_evaluation_caches_stay_out_of_identity_and_bytes(tmp_path):
    inner = PiecewiseRecalibrator(
        BinningScheme((0.0, 0.21221, 0.503, 0.77, 1.0)),
        (0.13371, 0.4242, 0.586, 0.9192),
        (3, 4, 5, 6),
    )
    comp = compose(ShiftCorrector(exact_shift_weights(0.5, 0.1)), inner)
    for i, h in enumerate((inner, comp)):
        path, again = tmp_path / f"model_{i}.json", tmp_path / f"again_{i}.json"
        save_model(str(path), h, {})
        # Evaluating builds the bin lookup and, for the composite, its
        # flattened map; the loaded twin has neither.
        apply_batch(h, np.linspace(0.0, 1.0, 101))
        assert "_cells" in vars(inner.scheme)
        assert isinstance(h, PiecewiseRecalibrator) or "_flat" in vars(h)
        twin, _ = load_model(str(path))
        assert h == twin and repr(h) == repr(twin) and hash(h) == hash(twin)
        save_model(str(again), h, {})
        assert again.read_bytes() == path.read_bytes()
        save_model(str(again), twin, {})
        assert again.read_bytes() == path.read_bytes()
    fields = {f.name for cls in (BinningScheme, Composite) for f in dataclasses.fields(cls)}
    assert fields == {"edges", "outer", "inner"}


# ----------------------------------------------------------------- shift

def test_shift_weight_estimate(tmp_path):
    p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
    labels_csv(p_path, 500, 500)
    labels_csv(q_path, 90, 10)
    out = tmp_path / "shift.json"
    res = run("shift", "--labels-p", p_path, "--labels-q", q_path, "--out", out)
    assert res.exit_code == 0, res.stderr
    assert "estimated weights: w_0 = 1.8, w_1 = 0.2" in res.output
    model, meta = load_model(str(out))
    assert isinstance(model, ShiftCorrector)
    assert model.weights.w == (1.8, 0.2)
    assert model.weights.provenance == "plug-in"
    assert meta["n_P"] == 1000 and meta["n_Q"] == 100


def test_shift_composite_with_base_model(tmp_path):
    base_path = tmp_path / "base.json"
    inp = tmp_path / "data.csv"
    inp.write_text(FIT_CSV)
    assert run("fit", "--input", inp, "--bins", 2, "--out", base_path).exit_code == 0

    p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
    labels_csv(p_path, 500, 500)
    labels_csv(q_path, 90, 10)
    comp_path = tmp_path / "composite.json"
    res = run("shift", "--labels-p", p_path, "--labels-q", q_path,
              "--base-model", base_path, "--out", comp_path)
    assert res.exit_code == 0, res.stderr
    model, meta = load_model(str(comp_path))
    assert meta["base_model"]["n"] == 4

    scores = tmp_path / "scores.csv"
    scores.write_text("z\n0.15\n")
    applied = tmp_path / "applied.csv"
    assert run("apply", "--model", comp_path, "--input", scores,
               "--out", applied).exit_code == 0
    # The base maps 0.15 to 0.5 and the (1.8, 0.2) corrector takes 0.5 to 0.1.
    assert float(applied.read_text().splitlines()[1].split(",")[1]) == pytest.approx(0.1, abs=1e-15)


def test_shift_identical_samples_give_unit_weights(tmp_path):
    p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
    labels_csv(p_path, 30, 20)
    labels_csv(q_path, 30, 20)
    res = run("shift", "--labels-p", p_path, "--labels-q", q_path,
              "--out", tmp_path / "m.json")
    assert res.exit_code == 0
    assert "w_0 = 1.0, w_1 = 1.0" in res.output


def test_shift_absent_class_exits_2(tmp_path):
    p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
    labels_csv(p_path, 10, 10)
    labels_csv(q_path, 10, 0)
    res = run("shift", "--labels-p", p_path, "--labels-q", q_path,
              "--out", tmp_path / "m.json")
    assert res.exit_code == 2


def test_shift_bad_label_row_names_file(tmp_path):
    p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
    labels_csv(p_path, 10, 10)
    q_path.write_text("y\n0\n1\n0.5\n")
    res = run("shift", "--labels-p", p_path, "--labels-q", q_path, "--out", tmp_path / "m.json")
    assert res.exit_code == 2
    assert res.stderr == f"error: {q_path}: row 4, column y: '0.5' is not 0 or 1\n"


def test_model_number_fields_must_be_json_numbers(tmp_path):
    # float() reads a string as its characters, strips the blanks of
    # " 0.25 " and takes true for 1.0, so each of these models loaded and
    # applied; the library constructors refuse them, as does the loader.
    piecewise = {"kind": "piecewise", "edges": [0.0, 0.5, 1.0],
                 "values": [0.25, 0.75], "counts": [1, 1]}
    cases = (
        (dict(piecewise, edges="01", values="0", counts=[1]),
         "edges must be a sequence of numbers, not str"),
        (dict(piecewise, edges=["0", "0.5", "1"], values=[" 0.25 ", "1e0"]),
         "edges must be real numbers, not str"),
        (dict(piecewise, values=[" 0.25 ", "1e0"]), "values must be real numbers, not str"),
        ({"kind": "shift", "w": "12", "provenance": "exact"}, "w must be a sequence of numbers, not str"),
        (dict(piecewise, values=[True, False]), "values must be real numbers, not bool"),
        (dict(piecewise, counts=[1, 1.0]), "counts must be integral numbers, not float"),
        (dict(piecewise, edges=5), "edges must be a sequence of numbers, not int"),
        # A JSON number, but past what a float holds.
        (dict(piecewise, edges=[0, 10 ** 400, 1]), "edges is too large for a float"),
        # Numbers the library refuses, and a missing field, share the prefix.
        ({"kind": "shift", "w": [5e-324, 5e-324], "provenance": "exact"},
         "class weights must be finite and at least 2.2250738585072014e-308"),
        (dict(piecewise, values=[0.25, 1.5]), "bin values must lie in [0, 1]"),
        ({k: v for k, v in piecewise.items() if k != "edges"}, "missing field 'edges'"),
    )
    scores, p_path, q_path = tmp_path / "scores.csv", tmp_path / "p.csv", tmp_path / "q.csv"
    scores.write_text("z\n0.5\n")
    labels_csv(p_path, 10, 10)
    labels_csv(q_path, 5, 5)
    for i, (model, message) in enumerate(cases):
        path = tmp_path / f"model_{i}.json"
        path.write_text(json.dumps({"format_version": 1, "model": model, "metadata": {}}))
        for res, written in (
                (run("apply", "--model", path, "--input", scores, "--out", tmp_path / "o.csv"),
                 tmp_path / "o.csv"),
                (run("shift", "--labels-p", p_path, "--labels-q", q_path,
                     "--base-model", path, "--out", tmp_path / "m.json"),
                 tmp_path / "m.json")):
            assert res.exit_code == 2, (model, res.output, res.exception)
            assert res.stderr == f"error: {path}: malformed model: {message}\n"
            assert res.stdout == "" and not written.exists()


def test_model_metadata_must_be_a_json_object(tmp_path):
    # "metadata": [] loaded, and shift --base-model copied it into the new
    # model; a missing metadata key still reads as {}.
    model = {"kind": "piecewise", "edges": [0.0, 0.5, 1.0], "values": [0.25, 0.75],
             "counts": [1, 1]}
    scores, p_path, q_path = tmp_path / "scores.csv", tmp_path / "p.csv", tmp_path / "q.csv"
    scores.write_text("z\n0.5\n")
    labels_csv(p_path, 10, 10)
    labels_csv(q_path, 5, 5)
    for i, metadata in enumerate(([], "n", 3, None)):
        path = tmp_path / f"model_{i}.json"
        path.write_text(json.dumps({"format_version": 1, "model": model, "metadata": metadata}))
        for res, written in (
                (run("apply", "--model", path, "--input", scores, "--out", tmp_path / "o.csv"),
                 tmp_path / "o.csv"),
                (run("shift", "--labels-p", p_path, "--labels-q", q_path,
                     "--base-model", path, "--out", tmp_path / "m.json"),
                 tmp_path / "m.json")):
            assert res.exit_code == 2, (metadata, res.output, res.exception)
            assert res.stderr == f"error: {path}: malformed model: metadata must be a JSON object\n"
            assert res.stdout == "" and not written.exists()
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"format_version": 1, "model": model}))
    assert load_model(str(bare))[1] == {}
    res = run("shift", "--labels-p", p_path, "--labels-q", q_path, "--base-model", bare,
              "--out", tmp_path / "m.json")
    assert res.exit_code == 0, res.stderr
    assert json.loads((tmp_path / "m.json").read_text())["metadata"]["base_model"] == {}


def test_model_and_config_json_are_read_as_utf8(tmp_path):
    # Under an ASCII locale, a model or config with a non-ASCII string was
    # refused with "'ascii' codec can't decode", although the CLI reads
    # nothing from the environment.
    model = {"kind": "piecewise", "edges": [0.0, 0.5, 1.0], "values": [0.25, 0.75],
             "counts": [1, 1]}
    base = tmp_path / "base.json"
    base.write_bytes(json.dumps({"format_version": 1, "model": model,
                                 "metadata": {"note": "caf\u00e9"}}, ensure_ascii=False).encode())
    config = tmp_path / "cfg.json"
    config.write_bytes('{"seeds": "zw\u00e9i"}'.encode())
    labels_csv(tmp_path / "p.csv", 10, 10)
    labels_csv(tmp_path / "q.csv", 5, 5)
    outputs = []
    for locale in ({"LC_ALL": "C.UTF-8"},
                   {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}):
        env = {k: v for k, v in _src_env().items() if k != "PYTHONIOENCODING"} | locale

        def cli_run(*args):
            return subprocess.run([sys.executable, "-m", "recalib.cli", *args], cwd=tmp_path,
                                  env=env, capture_output=True)

        shift = cli_run("shift", "--labels-p", "p.csv", "--labels-q", "q.csv",
                        "--base-model", "base.json", "--out", "m.json")
        assert shift.returncode == 0, shift.stderr
        simulate = cli_run("simulate", "risk-grid", "--config", "cfg.json", "--out-dir", "d")
        assert simulate.returncode == 2
        assert simulate.stderr == b"error: bad config: seeds must be integral numbers, not str\n"
        outputs.append((shift.stdout, shift.stderr, (tmp_path / "m.json").read_bytes()))
    assert outputs[0] == outputs[1]
    assert b'"note": "caf\\u00e9"' in outputs[0][2]


def test_shift_unwritable_out_exits_2(tmp_path):
    p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
    labels_csv(p_path, 10, 10)
    labels_csv(q_path, 5, 5)
    out = tmp_path / "nodir" / "m.json"
    res = run("shift", "--labels-p", p_path, "--labels-q", q_path, "--out", out)
    assert res.exit_code == 2
    assert res.stderr == f"error: {out}: No such file or directory\n"
    assert res.stdout == ""


def test_shift_base_model_must_be_piecewise(tmp_path):
    base_path = tmp_path / "shift.json"
    save_model(str(base_path), UNIT_SHIFT, {})
    p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
    labels_csv(p_path, 10, 10)
    labels_csv(q_path, 5, 5)
    res = run("shift", "--labels-p", p_path, "--labels-q", q_path,
              "--base-model", base_path, "--out", tmp_path / "m.json")
    assert res.exit_code == 2
    assert "--base-model must hold a piecewise model" in res.stderr
    assert res.stdout == ""


# ----------------------------------------------------------------- bound

def assert_usage_error(res, *needles: str) -> None:
    """Exit 2 from click's own checks: nothing on stdout, and a usage
    block on stderr that ends in one ``Error:`` line holding the needles
    (its exact wording differs between click versions)."""
    assert res.exit_code == 2, (res.output, res.exception)
    assert res.stdout == ""
    assert res.stderr.startswith("Usage: ")
    last = res.stderr.splitlines()[-1]
    assert last.startswith("Error: ") and all(n in last for n in needles), res.stderr


def test_bound_single_distribution():
    res = run("bound", "--n", 1000, "--B", 10)
    assert res.exit_code == 0
    got = line_value(res.output, "calibration risk bound:")
    assert got == pytest.approx(CAL_BOUND_1000_10_01, rel=1e-12)
    assert line_value(res.output, "sharpness risk bound:") == 0.2
    assert "NOT MET" in res.output

    # A given --K selects the smooth sharpness term 8K^2/B^2, even K = 0.
    smooth = run("bound", "--n", 1000, "--B", 10, "--K", 1)
    assert line_value(smooth.output, "sharpness risk bound:") == pytest.approx(0.08, rel=1e-15)
    flat = run("bound", "--n", 1000, "--B", 10, "--K", 0)
    assert line_value(flat.output, "sharpness risk bound:") == 0.0
    steep = run("bound", "--n", 1000, "--B", 10, "--K", 5)
    assert "sharpness risk bound:   2.0" in steep.stdout.splitlines()


SHIFT_FLAGS = ("--B", 46, "--n-p", 100_000, "--n-q", 1_000, "--p-min", 0.1,
               "--q-min", 0.1, "--w-min", 0.2, "--w-max", 1.8)
REALIZED_FLAGS = ("--B", 10, "--n-p", 1_000_000, "--n-q", 1_000_000,
                  "--p-min", 0.5, "--q-min", 0.5, "--w-min", 1, "--w-max", 1,
                  "--rho0", 1.1, "--rho1", 0.9, "--risk-p", 0)
SINGLE_FLAGS = ("--n", 1000, "--B", 10)
SINGLE_1000_10 = ("calibration risk bound: 0.03383899780681299\n"
                  "sharpness risk bound:   {sha}\n"
                  "total risk bound:       {total}\n"
                  "sample-size gate:       NOT MET (n = 1000 fails n >= c B log(2B/delta) = 128219.3)\n")
SHIFT_46 = ("recalibration terms (shift-scaled): cal 0.5628880103936224, sha {sha}\n"
            "target risk bound: {total}\n"
            "gates: NOT MET (n_P = 100000 fails threshold 836850.4; n_Q = 1000 fails threshold 1370.3)\n")
REALIZED_10 = ("recalibration terms (shift-scaled): cal {cal}, sha {sha}\n"
               "target risk bound: {total}\n"
               "gates: ok (n_P = 1000000 meets threshold {gp}; n_Q = 1000000 meets threshold {gq})\n"
               "realized-ratio bound: 0.020000000000000014\n")

# Each accepted `bound` invocation of version 0.3, its spelling since 0.4.0,
# and the stdout the 0.3 command printed, byte for byte.
BOUND_SPELLINGS = [
    (("bound", *SINGLE_FLAGS), ("bound", *SINGLE_FLAGS),
     SINGLE_1000_10.format(sha="0.2", total="0.233838997806813")),
    (("bound", *SINGLE_FLAGS, "--no-smooth"), ("bound", *SINGLE_FLAGS),
     SINGLE_1000_10.format(sha="0.2", total="0.233838997806813")),
    (("bound", *SINGLE_FLAGS, "--smooth"), ("bound", *SINGLE_FLAGS, "--K", 1),
     SINGLE_1000_10.format(sha="0.08", total="0.11383899780681299")),
    (("bound", *SINGLE_FLAGS, "--smooth", "--K", 0), ("bound", *SINGLE_FLAGS, "--K", 0),
     SINGLE_1000_10.format(sha="0.0", total="0.03383899780681299")),
    (("bound", *SINGLE_FLAGS, "--smooth", "--K", 1), ("bound", *SINGLE_FLAGS, "--K", 1),
     SINGLE_1000_10.format(sha="0.08", total="0.11383899780681299")),
    (("bound", *SINGLE_FLAGS, "--smooth", "--K", 5), ("bound", *SINGLE_FLAGS, "--K", 5),
     SINGLE_1000_10.format(sha="2.0", total="2.033838997806813")),
    (("bound", "--n", 100_000, "--B", 20, "--delta", 0.05, "--smooth", "--K", 2.5),
     ("bound", "--n", 100_000, "--B", 20, "--delta", 0.05, "--K", 2.5),
     "calibration risk bound: 0.0007488293742880278\n"
     "sharpness risk bound:   0.125\n"
     "total risk bound:       0.12574882937428802\n"
     "sample-size gate:       NOT MET (n = 100000 fails n >= c B log(2B/delta) = 323535.2)\n"),
    (("bound", *SHIFT_FLAGS), ("bound-shift", *SHIFT_FLAGS),
     SHIFT_46.format(sha="1.1024574669187144", total="4.405939337538603")),
    (("bound", *SHIFT_FLAGS, "--K", 3), ("bound-shift", *SHIFT_FLAGS, "--K", 3),
     SHIFT_46.format(sha="9.92211720226843", total="13.225599072888318")),
    (("bound", *REALIZED_FLAGS), ("bound-shift", *REALIZED_FLAGS),
     REALIZED_10.format(cal="6.707823761716832e-05", sha="0.16", total="0.16061519700966242",
                        gp="144993.4", gq="274.1")),
    (("bound", *REALIZED_FLAGS, "--K", 0.5, "--delta", 0.2),
     ("bound-shift", *REALIZED_FLAGS, "--K", 0.5, "--delta", 0.2),
     REALIZED_10.format(cal="6.01343788504044e-05", sha="0.04", total="0.040533393255395185",
                        gp="128219.3", gq="236.6")),
]


@pytest.mark.parametrize("old, new, stdout", BOUND_SPELLINGS,
                         ids=[" ".join(map(str, old[5:])) or "plain" for old, _, _ in BOUND_SPELLINGS])
def test_bound_new_spelling_prints_the_old_stdout(old, new, stdout):
    res = run(*new)
    assert res.exit_code == 0, res.stderr
    assert res.stdout == stdout


def test_bound_label_shift_mode():
    res = run("bound-shift", *SHIFT_FLAGS)
    assert res.exit_code == 0, res.stderr
    assert line_value(res.output, "target risk bound:") == pytest.approx(
        SHIFT_APRIORI_EXAMPLE, rel=1e-12
    )
    assert "gates: NOT MET" in res.output


def test_bound_label_shift_missing_flags():
    # click names the first missing required flag.
    assert_usage_error(run("bound-shift", "--B", 46, "--n-p", 100), "Missing option", "--n-q")
    assert_usage_error(run("bound-shift", *SHIFT_FLAGS[:-2]), "Missing option", "--w-max")


def test_bound_realized_ratio_line():
    res = run("bound-shift", *REALIZED_FLAGS)
    assert res.exit_code == 0, res.stderr
    assert line_value(res.output, "realized-ratio bound:") == pytest.approx(0.02, abs=1e-12)


def test_bound_argument_errors():
    assert_usage_error(run("bound", "--B", 10), "Missing option", "'--n'")
    res = run("bound", "--n", 10, "--B", 10)
    assert_input_error(res)
    assert res.stdout == ""
    assert_input_error(run(*("bound", *SINGLE_FLAGS), "--K", "nan"))
    shift = ("bound-shift", *SHIFT_FLAGS)
    assert_input_error(run(*shift, "--K", "inf"))
    # Finite flags whose arithmetic overflows, or divides by a square that
    # underflows to 0, are refused rather than a traceback, and so are
    # those that make a printed bound or gate threshold inf.
    for args in (("bound", "--n", 10**400, "--B", 10),
                 ("bound-shift", *SHIFT_FLAGS, "--n-q", 10**400),
                 ("bound-shift", *SHIFT_FLAGS, "--w-min", 1e-300),
                 ("bound-shift", *SHIFT_FLAGS, "--w-max", 1e200),
                 ("bound", "--n", 1000, "--B", 10, "--K", 1e200),
                 ("bound", "--n", 1000, "--B", 10, "--delta", 1e-320),
                 ("bound", "--n", 10**306, "--B", 10**305),  # only the threshold overflows
                 ("bound-shift", *SHIFT_FLAGS, "--K", 1e200),
                 ("bound-shift", *SHIFT_FLAGS, "--delta", 1e-320),
                 ("bound-shift", *SHIFT_FLAGS, "--p-min", 1e-320),
                 ("bound-shift", *REALIZED_FLAGS, "--risk-p", 1e308)):
        res = run(*args)
        assert_input_error(res)
        assert res.stdout == "" and "out of floating-point range" in res.stderr, args
    # Non-finite label-shift inputs are refused, not printed as inf or nan.
    for flags in (("--w-max", "inf"), ("--w-min", "nan"), ("--p-min", "inf"),
                  ("--q-min", "nan"),
                  ("--rho0", "nan", "--rho1", 1, "--risk-p", 0.1),
                  ("--rho0", "inf", "--rho1", 1, "--risk-p", 0.1),
                  ("--rho0", 1, "--rho1", 1, "--risk-p", "nan"),
                  ("--rho0", 1, "--rho1", 1, "--risk-p", "inf")):
        res = run(*shift, *flags)
        assert_input_error(res)
        assert res.stdout == "", flags
    # The realized-ratio bound needs all three of its flags or none.
    for flags, missing in ((("--rho0", 1.1, "--risk-p", 0.1), "--rho1"),
                           (("--rho0", 1.1, "--rho1", 0.9), "--risk-p"),
                           (("--risk-p", 0.1,), "--rho0, --rho1"),
                           (("--rho1", 0.9,), "--rho0, --risk-p")):
        res = run(*shift, *flags)
        assert_input_error(res)
        assert res.stdout == "", flags
        assert res.stderr == f"error: the realized-ratio bound needs {missing}\n"
    # Each command has only its own mode's flags; click refuses the rest,
    # which version 0.3 refused by hand.
    single = ("bound", *SINGLE_FLAGS)
    for args, flag in (
        ((*single, "--rho0", 1.1, "--w-max", 3), "--rho0"),
        ((*single, "--rho0", 1.1), "--rho0"),
        ((*single, "--n-q", 100, "--p-min", 0.1, "--q-min", 0.1, "--w-min", 1,
          "--rho1", 1, "--risk-p", 0), "--n-q"),
        ((*shift, "--n", 1000), "--n"),
        ((*shift, "--smooth"), "--smooth"),
        ((*shift, "--no-smooth"), "--no-smooth"),
        ((*shift, "--n", 1000, "--smooth"), "--n"),
        ((*single, "--smooth"), "--smooth"),
        ((*single, "--no-smooth", "--K", 1), "--no-smooth"),
    ):
        assert_usage_error(run(*args), "No such option", flag)


# --------------------------------------------------------------- optbins

def test_optbins_frozen_example():
    res = run("optbins", "--n", 1_000_000, "--K", 1)
    assert res.exit_code == 0
    assert "B_star = 76" in res.output
    zeta_line = next(l for l in res.output.splitlines() if l.startswith("zeta_min"))
    assert float(zeta_line.split("=")[1]) == pytest.approx(ZETA_76_1E6, rel=1e-12)


def test_optbins_zero_smoothness():
    res = run("optbins", "--n", 4, "--delta", 0.5, "--K", 0)
    assert res.exit_code == 0
    assert "B_star = 2" in res.output


def test_optbins_defaults_warn_about_K():
    res = run("optbins", "--n", 1_000_000)
    assert res.exit_code == 0
    assert "assuming K=1" in res.stderr
    assert "B_star = 76" in res.output


def test_optbins_task_estimates_K():
    res = run("optbins", "--n", 1_000_000, "--task", "gaussian")
    assert res.exit_code == 0
    assert "assuming K=1" not in res.stderr
    # zeta_min is not pinned: its last digits may differ across CPUs.
    assert "B_star = 501" in res.stdout.splitlines()


def test_optbins_small_n_exits_2():
    assert run("optbins", "--n", 3, "--K", 1).exit_code == 2
    # An n past the float range is refused, not a traceback.
    # So is a finite --K whose objective overflows to inf at every B.
    for flags in (("--n", 10**400, "--K", 1), ("--n", 1000, "--K", 1e200)):
        res = run("optbins", *flags)
        assert_input_error(res)
        assert res.stdout == "" and "out of floating-point range" in res.stderr, flags
    for flags in (("--K", "nan"), ("--K", "inf"), ("--K", -1), ("--K", 1, "--delta", "nan"),
                  ("--task", "gaussian", "--pi", 1.5), ("--task", "gaussian", "--pi", 0)):
        assert_input_error(run("optbins", "--n", 1000, *flags))
    for flags, message in (
        (("--K", 1, "--task", "gaussian"),
         "--K and --task both set the smoothness constant; pass one"),
        (("--K", 1, "--pi", 0.3), "--pi needs --task"),
        (("--pi", 0.3), "--pi needs --task"),
    ):
        res = run("optbins", "--n", 100_000, *flags)
        assert_input_error(res)
        assert res.stdout == "", flags
        assert res.stderr == f"error: {message}\n", flags


# -------------------------------------------------------------- simulate

def test_simulate_risk_grid(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_grid": [100, 1000], "B_grid": [6, 60], "seeds": 2}))
    out_dir = tmp_path / "run1"
    res = run("simulate", "risk-grid", "--config", cfg, "--out-dir", out_dir)
    assert res.exit_code == 0, res.stderr
    assert res.stdout == f"risk grid written to {out_dir} (4 cells, 1 skipped)\n"
    assert res.stderr == "warning: 1 cell(s) skipped (fewer than two points per bin)\n"

    lines = (out_dir / "risk_grid.csv").read_text().splitlines()
    assert lines[0] == "n,B,seed,r_cal,r_sha,r,mse,cal_bound,sha_bound,risk_bound,gates_ok"
    assert len(lines) == 8
    assert "100,60,-1,,,,,,,,0" in lines

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["experiment"] == "risk-grid"
    assert manifest["config"]["n_grid"] == [100, 1000]
    assert len(manifest["cells"]) == 4

    out_dir2 = tmp_path / "run2"
    assert run("simulate", "risk-grid", "--config", cfg, "--out-dir", out_dir2).exit_code == 0
    assert (out_dir2 / "risk_grid.csv").read_bytes() == (out_dir / "risk_grid.csv").read_bytes()
    assert (out_dir2 / "manifest.json").read_bytes() == (out_dir / "manifest.json").read_bytes()


def test_simulate_seed_overrides_base(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_grid": [100], "B_grid": [6], "seeds": 1}))
    out_dir = tmp_path / "seeded"
    res = run("simulate", "risk-grid", "--config", cfg, "--seed", 7, "--out-dir", out_dir)
    assert res.exit_code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["base_seed"] == 7


def test_simulate_config_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    res = run("simulate", "risk-grid", "--config", bad_json, "--out-dir", tmp_path / "x")
    assert res.exit_code == 2
    assert not (tmp_path / "x").exists()

    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"n_gird": [100]}))
    res2 = run("simulate", "risk-grid", "--config", typo, "--out-dir", tmp_path / "y")
    assert res2.exit_code == 2
    assert "bad config" in res2.stderr
    assert not (tmp_path / "y").exists()

    # An output directory that cannot be made is refused, not a traceback.
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"n_grid": [100], "B_grid": [6], "seeds": 1}))
    for out_dir in ("", tmp_path / "tiny.json" / "d"):
        res3 = run("simulate", "risk-grid", "--config", tiny, "--out-dir", out_dir)
        assert_input_error(res3)
        assert res3.stdout == ""

    # A delta whose bounds overflow is refused, not written as inf.
    tiny.write_text(json.dumps({"n_grid": [100], "B_grid": [6], "seeds": 1, "delta": 1e-320}))
    for experiment in ("risk-grid", "opt-b"):
        res4 = run("simulate", experiment, "--config", tiny, "--out-dir", tmp_path / experiment)
        assert_input_error(res4)
        assert res4.stdout == "" and "out of floating-point range" in res4.stderr
        assert not (tmp_path / experiment).exists()

    # Configs the study cannot run: an n with no feasible bin count, a
    # class that stays absent through every replacement draw, and arrays
    # nested past the JSON parser's recursion limit.
    for experiment, text, needle in (
        ("opt-b", '{"n_grid": [10], "B_grid": [6]}', "no feasible bin count for n=10"),
        ("label-shift", '{"pi_target": 1e-300, "seeds": 1}', "zero frequency"),
        ("risk-grid", "[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
    ):
        tiny.write_text(text)
        out_dir = tmp_path / f"unrunnable-{experiment}"
        res5 = run("simulate", experiment, "--config", tiny, "--out-dir", out_dir)
        assert_input_error(res5)
        assert res5.stdout == "" and needle in res5.stderr, res5.stderr
        assert not out_dir.exists()


# Each config is small, so that a regression that accepts it runs quickly.
MISTYPED_CONFIGS = [
    ("risk-grid", '{"seeds": 2.5, "n_grid": [100], "B_grid": [6]}',
     "seeds must be integral numbers, not float"),
    ("label-shift", '{"n_P": 1e400, "seeds": 1}', "n_P must be integral numbers, not float"),
    ("risk-grid", '{"full_scale": "no", "n_grid": [100], "B_grid": [512], "seeds": 1}',
     "full_scale must be a bool, not str"),
    ("risk-grid", '{"base_seed": 1.5, "n_grid": [100], "B_grid": [6], "seeds": 1}',
     "base_seed must be integral numbers, not float"),
    ("risk-grid", '{"n_grid": [1000.7], "B_grid": [6], "seeds": 1}',
     "n_grid must be integral numbers, not float"),
    ("risk-grid", '{"seeds": true, "n_grid": [100], "B_grid": [6]}',
     "seeds must be integral numbers, not bool"),
    ("label-shift", '{"methods": "Source", "seeds": 1}', "methods must be a list or tuple, not str"),
    ("label-shift", '{"pi_target": NaN, "seeds": 1}', "pi_target must lie strictly between 0 and 1"),
    # Past what a float holds, so float() raises OverflowError.
    ("label-shift", '{"pi_target": 1%s, "seeds": 1}' % ("0" * 400),
     "pi_target is too large for a float"),
    # One seed past the desk-scale cap. 10**30 seeds would draw until killed;
    # 1001 small draws would end in seconds if the cap regressed.
    ("label-shift", '{"seeds": 1001, "n_P": 100, "n_Q": 100}',
     "seeds must be at most 1000 (the desk-scale cap); set full_scale to run more"),
]


@pytest.mark.parametrize("experiment, text, message", MISTYPED_CONFIGS)
def test_simulate_refuses_mistyped_config(tmp_path, experiment, text, message):
    # A value of the wrong JSON type, or past a desk-scale cap, is refused,
    # not truncated, coerced or run.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    res = run("simulate", experiment, "--config", cfg, "--out-dir", tmp_path / "out")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"error: bad config: {message}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]


# A sample past the desk-scale caps, past what an array can address, and
# one that passes every check but cannot be allocated. Each config asks
# for at most one draw, so a regression that runs it fails at once.
HUGE = 10 ** 30
UNALLOCATABLE = sys.maxsize // 8
OVERSIZED_CONFIGS = [
    ("label-shift", {"n_P": HUGE}, "bad config: n_P and n_Q must be at most 1000000"),
    ("label-shift", {"n_Q": 2_000_000}, "bad config: n_P and n_Q must be at most 1000000"),
    ("label-shift", {"n_P": HUGE, "full_scale": True}, "bad config: sample sizes must be at most"),
    ("risk-grid", {"n_grid": [HUGE], "B_grid": [6], "full_scale": True},
     "bad config: sample sizes must be at most"),
    ("label-shift", {"n_P": UNALLOCATABLE, "full_scale": True}, "the study's samples do not fit"),
    ("risk-grid", {"n_grid": [UNALLOCATABLE], "B_grid": [6], "full_scale": True},
     "the study's samples do not fit"),
]


@pytest.mark.parametrize("experiment, overrides, message", OVERSIZED_CONFIGS)
def test_simulate_refuses_oversized_samples(tmp_path, experiment, overrides, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**overrides, "seeds": 1}))
    res = run("simulate", experiment, "--config", cfg, "--out-dir", tmp_path / "out")
    assert_input_error(res)
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {message}")
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]


VALID_LABEL_SHIFT_MANIFEST = """{
  "B_P": 6,
  "B_Q": 4,
  "config": {
    "B_grid": [
      6
    ],
    "base_seed": 3,
    "delta": 0.05,
    "full_scale": false,
    "methods": [
      "Source",
      "LabelShift"
    ],
    "n_P": 200,
    "n_Q": 50,
    "n_grid": [
      100
    ],
    "pi_source": 0.5,
    "pi_target": 0.25,
    "seeds": 1
  },
  "experiment": "label-shift",
  "library_version": "%s",
  "replacements": 0,
  "seed_rule": "PCG64(SeedSequence((base_seed, *cell_fields)))"
}
"""


def test_simulate_config_with_every_field_type_keeps_manifest_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n_grid": [100], "B_grid": [6], "delta": 0.05, "seeds": 1, "base_seed": 3,
        "pi_source": 0.5, "pi_target": 0.25, "n_P": 200, "n_Q": 50,
        "methods": ["Source", "LabelShift"], "full_scale": False,
    }))
    out_dir = tmp_path / "out"
    res = run("simulate", "label-shift", "--config", cfg, "--out-dir", out_dir)
    assert res.exit_code == 0, res.stderr
    manifest = (out_dir / "manifest.json").read_text()
    assert manifest == VALID_LABEL_SHIFT_MANIFEST % recalib.__version__


def test_simulate_label_shift(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_P": 64, "n_Q": 27, "seeds": 2}))
    out_dir = tmp_path / "shift"
    res = run("simulate", "label-shift", "--config", cfg, "--out-dir", out_dir)
    assert res.exit_code == 0, res.stderr
    assert res.stdout == f"label-shift study written to {out_dir}\n"
    assert res.stderr == ""
    lines = (out_dir / "label_shift.csv").read_text().splitlines()
    assert lines[0] == "method,seed,r_cal,r_sha,r,mse"
    assert len(lines) == 9
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["B_P"] == 4 and manifest["B_Q"] == 3
    assert manifest["replacements"] == 0

    # At pi_target 0.01 most draws of 10 target points hold no positive.
    cfg.write_text(json.dumps({"n_P": 100, "n_Q": 10, "pi_target": 0.01, "seeds": 2}))
    retry_dir = tmp_path / "retry"
    res = run("simulate", "label-shift", "--config", cfg, "--out-dir", retry_dir)
    assert res.exit_code == 0, res.stderr
    assert res.stdout == f"label-shift study written to {retry_dir}\n"
    assert res.stderr == "warning: 14 draw(s) replaced because a class was absent\n"
    assert json.loads((retry_dir / "manifest.json").read_text())["replacements"] == 14


def test_simulate_opt_b(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_grid": [1000], "B_grid": [6, 10, 16], "seeds": 1}))
    out_dir = tmp_path / "optb"
    res = run("simulate", "opt-b", "--config", cfg, "--out-dir", out_dir)
    assert res.exit_code == 0, res.stderr
    assert res.stdout == f"bin-count study written to {out_dir} (K_hat = 18.5216)\n"
    assert res.stderr == ""
    lines = (out_dir / "opt_b.csv").read_text().splitlines()
    assert lines[0] == "n,B_star_exp,B_star_theory,zeta_min"
    assert len(lines) == 2
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["K_hat"] == pytest.approx(18.52161577549451, rel=1e-9)


def test_simulate_full_scale_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"n_grid": [10_000], "B_grid": [512], "seeds": 1, "full_scale": True}
    ))
    out_dir = tmp_path / "full"
    res = run("simulate", "risk-grid", "--config", cfg, "--out-dir", out_dir)
    assert res.exit_code == 0, res.stderr
    lines = (out_dir / "risk_grid.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("10000,512,0,")

    capless = tmp_path / "capless.json"
    capless.write_text(json.dumps({"n_grid": [10_000], "B_grid": [512], "seeds": 1}))
    res2 = run("simulate", "risk-grid", "--config", capless, "--out-dir", tmp_path / "no")
    assert res2.exit_code == 2
    assert "full_scale" in res2.stderr


# -------------------------------------------------------------- argv fuzz

# Values an option may get: finite numbers, signed zeros, nan, infinities,
# huge and negative integers, empty strings and words.
ARGV_VALUES = [
    "0", "-0", "0.0", "-0.0", "1", "2", "3", "4", "10", "46", "0.1", "0.3", "0.5", "0.99",
    "1e-300", "1e-320", "1e200", "-1", "-0.5", "1000", "100000", "1000000", "1.5", "nan",
    "-nan", "inf", "-inf", "1e400", str(2**63), str(10**30), str(-10**30), str(10**400),
    "", " ", "auto", "gaussian", "x", "-", "risk-grid", "opt-b", "label-shift",
]
# Options of other commands and of no command.
STRAY_OPTIONS = ["--n", "--B", "--K", "--bins", "--task", "--pi", "--n-p", "--rho0",
                 "--smooth", "--no-smooth", "--out", "--config", "--seed", "--version"]


def _argv_fixtures(root) -> dict:
    """Input files for the argv fuzz, under ``root``; outputs go elsewhere."""
    root.mkdir(exist_ok=True)
    files = {
        "data": FIT_CSV,
        "ties": "z,y\n0.5,0\n0.5,1\n0.5,0\n0.5,1\n",
        "bad": "z,y\n0.1,2\n",
        "scores": "z\n0.1\n0.9\n",
        "p": "y\n0\n0\n0\n1\n1\n",
        "q": "y\n0\n1\n1\n1\n1\n",
        "tiny": json.dumps({"n_grid": [100], "B_grid": [6], "seeds": 1, "n_P": 64, "n_Q": 27}),
        "badcfg": json.dumps({"seeds": 2.5}),
    }
    paths = {}
    for name, text in files.items():
        paths[name] = str(root / name)
        (root / name).write_text(text)
    paths["model"] = str(root / "model")
    save_model(paths["model"], _writer_models()[0], {})
    return paths


def _argv_bases(paths: dict) -> dict:
    """A valid argv per command, as (option, values) pairs: the option
    with any of its values parses."""
    shift = (("--B", "46"), ("--n-p", "100000"), ("--n-q", "1000"), ("--p-min", "0.1"),
             ("--q-min", "0.1"), ("--w-min", "0.2"), ("--w-max", "1.8"))
    return {
        "fit": (("--input", (paths["data"], paths["ties"])), ("--bins", ("2", "auto")),
                ("--out", "m.json")),
        "apply": (("--model", paths["model"]), ("--input", paths["scores"]), ("--out", "o.csv")),
        "shift": (("--labels-p", paths["p"]), ("--labels-q", paths["q"]),
                  ("--base-model", paths["model"]), ("--out", "s.json")),
        "bound": (("--n", "1000"), ("--B", "10")),
        "bound-shift": shift + (("--rho0", "1.1"), ("--rho1", "0.9"), ("--risk-p", "0")),
        "optbins": (("--n", ("1000000", "100")), ("--K", "1")),
        # Its --config always comes first, so the study stays tiny: a later
        # --config wins, and every value it can get is small or refused.
        "simulate": (("--config", paths["tiny"]), ("--out-dir", "d")),
    }


@st.composite
def argv_cases(draw, paths: dict) -> list[str]:
    """A valid argv with options dropped, values replaced and options of
    the command or others added."""
    bases = _argv_bases(paths)
    name = draw(st.sampled_from(sorted(bases)))
    own = [opt for p in main.commands[name].params for opt in p.opts if opt.startswith("--")]
    values = st.sampled_from(ARGV_VALUES + sorted(paths.values())
                             + ["sub/o.json", ".", "m.json"])
    args = [name]
    if name == "simulate":
        args.append(draw(st.sampled_from(["risk-grid", "opt-b", "label-shift", "x"])))
    # About one drop and one replaced value per argv, whatever its length.
    odds = st.integers(0, 2 * len(bases[name]))
    for i, (opt, valid) in enumerate(bases[name]):
        if (name, i) != ("simulate", 0) and draw(odds) == 0:
            continue
        valid = st.sampled_from(valid) if isinstance(valid, tuple) else st.just(valid)
        args += [opt, draw(values if draw(odds) == 0 else valid)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        args.append(draw(st.sampled_from(own + STRAY_OPTIONS)))
        if draw(st.integers(0, 5)):
            args.append(draw(values))
    return args


def check_argv(work, inputs, args: list[str]) -> None:
    """Run ``recalib *args`` in-process with ``work`` as the working
    directory, where every relative output path lands, and check that it
    exits 0, 2 or 3; that a failure prints nothing on stdout, ends stderr
    with one error line and leaves no file behind, in ``work`` or as a
    temporary sibling of an input file under ``inputs``; then empty
    ``work``."""
    res = CliRunner().invoke(main, args)
    created = sorted(str(p.relative_to(work)) for p in work.rglob("*"))
    created += sorted(p.name for p in inputs.glob(".tmp.*"))
    for entry in work.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()
    assert res.exception is None or isinstance(res.exception, SystemExit), (args, res.exception)
    assert res.exit_code in (0, 2, 3), args
    if res.exit_code:
        assert res.stdout == "", (args, res.stdout)
        assert created == [], (args, created)
        *before, last = res.stderr.splitlines()
        # click's usage errors end in one "Error:" line, most after a usage
        # block; the program's own are one "error:" line after any warnings.
        if last.startswith("Error: "):
            assert res.exit_code == 2, args
        else:
            assert last.startswith("error: "), (args, res.stderr)
            assert all(line.startswith("warning: ") for line in before), (args, res.stderr)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_argv_fuzz_exits_0_2_or_3_and_fails_cleanly(tmp_path, monkeypatch, data):
    # Each command, on argv drawn from its own options and stray ones,
    # with numbers, nan, infinities, huge ints, empty strings and words.
    paths = _argv_fixtures(tmp_path / "in")
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    monkeypatch.chdir(work)
    check_argv(work, tmp_path / "in", data.draw(argv_cases(paths)))

"""End-to-end CLI behavior through click's test runner."""

import ast
import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from unittest import mock

import click
import numpy as np
import pytest
import scipy
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import recalib
from recalib import cli, experiments
from recalib.cli import MODEL_FORMAT_VERSION, load_model, main, save_model
from recalib.core import (
    BinningScheme,
    Composite,
    PiecewiseRecalibrator,
    ShiftCorrector,
    apply_batch,
    estimate_weights,
)
from recalib.experiments import ExperimentConfig
from recalib.fileio import fmt_float, write_text_atomic
from recalib.oracle import GaussianMixtureTask, exact_shift_weights, sample

from frozen import CAL_BOUND_1000_10_01, SHIFT_APRIORI_EXAMPLE, ZETA_76_1E6
from oracles import read_columns_rowwise_ref

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


def _modules_after(code: str, *args: str, package: str = "scipy") -> str:
    """Last stdout line of a fresh interpreter that runs ``code`` and then
    prints the recalib.oracle flag and the sorted loaded ``package`` modules."""
    code += ("\nprint('recalib.oracle' in sys.modules, "
             f"sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code, *args], env=_src_env(),
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1]


def test_cli_import_does_not_load_scipy():
    # The oracle and the experiments load on first use, so no command
    # pays for scipy at start-up. Nor for concurrent.futures, which
    # core._concurrently imports for its first call on 2**17 points.
    assert _modules_after("import sys, recalib.cli") == "False []"
    for module in ("recalib", "recalib.cli"):
        assert _modules_after(f"import sys, {module}", package="concurrent") == "False []"


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
    assert _modules_after(code, argv) == "False []"
    assert (tmp_path / "b.csv").read_text().startswith("z,z_cal\n")


def test_studies_and_risks_do_not_load_scipy_integrate():
    # The oracle integrates with numpy alone: a study, or the risk of any
    # recalibrator form, loads scipy.special and nothing heavier.
    code = """
import sys
import recalib.experiments as e
from recalib.core import BinningScheme, Composite, PiecewiseRecalibrator, ShiftCorrector
from recalib.oracle import GaussianMixtureTask, exact_shift_weights, population_risk
tiny = e.ExperimentConfig(n_grid=(1000,), B_grid=(6, 10), seeds=1, n_P=64, n_Q=27)
e.run_risk_grid(tiny)
e.run_optimal_B(tiny)
e.run_label_shift(tiny)
e.run_label_shift(e.ExperimentConfig(seeds=1))
task = GaussianMixtureTask(0.3)
pw = PiecewiseRecalibrator(BinningScheme((0.0, 0.4, 1.0)), (0.2, 0.7), (1, 1))
shift = ShiftCorrector(exact_shift_weights(0.5, 0.3))
for h in (pw, Composite(outer=shift, inner=pw), lambda z: z, shift, lambda z: z * z):
    population_risk(task, h)
"""
    flag, modules = _modules_after(code).split(" ", 1)
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
    assert _modules_after("import sys, recalib") == "False []"


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
        ("z,y\n", ["no data rows"]),
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
        (("--bins", 2, "--delta", 0), "delta must lie in (0, 1)"),
        (("--bins", "several"), "--bins must be an integer or 'auto', got 'several'"),
        (("--bins", 0), "B must be at least 1"),
        (("--bins", -3), "B must be at least 1"),
        (("--bins", 2, "--pi", 0.3), "--pi needs --task"),
        (("--K", "nan"), "K must be finite and nonnegative"),
        (("--task", "gaussian", "--pi", 0), "pi must lie in (0, 1)"),
    ):
        res = run("fit", "--input", bad, *flags, "--out", out)
        assert res.stderr == f"error: {message}\n", flags
        assert_input_error(res)
        assert res.stdout == "" and not out.exists(), flags


def test_one_line_per_number_across_commands(tmp_path):
    # A refused number prints the library's line for it, whichever command
    # reads it; fit reads a malformed CSV, so the flag is reported first.
    bad = tmp_path / "bad.csv"
    bad.write_text("z,y\n0.1,2\n")
    out = tmp_path / "m.json"
    fit = ("fit", "--input", bad, "--out", out)

    def everywhere(*flag):  # click takes the last of a repeated option
        return ((*fit, "--bins", 2, *flag), ("bound", "--n", 100, "--B", 2, *flag),
                ("bound-shift", *SHIFT_FLAGS, *flag), ("optbins", "--n", 100, "--K", 1, *flag))

    cases = [("delta must lie in (0, 1)", everywhere("--delta", v)) for v in (0, 5, "nan")]
    cases += [("K must be finite and nonnegative", everywhere("--K", v))
              for v in (-1, "nan", "inf")]
    cases += [("B must be at least 1", ((*fit, "--bins", 0), ("bound", "--n", 100, "--B", 0))),
              ("pi must lie in (0, 1)", ((*fit, "--task", "gaussian", "--pi", 1),
                                         ("optbins", "--n", 100, "--task", "gaussian", "--pi", 1)))]
    for line, commands in cases:
        for args in commands:
            res = run(*args)
            assert_input_error(res)
            assert res.stderr == f"error: {line}\n", args
            assert res.stdout == "" and not out.exists(), args


def test_refused_fit_and_optbins_print_one_line(tmp_path):
    # The K = 1 and risk-bound warnings follow the model, so a command
    # refused before it prints only its error line.
    three, four = tmp_path / "three.csv", tmp_path / "four.csv"
    three.write_text("z,y\n0.1,0\n0.5,1\n0.9,1\n")
    four.write_text(FIT_CSV)
    out = tmp_path / "nodir" / "m.json"
    for args, code, line in (
        (("optbins", "--n", 3), 2, "n must be at least 4"),
        (("fit", "--input", three, "--out", out), 3, "n must be at least 4"),
        (("fit", "--input", four, "--bins", 3, "--out", out), 2,
         f"{out}: No such file or directory"),
    ):
        res = run(*args)
        assert res.exit_code == code, (args, res.output)
        assert res.stderr == f"error: {line}\n", args
        assert res.stdout == "" and not out.exists(), args


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
    h = Composite(outer=ShiftCorrector(exact_shift_weights(0.5, 0.2)), inner=pw)
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


def test_atomic_write_errors_name_the_path(tmp_path):
    # Not the temporary sibling it was written through, which is gone.
    missing = str(tmp_path / "nodir" / "out.txt")
    with pytest.raises(FileNotFoundError) as info:
        write_text_atomic(missing, "x\n")
    assert info.value.filename == missing
    directory = tmp_path / "d"
    directory.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        write_text_atomic(str(directory), "x\n")
    assert info.value.filename == str(directory)
    # An error that names no file, as a full disk's does.
    path = str(tmp_path / "out.txt")
    full = OSError(errno.ENOSPC, "No space left on device")
    with mock.patch("os.replace", side_effect=full), pytest.raises(OSError) as info:
        write_text_atomic(path, "x\n")
    assert (info.value.errno, info.value.filename) == (errno.ENOSPC, path)
    assert [p.name for p in tmp_path.rglob("*")] == ["d"]


def _file_fixtures(root) -> None:
    """An input of each kind under ``root``, plus a directory ``dir``."""
    inputs = {"data.csv": FIT_CSV, "scores.csv": "z\n0.5\n", "p.csv": "y\n0\n1\n",
              "q.csv": "y\n0\n1\n1\n", "cfg.json": json.dumps(TINY_STUDY)}
    for name, text in inputs.items():
        (root / name).write_text(text)
    save_model(str(root / "model.json"), _writer_models()[0], {})
    (root / "dir").mkdir()


def test_unreadable_input_exits_2(tmp_path):
    # Each input a command opens, as a file that exists but cannot be read.
    _file_fixtures(tmp_path)
    data, scores, p, q, cfg, model = (str(tmp_path / name) for name in (
        "data.csv", "scores.csv", "p.csv", "q.csv", "cfg.json", "model.json"))
    out = tmp_path / "out"
    for argv, unreadable in (
        (("fit", "--input", data, "--bins", 2, "--out", out), data),
        (("apply", "--model", model, "--input", scores, "--out", out), model),
        (("apply", "--model", model, "--input", scores, "--out", out), scores),
        (("shift", "--labels-p", p, "--labels-q", q, "--out", out), p),
        (("shift", "--labels-p", p, "--labels-q", q, "--base-model", model, "--out", out), model),
        (("simulate", "risk-grid", "--config", cfg, "--out-dir", out), cfg),
    ):
        def refusing_open(file, *args, **kwargs):
            if os.fspath(file) == unreadable:
                raise PermissionError(errno.EACCES, "Permission denied", file)
            return open(file, *args, **kwargs)

        with mock.patch.object(cli, "open", refusing_open, create=True):
            res = run(*argv)
        assert res.exit_code == 2, (argv, res.exception)
        assert res.stderr == f"error: {unreadable}: Permission denied\n", argv
        assert res.stdout == "" and not out.exists(), argv


class _FailingRead(io.BytesIO):
    """A file whose read fails naming no file, as /proc/self/mem's does."""

    def read(self, *args):
        raise OSError(errno.EIO, "Input/output error")


def test_read_error_naming_no_file_names_the_input(tmp_path):
    _file_fixtures(tmp_path)
    data, scores, p, q, cfg, model = (str(tmp_path / name) for name in (
        "data.csv", "scores.csv", "p.csv", "q.csv", "cfg.json", "model.json"))
    out = tmp_path / "out"
    for argv, unreadable in (
        (("fit", "--input", data, "--bins", 2, "--out", out), data),
        (("apply", "--model", model, "--input", scores, "--out", out), model),
        (("apply", "--model", model, "--input", scores, "--out", out), scores),
        (("shift", "--labels-p", p, "--labels-q", q, "--out", out), p),
        (("shift", "--labels-p", p, "--labels-q", q, "--base-model", model, "--out", out), model),
        (("simulate", "risk-grid", "--config", cfg, "--out-dir", out), cfg),
    ):
        def failing_open(file, *args, **kwargs):
            return _FailingRead() if os.fspath(file) == unreadable else open(file, *args, **kwargs)

        with mock.patch.object(cli, "open", failing_open, create=True):
            res = run(*argv)
        assert res.exit_code == 2, (argv, res.exception)
        assert res.stderr == f"error: {unreadable}: Input/output error\n", argv
        assert res.stdout == "" and not out.exists(), argv


def test_input_files_are_checked_only_by_their_open(tmp_path, monkeypatch):
    # Click takes every input name as given; opening the file is its one
    # check. A missing file, a directory and an empty name each exit 2 with
    # one error line naming the path, or the flag for the empty name.
    monkeypatch.chdir(tmp_path)
    _file_fixtures(tmp_path)
    before = tree(tmp_path)
    shift = ["shift", "--labels-p", "p.csv", "--labels-q", "q.csv", "--out", "out"]
    cases = (  # each input option, as argv and the index of its value
        (["fit", "--input", "data.csv", "--bins", "2", "--out", "out"], 2),
        (["apply", "--model", "model.json", "--input", "scores.csv", "--out", "out"], 2),
        (["apply", "--model", "model.json", "--input", "scores.csv", "--out", "out"], 4),
        (shift, 2),
        (shift, 4),
        (shift + ["--base-model", "model.json"], 8),
        (["simulate", "risk-grid", "--config", "cfg.json", "--out-dir", "out"], 3),
    )
    for args, i in cases:
        for name, message in (("missing.csv", "missing.csv: No such file or directory"),
                              ("dir", "dir: Is a directory"),
                              ("", f"{args[i - 1]} must name a path, got ''")):
            res = run(*args[:i], name, *args[i + 1:])
            assert res.exit_code == 2, (args[i - 1], name, res.output)
            assert res.stderr == f"error: {message}\n", (args[i - 1], name)
            assert res.stdout == "" and tree(tmp_path) == before, (args[i - 1], name)


def test_output_names_are_checked_only_when_written(tmp_path, monkeypatch):
    # An --out naming a directory is refused by the write, which leaves no
    # temporary file behind; an --out-dir naming a file is refused by
    # os.makedirs before the study runs.
    monkeypatch.chdir(tmp_path)
    _file_fixtures(tmp_path)
    before = tree(tmp_path)
    for args in (["fit", "--input", "data.csv", "--bins", "2"],
                 ["apply", "--model", "model.json", "--input", "scores.csv"],
                 ["shift", "--labels-p", "p.csv", "--labels-q", "q.csv"]):
        res = run(*args, "--out", "dir")
        assert res.exit_code == 2, (args, res.output)
        assert res.stderr == "error: dir: Is a directory\n", args
        assert res.stdout == "" and tree(tmp_path) == before, args
    studies = [mock.Mock(side_effect=AssertionError("the study ran")) for _ in range(3)]
    for name, study in zip(("run_risk_grid", "run_optimal_B", "run_label_shift"), studies):
        monkeypatch.setattr(experiments, name, study)
    for experiment in ("risk-grid", "opt-b", "label-shift"):
        for out_dir, reason in (("data.csv", "File exists"), ("data.csv/d", "Not a directory")):
            res = run("simulate", experiment, "--config", "cfg.json", "--out-dir", out_dir)
            assert res.exit_code == 2, (experiment, out_dir, res.output)
            assert res.stderr == f"error: {out_dir}: {reason}\n", (experiment, out_dir)
            assert res.stdout == "" and tree(tmp_path) == before, (experiment, out_dir)
    assert not any(study.called for study in studies)


needs_non_root = pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                                    reason="needs a POSIX user other than root")


@needs_non_root
def test_unreadable_input_file_exits_2(tmp_path, monkeypatch):
    # A real mode-000 file, not a mocked open: the open refuses it.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "locked.csv").write_text(FIT_CSV)
    os.chmod("locked.csv", 0)
    res = run("fit", "--input", "locked.csv", "--bins", 2, "--out", "m.json")
    assert res.exit_code == 2, res.output
    assert res.stderr == "error: locked.csv: Permission denied\n"
    assert res.stdout == "" and not os.path.exists("m.json")


@needs_non_root
def test_unreadable_existing_output_is_replaced(tmp_path, monkeypatch):
    # The atomic rename replaces an output file that the user cannot read.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text(FIT_CSV)
    (tmp_path / "m.json").write_text("old\n")
    os.chmod("m.json", 0)
    res = run("fit", "--input", "data.csv", "--bins", 2, "--out", "m.json")
    assert res.exit_code == 0, res.output
    assert load_model("m.json")[1]["n"] == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "m.json"]


def test_out_of_memory_exits_2(tmp_path):
    inp, scores, labels = tmp_path / "data.csv", tmp_path / "scores.csv", tmp_path / "p.csv"
    inp.write_text(FIT_CSV)
    scores.write_text("z\n0.5\n")
    labels_csv(labels, 2, 2)
    model = tmp_path / "model.json"
    save_model(str(model), UNIT_SHIFT, {})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_grid": [100], "B_grid": [6], "seeds": 1}))
    out = tmp_path / "out"
    generic = "error: the inputs do not fit in memory\n"
    for target, argv, stderr in (
        ("recalib.cli.fit_recalibrator", ("fit", "--input", inp, "--bins", 2), generic),
        ("recalib.cli.apply_batch", ("apply", "--model", model, "--input", scores), generic),
        ("recalib.cli.estimate_weights", ("shift", "--labels-p", labels, "--labels-q", labels),
         generic),
        ("recalib.experiments.run_risk_grid", ("simulate", "risk-grid", "--config", cfg),
         "error: the study's samples do not fit in memory; lower its sample sizes\n"),
    ):
        with mock.patch(target, side_effect=MemoryError):
            res = run(*argv, "--out-dir" if argv[0] == "simulate" else "--out", out)
        assert res.exit_code == 2, (argv, res.exception)
        assert res.stderr == stderr and res.stdout == "" and not out.exists(), argv


def test_readers_raise_value_errors_naming_the_file(tmp_path):
    # The readers are plain functions: they raise, and only the command
    # group turns what they raise into an exit code.
    for name, data, reason in (
        ("range.csv", b"z,y\n1.5,1\n", "row 2, column z: 1.5 outside [0.0, 1.0]"),
        ("bytes.csv", b"z,y\n0.\xff2,1\n", "not UTF-8: byte 0xff at offset 6"),
        ("header.csv", FIT_CSV.replace("z,y", "score,label").encode(),
         "row 1: expected header z,y, got 'score','label'"),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            cli._read_columns(str(path), ("z", "y"))
        assert str(info.value) == f"{path}: {reason}"
    for name, text, reason in (
        ("list.json", "[1]", "the file must hold a JSON object"),
        ("bare.json", json.dumps({"format_version": 1}), "malformed model: missing field 'model'"),
    ):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_model(str(path))
        assert str(info.value) == f"{path}: {reason}"


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
    return pw, Composite(outer=ShiftCorrector(exact_shift_weights(0.5, 0.2)), inner=pw)


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
        Composite(outer=ShiftCorrector(exact_shift_weights(0.5, 0.1)), inner=fitted),
    )
    grid = np.linspace(0.0, 1.0, 10_001)
    for i, h in enumerate(models):
        path = tmp_path / f"model_{i}.json"
        save_model(str(path), h, {"i": i})
        loaded, meta = load_model(str(path))
        assert meta == {"i": i}
        assert np.array_equal(apply_batch(h, grid), apply_batch(loaded, grid))
    # An analytic map has no model-file form.
    with pytest.raises(TypeError, match="cannot serialize function"):
        save_model(str(tmp_path / "monotone.json"), lambda z: z, {})
    assert not (tmp_path / "monotone.json").exists()


def test_evaluation_caches_stay_out_of_identity_and_bytes(tmp_path):
    inner = PiecewiseRecalibrator(
        BinningScheme((0.0, 0.21221, 0.503, 0.77, 1.0)),
        (0.13371, 0.4242, 0.586, 0.9192),
        (3, 4, 5, 6),
    )
    comp = Composite(outer=ShiftCorrector(exact_shift_weights(0.5, 0.1)), inner=inner)
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
    q_path.write_text("y\n")  # a header and no labels
    res = run("shift", "--labels-p", p_path, "--labels-q", q_path, "--out", tmp_path / "m.json")
    assert res.exit_code == 2
    assert res.stderr == f"error: {q_path}: no data rows\n"


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
        (dict(piecewise, counts=[1, 10 ** 400]), "counts is too large for a float"),
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
    # A size past the float range is named where it is read.
    for args, name in ((("bound", "--n", 10**400, "--B", 10), "n"),
                       (("bound-shift", *SHIFT_FLAGS, "--n-q", 10**400), "n_Q"),
                       (("optbins", "--n", 10**400, "--K", 1), "n")):
        assert run(*args).stderr == ("error: the inputs are out of floating-point range "
                                     f"({name} is too large for a float)\n"), args
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
    res = run("optbins", "--n", 3)
    assert res.exit_code == 2 and res.stdout == ""
    assert [l for l in res.stderr.splitlines() if l.startswith("error:")] == [
        "error: n must be at least 4"]
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

def test_simulate_study_names_are_the_table_keys():
    # click's choice is spelled out in cli, which must not import the
    # experiments; a name the table lacks would end in an unmapped KeyError.
    names = tuple(experiments.studies())
    experiment, = (p for p in cli.cmd_simulate.params if p.name == "experiment")
    assert tuple(experiment.type.choices) == names == ("risk-grid", "opt-b", "label-shift")
    res = run("simulate", "--help")
    assert res.exit_code == 0
    assert f"simulate [OPTIONS] {{{'|'.join(names)}}}" in res.stdout


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


@pytest.mark.parametrize("field, grid", [
    ("n_grid", [100, 100]), ("B_grid", [6, 6]), ("n_grid", [1000, 100]), ("B_grid", [12, 6]),
], ids=["repeated-n", "repeated-B", "unsorted-n", "unsorted-B"])
def test_study_grids_must_be_strictly_increasing(tmp_path, field, grid):
    # A repeated entry would run one cell again under the same seed and
    # write duplicate rows; an unsorted grid is refused by the same rule.
    message = f"{field} must be strictly increasing"
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig(**{field: grid})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_grid": [100], "B_grid": [6], "seeds": 1, field: grid}))
    for experiment in ("risk-grid", "opt-b"):
        res = run("simulate", experiment, "--config", cfg, "--out-dir", tmp_path / "out")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: bad config: {message}\n"
        assert not (tmp_path / "out").exists()


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
    ("label-shift", '{"pi_target": NaN, "seeds": 1}', "pi_target must lie in (0, 1)"),
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


VALID_RISK_GRID_MANIFEST = """{
  "cells": [
    {
      "B": 6,
      "gates_ok": false,
      "n": 100,
      "skipped": false
    }
  ],
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
  "experiment": "risk-grid",
  "library_version": "%(library)s",
  "numpy_version": "%(numpy)s",
  "scipy_version": "%(scipy)s",
  "seed_rule": "PCG64(SeedSequence((base_seed, study_tag, *cell_fields)))"
}
"""

VALID_OPT_B_MANIFEST = """{
  "K_hat": 18.52161577549451,
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
  "experiment": "opt-b",
  "library_version": "%(library)s",
  "numpy_version": "%(numpy)s",
  "scipy_version": "%(scipy)s",
  "seed_rule": "PCG64(SeedSequence((base_seed, study_tag, *cell_fields)))"
}
"""

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
  "library_version": "%(library)s",
  "numpy_version": "%(numpy)s",
  "replacements": 0,
  "scipy_version": "%(scipy)s",
  "seed_rule": "PCG64(SeedSequence((base_seed, study_tag, *cell_fields)))"
}
"""


@pytest.mark.parametrize("experiment, expected", [
    ("risk-grid", VALID_RISK_GRID_MANIFEST), ("opt-b", VALID_OPT_B_MANIFEST),
    ("label-shift", VALID_LABEL_SHIFT_MANIFEST),
], ids=["risk-grid", "opt-b", "label-shift"])
def test_simulate_config_with_every_field_type_keeps_manifest_bytes(tmp_path, experiment, expected):
    # The config, the seed rule, the versions of the library, numpy and
    # scipy, and each study's own fields: the risk grid's cells, opt-b's
    # K_hat, label-shift's bin counts and replacements.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n_grid": [100], "B_grid": [6], "delta": 0.05, "seeds": 1, "base_seed": 3,
        "pi_source": 0.5, "pi_target": 0.25, "n_P": 200, "n_Q": 50,
        "methods": ["Source", "LabelShift"], "full_scale": False,
    }))
    out_dir = tmp_path / "out"
    res = run("simulate", experiment, "--config", cfg, "--out-dir", out_dir)
    assert res.exit_code == 0, res.stderr
    manifest = (out_dir / "manifest.json").read_text()
    assert manifest == expected % {"library": recalib.__version__, "numpy": np.__version__,
                                   "scipy": scipy.__version__}


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
    assert res.stderr == "warning: 8 draw(s) replaced because a class was absent\n"
    assert json.loads((retry_dir / "manifest.json").read_text())["replacements"] == 8


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


def test_simulate_failed_write_leaves_no_file(tmp_path):
    # A study CSV that cannot be written, or a manifest that cannot be
    # written after its CSV was, exits 2 and leaves no file in --out-dir.
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"n_grid": [100], "B_grid": [6], "seeds": 1, "n_P": 64, "n_Q": 27}))
    for experiment, csv_name in (("risk-grid", "risk_grid.csv"), ("opt-b", "opt_b.csv"),
                                 ("label-shift", "label_shift.csv")):
        for blocked in (csv_name, "manifest.json"):
            out_dir = tmp_path / f"{experiment}-{blocked}"
            (out_dir / blocked).mkdir(parents=True)
            res = run("simulate", experiment, "--config", cfg, "--out-dir", out_dir)
            assert_input_error(res)
            assert res.stderr == f"error: {out_dir / blocked}: Is a directory\n"
            assert res.stdout == ""
            assert [p.name for p in out_dir.rglob("*")] == [blocked]

    # A study with two tables whose second cannot be written loses the first.
    studies = experiments.studies()
    defaults, run_study, report = studies["risk-grid"]

    def two_tables(result, out_dir):
        (table,), *rest = report(result, out_dir)
        return ([table, ("second.csv", *table[1:])], *rest)

    out_dir = tmp_path / "two-tables"
    (out_dir / "second.csv").mkdir(parents=True)
    with mock.patch.object(experiments, "studies",
                           lambda: {**studies, "risk-grid": (defaults, run_study, two_tables)}), \
            mock.patch.object(cli, "write_csv", wraps=cli.write_csv) as write:
        res = run("simulate", "risk-grid", "--config", cfg, "--out-dir", out_dir)
    assert_input_error(res)
    assert res.stderr == f"error: {out_dir / 'second.csv'}: Is a directory\n"
    assert res.stdout == ""
    assert [call.args[0] for call in write.call_args_list] == [
        str(out_dir / "risk_grid.csv"), str(out_dir / "second.csv")]
    assert [p.name for p in out_dir.rglob("*")] == ["second.csv"]


def tree(root) -> dict:
    """Every entry under ``root``: a file's bytes, or None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def no_space() -> OSError:
    return OSError(errno.ENOSPC, "No space left on device")


@contextlib.contextmanager
def failing_stream(stream: str, error):
    """Patch every binding of ``click.echo``, click's own modules' included,
    so that every write to ``stream``, "stdout" or "stderr", raises a fresh
    ``error()``: the program's lines, click's usage messages and help. The
    other stream's writes go through."""
    echo = click.utils.echo

    def patched(message=None, file=None, nl=True, err=False, color=None):
        target = file if file is not None else sys.stderr if err else sys.stdout
        if getattr(target, "buffer", target) is getattr(getattr(sys, stream), "buffer", None):
            raise error()
        return echo(message, file, nl, err, color)

    modules = [module for name, module in sys.modules.items()
               if name.split(".")[0] == "click" and getattr(module, "echo", None) is echo]
    with contextlib.ExitStack() as stack:
        for module in modules:
            stack.enter_context(mock.patch.object(module, "echo", patched))
        yield


TINY_STUDY = {"n_grid": [100], "B_grid": [6], "seeds": 1, "n_P": 64, "n_Q": 27}


def _writing_commands(inputs) -> list:
    """Each output-writing command, as argv whose outputs are relative
    paths, with its input files written under ``inputs``."""
    inputs.mkdir()
    (inputs / "data.csv").write_text(FIT_CSV)
    (inputs / "scores.csv").write_text("z\n0.1\n0.5\n0.9\n")
    labels_csv(inputs / "p.csv", 30, 20)
    labels_csv(inputs / "q.csv", 10, 40)
    (inputs / "tiny.json").write_text(json.dumps(TINY_STUDY))
    for name, h in zip(("piecewise.json", "composite.json"), _writer_models()):
        save_model(str(inputs / name), h, {})
    shift = ["shift", "--labels-p", inputs / "p.csv", "--labels-q", inputs / "q.csv",
             "--out", "s.json"]
    return [
        ["fit", "--input", inputs / "data.csv", "--bins", "2", "--out", "m.json"],
        ["fit", "--input", inputs / "data.csv", "--bins", "auto", "--task", "gaussian",
         "--out", "m.json"],
        *(["apply", "--model", inputs / model, "--input", inputs / "scores.csv",
           "--out", "o.csv"] for model in ("piecewise.json", "composite.json")),
        shift,
        shift + ["--base-model", inputs / "piecewise.json"],
        *(["simulate", study, "--config", inputs / "tiny.json", "--out-dir", out_dir]
          for study in ("risk-grid", "opt-b", "label-shift")
          for out_dir in ("new/nested", "old")),
    ]


@pytest.mark.parametrize("error, code, message", [
    (no_space, 2, "error: No space left on device"),
    (lambda: BrokenPipeError(errno.EPIPE, "Broken pipe"), 1, None),
], ids=["ENOSPC", "EPIPE"])
def test_failed_stdout_leaves_no_output(tmp_path, monkeypatch, error, code, message):
    # Every command that writes files, with stdout failing once they are
    # written: the exit code and message are those of the error, and the
    # files and directories the run made are gone. An --out-dir that
    # existed keeps its other entries, byte for byte.
    commands = _writing_commands(tmp_path / "in")
    work = tmp_path / "work"
    (work / "old").mkdir(parents=True)
    (work / "old" / "notes.txt").write_text("kept\n")
    monkeypatch.chdir(work)
    before = tree(tmp_path)
    for args in commands:
        with failing_stream("stdout", error):
            res = CliRunner().invoke(main, [str(a) for a in args])
        assert res.exit_code == code, (args, res.stderr, res.exception)
        assert res.stdout == ""
        if message is not None:
            assert res.stderr.splitlines()[-1] == message, (args, res.stderr)
        assert tree(tmp_path) == before, args


def test_failed_stderr_keeps_exit_codes(tmp_path, monkeypatch):
    # With every stderr write failing, a refusal keeps its exit code, and a
    # command whose warning cannot be written fails as one whose stdout
    # fails does: exit 2 with nothing on stdout and nothing left behind.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fit.csv").write_text(FIT_CSV)
    (tmp_path / "bad.csv").write_text("z,y\n0.1,0\n0.2,2\n")
    (tmp_path / "bad_cfg.json").write_text(json.dumps({"seeds": 2.5}))
    # At n = 100, B = 96 leaves fewer than two points per bin: a skipped cell.
    (tmp_path / "skips.json").write_text(json.dumps({"n_grid": [100], "B_grid": [6, 96],
                                                     "seeds": 1}))
    before = tree(tmp_path)
    fit = ["fit", "--out", "m.json", "--input"]
    for args, code in (
        (fit + ["bad.csv", "--bins", "2"], 2),
        (fit + ["fit.csv", "--bins", "5"], 3),  # more bins than points
        (["simulate", "risk-grid", "--config", "bad_cfg.json", "--out-dir", "d"], 2),
        (fit + ["fit.csv", "--bins", "2"], 2),  # the sample-size gate warning
        (["simulate", "risk-grid", "--config", "skips.json", "--out-dir", "new/dir"], 2),
    ):
        with failing_stream("stderr", no_space):
            res = CliRunner().invoke(main, args)
        assert res.exit_code == code, (args, res.exception)
        assert res.stdout == res.stderr == "", args
        assert tree(tmp_path) == before, args


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_stdout_on_dev_full_leaves_no_output(tmp_path):
    # The kernel's own failing streams, not patched ones. With stdout on
    # /dev/full, a fit, a study into a fresh nested --out-dir and the
    # group's --help each exit 2 with one error line after any warnings and
    # no traceback. With stderr there, a fit the data cannot carry exits 3,
    # and a fit whose gate warning is lost, a click usage error, an unknown
    # command, no arguments at all and an unknown option before the command
    # name exit 2. None prints on stdout or leaves anything behind.
    (tmp_path / "fit.csv").write_text(FIT_CSV)
    (tmp_path / "tiny.json").write_text(json.dumps(TINY_STUDY))
    before = tree(tmp_path)
    fit = ["fit", "--input", "fit.csv", "--out", "m.json", "--bins"]
    for stream, args, code in (
        ("stdout", fit + ["2"], 2),
        ("stdout", ["simulate", "risk-grid", "--config", "tiny.json", "--out-dir", "new/dir"], 2),
        ("stderr", fit + ["5"], 3),
        ("stderr", fit + ["2"], 2),
        ("stderr", ["bound", "--n", "1000", "--B", "10", "--rho0", "1.1"], 2),
        ("stderr", ["nosuch"], 2),
        ("stdout", ["--help"], 2),
        ("stderr", [], 2),
        ("stderr", ["--bogus"], 2),
    ):
        with open("/dev/full", "w") as full:
            streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: full}
            proc = subprocess.run([sys.executable, "-m", "recalib.cli", *args], cwd=tmp_path,
                                  env=_src_env(), text=True, **streams)
        assert proc.returncode == code, (args, proc.stderr)
        if stream == "stdout":  # fit's gate warning comes before its report
            *warnings, last = proc.stderr.splitlines()
            assert last == "error: No space left on device", proc.stderr
            assert all(line.startswith("warning: ") for line in warnings), proc.stderr
        else:
            assert proc.stdout == "", args
        assert tree(tmp_path) == before, args


def test_cli_reads_nothing_from_the_environment(tmp_path, monkeypatch):
    # Click's shell-completion variable for the program's name does not turn
    # a fit into a completion, and help wraps at one width on any terminal.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fit.csv").write_text(FIT_CSV)
    fit = ["fit", "--input", "fit.csv", "--bins", "2", "--out", "m.json"]
    results = []
    for env in ({}, {"_MAIN_COMPLETE": "bash_complete", "COMP_WORDS": "main fit",
                     "COMP_CWORD": "1"}):
        res = CliRunner(env=env).invoke(main, fit)
        assert res.exit_code == 0, (env, res.stdout, res.exception)
        results.append((res.stdout, res.stderr, (tmp_path / "m.json").read_bytes()))
        (tmp_path / "m.json").unlink()
    assert results[0] == results[1]
    helps = [CliRunner(env={"COLUMNS": columns}).invoke(main, ["fit", "--help"])
             for columns in ("50", "200")]
    assert helps[0].exit_code == helps[1].exit_code == 0
    assert helps[0].stdout_bytes == helps[1].stdout_bytes


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_interrupt_exits_1_and_leaves_no_output(tmp_path):
    # Ctrl-C while a study writes its outputs, as click reports it:
    # "Aborted!" and exit 1, also when stderr cannot take the message, and
    # the outputs the command wrote are gone, as after any other failure.
    (tmp_path / "tiny.json").write_text(json.dumps(TINY_STUDY))
    before = tree(tmp_path)
    code = ("import sys; from unittest import mock; from recalib import cli, experiments; "
            "mock.patch.object(experiments, 'write_manifest', side_effect=KeyboardInterrupt)"
            ".start(); cli.main(sys.argv[1:])")
    args = ["simulate", "risk-grid", "--config", "tiny.json", "--out-dir", "new/dir"]
    with open("/dev/full", "w") as full:
        for stderr in (subprocess.PIPE, full):
            proc = subprocess.run([sys.executable, "-c", code, *args], cwd=tmp_path,
                                  env=_src_env(), stdout=subprocess.PIPE, stderr=stderr, text=True)
            assert proc.returncode == 1, (stderr, proc.stderr)
            assert proc.stdout == "" and proc.stderr in ("\nAborted!\n", None), proc.stderr
            assert tree(tmp_path) == before, stderr


def test_refused_command_keeps_existing_outputs(tmp_path, monkeypatch):
    # A refusal that comes before any write leaves the outputs of an
    # earlier run as they were: only what this run wrote is removed.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("z,y\n0.1,0\n0.2,2\n")
    (tmp_path / "bad_model.json").write_text('{"format_version": 1, "model": {"kind": "piecewise"}}')
    (tmp_path / "scores.csv").write_text("z\n0.5\n")
    labels_csv(tmp_path / "p.csv", 10, 10)
    labels_csv(tmp_path / "q.csv", 10, 0)
    (tmp_path / "bad_cfg.json").write_text(json.dumps({"seeds": 2.5}))
    for name in ("m.json", "o.csv", "s.json"):
        (tmp_path / name).write_text(f"old {name}\n")
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "risk_grid.csv").write_text("old study\n")
    (tmp_path / "old" / "notes.txt").write_text("kept\n")
    before = tree(tmp_path)
    commands = (
        ["fit", "--input", "bad.csv", "--bins", "2", "--out", "m.json"],
        ["apply", "--model", "bad_model.json", "--input", "scores.csv", "--out", "o.csv"],
        ["shift", "--labels-p", "p.csv", "--labels-q", "q.csv", "--out", "s.json"],
        ["simulate", "risk-grid", "--config", "bad_cfg.json", "--out-dir", "old"],
    )
    for args in commands:
        assert_input_error(run(*args))
        assert tree(tmp_path) == before, args
    # An empty --out or --out-dir is refused by name before any input is read.
    for *args, flag, _ in commands:
        res = run(*args, flag, "")
        assert_input_error(res)
        assert res.stderr == f"error: {flag} must name a path, got ''\n", res.stderr
        assert tree(tmp_path) == before, args


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
# Output directories in which `simulate` cannot write: the study CSVs, or
# only the manifest, are directories.
BLOCKED_OUT_DIRS = {
    "csvs-blocked": ("risk_grid.csv", "opt_b.csv", "label_shift.csv"),
    "manifest-blocked": ("manifest.json",),
}
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
    for name, blocking in BLOCKED_OUT_DIRS.items():
        shutil.rmtree(root / name, ignore_errors=True)
        for entry in blocking:
            (root / name / entry).mkdir(parents=True)
        paths[name] = str(root / name)
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
        "simulate": (("--config", paths["tiny"]),
                     ("--out-dir", ("d", paths["csvs-blocked"], paths["manifest-blocked"]))),
    }


@st.composite
def argv_cases(draw, paths: dict) -> list[str]:
    """A valid argv with options dropped, values replaced and options of
    the command or others added; now and then the group's own argv
    instead: none, --help, or a stray option before the command name."""
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
    group = draw(st.integers(0, 9))
    if group == 0:
        return draw(st.sampled_from([[], ["--help"]]))
    if group == 1:
        stray = [draw(st.sampled_from(STRAY_OPTIONS))]
        args[:0] = stray + [draw(values)] if draw(st.integers(0, 5)) else stray
    return args


def check_argv(work, inputs, args: list[str], failing: str | None) -> None:
    """Run ``recalib *args`` in-process with ``work`` as the working
    directory, where every relative output path lands, and check that it
    exits 0, 2 or 3; that a failure prints nothing on stdout, ends stderr
    with one error line and leaves no file behind, in ``work``, as a
    temporary sibling of an input file under ``inputs`` or beside the
    blocking entries of an output directory in BLOCKED_OUT_DIRS; then
    empty ``work``. With ``failing`` set to "stdout" or "stderr", every
    write to that stream, click's usage messages and help included, raises
    ENOSPC: a failing stdout makes each command that writes files fail
    after writing them, and a failing stderr leaves no error line to check,
    but the exit code, the empty stdout and the absence of files are
    checked as before."""
    with failing_stream(failing, no_space) if failing else contextlib.nullcontext():
        res = CliRunner().invoke(main, args)
    created = sorted(str(p.relative_to(work)) for p in work.rglob("*"))
    created += sorted(p.name for p in inputs.glob(".tmp.*"))
    for name, blocking in BLOCKED_OUT_DIRS.items():
        created += sorted(str(p.relative_to(inputs)) for p in (inputs / name).rglob("*")
                          if str(p.relative_to(inputs / name)) not in blocking)
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
    if res.exit_code and failing != "stderr":
        *before, last = res.stderr.splitlines()
        # click's usage errors end in one "Error:" line, most after a usage
        # block, and an empty argv gets the group's help; the program's own
        # errors are one "error:" line after any warnings.
        if last.startswith("Error: ") or not args:
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
    check_argv(work, tmp_path / "in", data.draw(argv_cases(paths)),
               data.draw(st.sampled_from([None, "stdout", "stderr"])))

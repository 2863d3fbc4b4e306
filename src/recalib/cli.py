"""Command line interface: fit, apply, shift, bound, bound-shift, optbins,
simulate.

Exit codes: 0 on success, 2 for input problems (CSV parse errors, bad
configs, unsupported model files, absent classes), 3 for fitting
failures (degenerate bins, empty bins, infeasible bin counts). All
output files are written atomically (temp file plus rename). The CLI
reads nothing from the environment; behavior is set by flags and files
only.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
from typing import Callable

import click
import numpy as np

from .bounds import (
    BoundParams,
    InsufficientSampleError,
    ShiftBoundParams,
    optimal_bins,
    risk_bound_report,
    shift_risk_bound_apriori,
    shift_risk_bound_realized,
)
from .core import (
    Composite,
    LabeledSample,
    BinningScheme,
    PiecewiseRecalibrator,
    Recalibrator,
    ShiftCorrector,
    ShiftWeights,
    _within,
    apply_batch,
    compose,
    estimate_weights,
    fit_recalibrator,
)
from .fileio import fmt_float, write_text_atomic

MODEL_FORMAT_VERSION = 1


def _recalibrator_to_obj(h: Recalibrator) -> dict:
    if isinstance(h, PiecewiseRecalibrator):
        return {
            "kind": "piecewise",
            "edges": list(h.scheme.edges),
            "values": list(h.values),
            "counts": list(h.counts),
        }
    if isinstance(h, ShiftCorrector):
        obj = {"kind": "shift", "w": list(h.weights.w), "provenance": h.weights.provenance}
        if h.weights.p_hat is not None:
            obj["p_hat"] = list(h.weights.p_hat)
            obj["q_hat"] = list(h.weights.q_hat)
        return obj
    if isinstance(h, Composite):
        return {
            "kind": "composite",
            "outer": _recalibrator_to_obj(h.outer),
            "inner": _recalibrator_to_obj(h.inner),
        }
    raise TypeError(f"cannot serialize {type(h).__name__}")


def _is_json_int(value) -> bool:
    # JSON true and false load as bool, a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool)


def _recalibrator_from_obj(obj: dict) -> Recalibrator:
    if not isinstance(obj, dict):
        raise ValueError("a model must be a JSON object")
    kind = obj.get("kind")
    if kind == "piecewise":
        counts = obj["counts"]
        if not all(map(_is_json_int, counts)):
            raise ValueError("piecewise counts must be a list of integers")
        return PiecewiseRecalibrator(
            BinningScheme(tuple(obj["edges"])),
            tuple(obj["values"]),
            tuple(counts),
        )
    if kind == "shift":
        weights = ShiftWeights(
            w=tuple(obj["w"]),
            provenance=obj["provenance"],
            p_hat=tuple(obj["p_hat"]) if "p_hat" in obj else None,
            q_hat=tuple(obj["q_hat"]) if "q_hat" in obj else None,
        )
        return ShiftCorrector(weights)
    if kind == "composite":
        return Composite(outer=_recalibrator_from_obj(obj["outer"]),
                         inner=_recalibrator_from_obj(obj["inner"]))
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(path: str, h: Recalibrator, metadata: dict) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "model": _recalibrator_to_obj(h),
        "metadata": metadata,
    }
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_model(path: str) -> tuple[Recalibrator, dict]:
    try:
        with open(path) as f:
            payload = json.load(f)
        if not isinstance(payload, dict):
            raise ValueError("a model file must hold a JSON object")
        version = payload.get("format_version")
        if not _is_json_int(version) or version != MODEL_FORMAT_VERSION:
            raise ValueError(
                f"model format version {version!r} is not supported (expected {MODEL_FORMAT_VERSION})"
            )
        model = _recalibrator_from_obj(payload["model"])
    except (TypeError, OverflowError, RecursionError) as e:
        # A field of the wrong JSON type, such as "edges": 5, a number with
        # no int or float value, such as "counts": [Infinity], a composite
        # whose parts are of the wrong kinds, or arrays or objects nested
        # past the recursion limit.
        raise ValueError(f"malformed model: {e}") from e
    return model, payload.get("metadata", {})


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_model_or_exit(path: str) -> tuple[Recalibrator, dict]:
    try:
        return load_model(path)
    except (ValueError, KeyError) as e:
        _fail(f"{path}: {e}", 2)


@contextlib.contextmanager
def _writing(path: str):
    """Exit 2 with a one-line message when an output file cannot be written."""
    try:
        yield
    except OSError as e:
        _fail(f"{path}: {e.strerror or e}", 2)


@contextlib.contextmanager
def _refusing_bad_numbers():
    """Exit 2 with a one-line message when the library refuses a flag's
    value (ValueError) or float arithmetic overflows or divides by an
    underflowed zero on it, as with --n 1e400 or --w-min 1e-300, or when
    a bound it computes from them is not finite."""
    try:
        yield
    except ValueError as e:
        _fail(str(e), 2)
    except ArithmeticError as e:
        _fail(f"the flags are out of floating-point range ({e})", 2)


def _echo_bound_report(report) -> None:
    click.echo(f"calibration risk bound: {fmt_float(report.cal_bound)}")
    click.echo(f"sharpness risk bound:   {fmt_float(report.sha_bound)}")
    click.echo(f"total risk bound:       {fmt_float(report.risk_bound)}")
    click.echo(f"sample-size gate:       {'ok' if report.conditions_met else 'NOT MET'} "
               f"({report.condition_detail})")


def _parse_score(path: str, row: int, text: str) -> float:
    # float() would also read digit-group underscores, non-ASCII digits
    # such as full-width ones, and strip any whitespace; a score is ASCII
    # and may only be padded with spaces and tabs.
    plain = text.strip(" \t")
    try:
        if "_" in plain or plain != plain.strip() or not plain.isascii():
            raise ValueError
        value = float(plain)
    except ValueError:
        _fail(f"{path}: row {row}, column z: {text!r} is not a number", 2)
    if not 0.0 <= value <= 1.0:
        _fail(f"{path}: row {row}, column z: {value!r} outside [0.0, 1.0]", 2)
    return value


def _parse_label(path: str, row: int, text: str) -> int:
    y = text.strip(" \t")
    if y not in ("0", "1"):
        _fail(f"{path}: row {row}, column y: {text!r} is not 0 or 1", 2)
    return int(y)


def _scores_column(texts: list[str]) -> np.ndarray | None:
    """``_parse_score`` of every field in two C-level passes, or None."""
    try:
        z = np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        return None
    return z if _within(z, 0.0, 1.0) else None


def _labels_column(texts: list[str]) -> np.ndarray | None:
    """The labels when every field is exactly "0" or "1", else None."""
    if not set(texts) <= {"0", "1"}:
        return None
    # A bool array is one byte per label, so the int8 view costs no copy.
    return (np.frombuffer("".join(texts).encode(), np.uint8) == ord("1")).view(np.int8)


# Per column name: the row parser, the whole-column fast path and the dtype.
_COLUMNS = {
    "z": (_parse_score, _scores_column, np.float64),
    "y": (_parse_label, _labels_column, np.int8),
}


def _parse_rows(path: str, text: str, header: tuple[str, ...],
                empty_ok: bool) -> list[np.ndarray]:
    """The row-by-row reader, which decides and names every refusal.

    Parses the CSV with the csv module, each field with its column's
    parser, and exits 2 at the first damaged row with its row number, or
    when there are no data rows and ``empty_ok`` is false.
    """
    columns = [[] for _ in header]
    parsers = [_COLUMNS[name][0] for name in header]
    reader = csv.reader(io.StringIO(text, newline=""))
    row = 0
    try:
        first = next(reader, None)
        if first is None:
            _fail(f"{path}: empty file, expected header {','.join(header)}", 2)
        if tuple(s.strip(" \t") for s in first) != header:
            _fail(f"{path}: row 1: expected header {','.join(header)}, "
                  f"got {','.join(map(repr, first))}", 2)
        row = 1
        for row, fields in enumerate(reader, start=2):
            if len(fields) != len(header):
                _fail(f"{path}: row {row}: expected {len(header)} fields, got {len(fields)}", 2)
            for column, parse, field in zip(columns, parsers, fields):
                column.append(parse(path, row, field))
    except csv.Error as e:
        # Raised while reading the row after ``row``, e.g. a field longer
        # than csv.field_size_limit().
        _fail(f"{path}: row {row + 1}: {e}", 2)
    if not columns[0] and not empty_ok:
        _fail(f"{path}: no data rows", 2)
    return [np.array(column, _COLUMNS[name][2]) for column, name in zip(columns, header)]


def _split_columns(raw: bytes, header: tuple[str, ...]) -> list[np.ndarray] | None:
    """The columns of a plain CSV in whole-column passes, or None.

    Plain means: ASCII with no quote, CR, NUL, underscore, VT or FF (the
    last three are what float() reads and the row parsers refuse), the
    header exactly as given, k - 1 commas and a newline in every row (k
    columns), no field longer than csv.field_size_limit(), every score a
    number in [0, 1] and every label exactly 0 or 1. csv.reader splits
    such a file at exactly those commas and newlines, and each column
    converts the same strings as its row parser, so the arrays equal those
    of ``_parse_rows``. Anything else gets None, and ``_parse_rows``
    accepts it or refuses it.
    """
    k = len(header)
    head, _, body = raw.partition(b"\n")
    if (head != ",".join(header).encode() or not body or not raw.isascii()
            or any(byte in body for byte in (b'"', b"\r", b"\0", b"_", b"\x0b", b"\x0c"))):
        return None
    if not body.endswith(b"\n"):
        body += b"\n"  # a last row without its newline
    chars = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero((chars == ord(",")) | (chars == ord("\n")))
    if (ends.size % k
            or (chars[ends].reshape(-1, k) != np.frombuffer(b"," * (k - 1) + b"\n", np.uint8)).any()
            or np.diff(ends, prepend=-1).max() - 1 > csv.field_size_limit()):
        return None
    fields = body[:-1].decode().replace("\n", ",").split(",")
    columns = [_COLUMNS[name][1](fields[j::k]) for j, name in enumerate(header)]
    return None if any(column is None for column in columns) else columns


def _read_columns(path: str, header: tuple[str, ...],
                  empty_ok: bool = False) -> tuple[list[np.ndarray], str]:
    """Read a UTF-8 CSV with the given header of columns z (scores, float64)
    and y (labels, int8); return the columns and the file's SHA-256.

    The file is read once. A plain file is parsed column-wise; anything
    else goes to the row-by-row reader. Exits 2 on damage.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        _fail(f"{path}: not UTF-8: byte {raw[e.start]:#04x} at offset {e.start}", 2)
    columns = _split_columns(raw, header)
    if columns is None:
        columns = _parse_rows(path, text, header, empty_ok)
    return columns, hashlib.sha256(raw).hexdigest()


def _smoothness(k_const, task_name, pi, assume_one: bool = True) -> Callable[[], float | None]:
    """Check the smoothness flags, exiting 2 on bad ones, and return how to
    get K: --K as given, the --task estimate, or, with neither, 1 with a
    warning (assume_one) or None."""
    if k_const is not None and task_name is not None:
        _fail("--K and --task both set the smoothness constant; pass one", 2)
    if pi is not None and task_name is None:
        _fail("--pi needs --task", 2)
    if k_const is not None:
        if not 0.0 <= k_const < math.inf:
            _fail(f"--K must be finite and nonnegative, got {k_const!r}", 2)
        return lambda: float(k_const)
    if task_name == "gaussian":
        from .oracle import GaussianMixtureTask, estimate_K  # loads scipy

        try:
            task = GaussianMixtureTask(0.5 if pi is None else pi)
        except ValueError as e:
            _fail(f"--pi: {e}", 2)
        return lambda: estimate_K(task, 100_000)

    def default() -> float | None:
        if not assume_one:
            return None
        click.echo("warning: no smoothness constant given; assuming K=1 "
                   "(pass --K or --task gaussian)", err=True)
        return 1.0

    return default


@click.group()
def main() -> None:
    """Binned probability recalibration with finite-sample guarantees."""


@main.command(name="fit")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="CSV with header z,y.")
@click.option("--bins", default="auto", show_default=True,
              help="Bin count, or 'auto' to minimize the bound objective.")
@click.option("--delta", default=0.1, show_default=True, help="Failure probability for bounds.")
@click.option("--K", "k_const", type=float, default=None,
              help="Smoothness constant; if given, the sharpness bound is 8K^2/B^2, not 2/B.")
@click.option("--task", "task_name", type=click.Choice(["gaussian"]), default=None,
              help="Estimate the smoothness constant from this simulation family.")
@click.option("--pi", type=float, default=None, help="Prior for --task gaussian; 0.5 if not given.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def cmd_fit(input_path, bins, delta, k_const, task_name, pi, out_path) -> None:
    """Fit a uniform-mass binned recalibrator and save it as a model file."""
    # Every flag is checked before the CSV is read, so a refusal is cheap.
    if not 0.0 < delta < 1.0:
        _fail(f"--delta must lie in (0, 1), got {delta!r}", 2)
    auto = bins == "auto"
    if not auto:
        try:
            B = int(bins)
        except ValueError:
            _fail(f"--bins must be an integer or 'auto', got {bins!r}", 2)
        if B < 1:
            _fail(f"--bins must be at least 1, got {B}", 2)
    # --bins auto needs a K to choose B; an integer --bins uses one only
    # for the smooth sharpness bound, as `bound` does.
    smoothness = _smoothness(k_const, task_name, pi, assume_one=auto)
    (z, y), digest = _read_columns(input_path, ("z", "y"))
    data = LabeledSample(z=z, y=y)
    K = smoothness()
    # A data set too small for the flags exits 3; flags whose bounds
    # overflow (--K 1e200, --delta 1e-320) exit 2 before the model is written.
    with _refusing_bad_numbers():
        if auto:
            try:
                B, zeta_min = optimal_bins(data.n, delta, K)
            except ValueError as e:
                _fail(str(e), 3)
        try:
            model = fit_recalibrator(data, B)
        except ValueError as e:
            _fail(str(e), 3)
        report = None
        try:
            report = risk_bound_report(BoundParams(n=data.n, B=B, delta=delta, K=K))
        except InsufficientSampleError as e:
            click.echo(f"risk bound unavailable: {e}", err=True)
    metadata = {
        "n": data.n,
        "B": B,
        "delta": delta,
        "source_sha256": digest,
    }
    with _writing(out_path):
        save_model(out_path, model, metadata)
    # Nothing goes to stdout until the model is written, so a failed fit
    # prints nothing there.
    if auto:
        click.echo(f"auto bin count: B = {B} (objective {zeta_min:.6g}, K = {K:.6g})")
        click.echo("sharpness bound: 8K^2/B^2, the smooth term of that objective")
    if report is not None:
        _echo_bound_report(report)
    click.echo(f"model written to {out_path}")
    if report is not None and not report.conditions_met:
        click.echo(f"warning: sample-size gate not met ({report.condition_detail})", err=True)


@main.command(name="apply")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="CSV with header z.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def cmd_apply(model_path, input_path, out_path) -> None:
    """Recalibrate a stream of scores; writes CSV with header z,z_cal."""
    model, _ = _load_model_or_exit(model_path)
    (z,), _ = _read_columns(input_path, ("z",), empty_ok=True)  # no scores, no output rows
    z_cal = apply_batch(model, z)
    # A piecewise map takes few distinct values: render each bit pattern
    # once (so -0.0 stays apart from 0.0). repr of a Python float is
    # fmt_float.
    bits, inverse = np.unique(z_cal.view(np.uint64), return_inverse=True)
    rendered = np.array([fmt_float(c) for c in bits.view(np.float64)], dtype=object)
    rows = map(",".join, zip(map(repr, z.tolist()), rendered[inverse].tolist()))
    with _writing(out_path):
        write_text_atomic(out_path, "\n".join(["z,z_cal", *rows]) + "\n")
    click.echo(f"recalibrated scores written to {out_path}")


@main.command(name="shift")
@click.option("--labels-p", "labels_p_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Source labels CSV, header y.")
@click.option("--labels-q", "labels_q_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Target labels CSV, header y.")
@click.option("--base-model", "base_model_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Piecewise model to wrap into a composite.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def cmd_shift(labels_p_path, labels_q_path, base_model_path, out_path) -> None:
    """Estimate label-shift weights and save a shift or composite model."""
    (labels_p,), source_sha256 = _read_columns(labels_p_path, ("y",))
    (labels_q,), target_sha256 = _read_columns(labels_q_path, ("y",))
    try:
        weights = estimate_weights(labels_p, labels_q)
    except ValueError as e:
        _fail(str(e), 2)
    corrector = ShiftCorrector(weights)
    metadata = {
        "n_P": len(labels_p),
        "n_Q": len(labels_q),
        "source_sha256": source_sha256,
        "target_sha256": target_sha256,
    }
    model = corrector
    if base_model_path is not None:
        base, base_meta = _load_model_or_exit(base_model_path)
        if not isinstance(base, PiecewiseRecalibrator):
            _fail(f"{base_model_path}: --base-model must hold a piecewise model", 2)
        metadata["base_model"] = base_meta
        model = compose(corrector, base)
    with _writing(out_path):
        save_model(out_path, model, metadata)
    click.echo(f"estimated weights: w_0 = {fmt_float(weights.w[0])}, "
               f"w_1 = {fmt_float(weights.w[1])}")
    click.echo(f"model written to {out_path}")


@main.command(name="bound")
@click.option("--n", type=int, required=True, help="Calibration sample size.")
@click.option("--B", "B", type=int, required=True)
@click.option("--delta", default=0.1, show_default=True)
@click.option("--K", "K", type=float, default=None,
              help="Smoothness constant; if given, the sharpness bound is 8K^2/B^2, not 2/B.")
def cmd_bound(n, B, delta, K) -> None:
    """Print the single-distribution risk bounds."""
    with _refusing_bad_numbers():
        report = risk_bound_report(BoundParams(n=n, B=B, delta=delta, K=K))
    _echo_bound_report(report)


@main.command(name="bound-shift")
@click.option("--n-p", "n_P", type=int, required=True, help="Source sample size.")
@click.option("--n-q", "n_Q", type=int, required=True, help="Target sample size.")
@click.option("--B", "B", type=int, required=True)
@click.option("--delta", default=0.1, show_default=True)
@click.option("--K", "K", default=ShiftBoundParams.K, show_default=True,
              help="Smoothness constant of the sharpness bound 8K^2/B^2.")
@click.option("--p-min", type=float, required=True, help="Lower bound on the source priors.")
@click.option("--q-min", type=float, required=True, help="Lower bound on the target priors.")
@click.option("--w-min", type=float, required=True, help="Lower bound on the true weights.")
@click.option("--w-max", type=float, required=True, help="Upper bound on the true weights.")
@click.option("--rho0", type=float, default=None, help="Realized weight ratio for class 0.")
@click.option("--rho1", type=float, default=None, help="Realized weight ratio for class 1.")
@click.option("--risk-p", type=float, default=None,
              help="Known source risk for the realized bound.")
def cmd_bound_shift(rho0, rho1, risk_p, **fields) -> None:
    """Print the label-shift risk bounds on the target distribution.

    The realized-ratio bound is added when --rho0, --rho1 and --risk-p
    are all given.
    """
    missing = [name for name, v in (("--rho0", rho0), ("--rho1", rho1), ("--risk-p", risk_p))
               if v is None]
    if 0 < len(missing) < 3:
        _fail(f"the realized-ratio bound needs {', '.join(missing)}", 2)
    with _refusing_bad_numbers():
        params = ShiftBoundParams(**fields)
        report = shift_risk_bound_apriori(params)
        realized = None if missing else shift_risk_bound_realized(params, (rho0, rho1), risk_p)
    click.echo(f"recalibration terms (shift-scaled): cal {fmt_float(report.cal_bound)}, "
               f"sha {fmt_float(report.sha_bound)}")
    click.echo(f"target risk bound: {fmt_float(report.risk_bound)}")
    click.echo(f"gates: {'ok' if report.conditions_met else 'NOT MET'} "
               f"({report.condition_detail})")
    if realized is not None:
        click.echo(f"realized-ratio bound: {fmt_float(realized)}")


@main.command(name="optbins")
@click.option("--n", type=int, required=True)
@click.option("--delta", default=0.1, show_default=True)
@click.option("--K", "k_const", type=float, default=None)
@click.option("--task", "task_name", type=click.Choice(["gaussian"]), default=None)
@click.option("--pi", type=float, default=None, help="Prior for --task gaussian; 0.5 if not given.")
def cmd_optbins(n, delta, k_const, task_name, pi) -> None:
    """Print the bin count minimizing the risk bound objective."""
    K = _smoothness(k_const, task_name, pi)()
    with _refusing_bad_numbers():
        B_star, zeta_min = optimal_bins(n, delta, K)
    click.echo(f"B_star = {B_star}")
    click.echo(f"zeta_min = {fmt_float(zeta_min)}")


@main.command(name="simulate")
@click.argument("experiment", type=click.Choice(["risk-grid", "opt-b", "label-shift"]))
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False), help="JSON config overrides.")
@click.option("--seed", type=int, default=None, help="Override the base seed.")
@click.option("--out-dir", "out_dir", required=True, type=click.Path(file_okay=False))
def cmd_simulate(experiment, config_path, seed, out_dir) -> None:
    """Run a simulation study and write CSV results plus a JSON manifest."""
    from . import experiments as exp  # loads scipy

    defaults, run_study = {
        "risk-grid": (exp.ExperimentConfig(), exp.run_risk_grid),
        "opt-b": (exp.default_opt_b_config(), exp.run_optimal_B),
        "label-shift": (exp.ExperimentConfig(), exp.run_label_shift),
    }[experiment]
    overrides = {}
    if config_path is not None:
        try:
            with open(config_path) as f:
                overrides = json.load(f)
            if not isinstance(overrides, dict):
                raise ValueError("config must be a JSON object")
        except (ValueError, RecursionError) as e:
            # RecursionError: arrays or objects nested past the parser's limit.
            _fail(f"{config_path}: {e}", 2)
    if seed is not None:
        overrides["base_seed"] = seed
    try:
        cfg = exp.config_from_dict(overrides, defaults)
    except (TypeError, ValueError) as e:
        _fail(f"bad config: {e}", 2)

    try:
        result = run_study(cfg)
    except ValueError as e:
        # An n with no feasible bin count, or a class still absent after
        # the study's replacement draws.
        _fail(f"bad config: {e}", 2)
    except MemoryError:
        _fail("the study's samples do not fit in memory; lower its sample sizes", 2)
    except OverflowError as e:
        _fail(f"the config is out of floating-point range ({e})", 2)
    # Only now, so that a refused study leaves no directory behind.
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    if experiment == "risk-grid":
        cells = result
        exp.write_risk_grid_csv(cells, os.path.join(out_dir, "risk_grid.csv"))
        cell_summaries = [
            {"n": c.n, "B": c.B, "gates_ok": c.gates_ok, "skipped": c.skipped}
            for c in cells
        ]
        exp.write_manifest(cfg, {"experiment": experiment, "cells": cell_summaries},
                           os.path.join(out_dir, "manifest.json"))
        skipped = sum(1 for c in cells if c.skipped)
        if skipped:
            click.echo(f"warning: {skipped} cell(s) skipped (fewer than two points per bin)",
                       err=True)
        click.echo(f"risk grid written to {out_dir} ({len(cells)} cells, {skipped} skipped)")
    elif experiment == "opt-b":
        exp.write_opt_b_csv(result, os.path.join(out_dir, "opt_b.csv"))
        exp.write_manifest(cfg, {"experiment": experiment, "K_hat": result.K_hat},
                           os.path.join(out_dir, "manifest.json"))
        click.echo(f"bin-count study written to {out_dir} (K_hat = {result.K_hat:.4f})")
    else:
        exp.write_label_shift_csv(result, os.path.join(out_dir, "label_shift.csv"))
        exp.write_manifest(
            cfg,
            {"experiment": experiment, "B_P": result.B_P, "B_Q": result.B_Q,
             "replacements": result.replacements},
            os.path.join(out_dir, "manifest.json"),
        )
        if result.replacements:
            click.echo(f"warning: {result.replacements} draw(s) replaced because a class "
                       "was absent", err=True)
        click.echo(f"label-shift study written to {out_dir}")


if __name__ == "__main__":
    main()

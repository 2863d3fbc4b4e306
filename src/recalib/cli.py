"""Command line interface: fit, apply, shift, bound, bound-shift, optbins,
simulate.

Exit codes: 0 on success, 2 for input problems (CSV parse errors, bad
configs, unsupported model files, absent classes, unreadable or
unwritable files), 3 for fitting failures (degenerate bins, empty bins,
infeasible bin counts). ``_Commands.main``, the CLI's one boundary, maps
every refusal, click's usage errors included, to its exit code after
removing every output the command wrote, whether or not stderr can be
written; only a broken pipe or an interrupt exits 1. Click only parses
file names: the call that opens or makes a file is its one check, so a
file refusal is one ``error: <path>: <reason>`` line. Outputs are written
atomically (temp file plus rename). The CLI reads nothing from the
environment: no shell completion, and help is 78 columns wide anywhere.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys

import click
import numpy as np

from .bounds import (
    BoundParams,
    InsufficientSampleError,
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
    _index,
    _nonnegative,
    _probability,
    _within,
    apply_batch,
    estimate_weights,
    fit_recalibrator,
)
from .fileio import fmt_float, write_csv, write_json, write_text_atomic

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


def _recalibrator_from_obj(obj: dict) -> Recalibrator:
    if not isinstance(obj, dict):
        raise ValueError("a model must be a JSON object")
    kind = obj.get("kind")
    if kind == "piecewise":
        return PiecewiseRecalibrator(BinningScheme(obj["edges"]), obj["values"], obj["counts"])
    if kind == "shift":
        # tuple() so that "p_hat": null is refused, not read as absent.
        p_hat, q_hat = (tuple(obj[k]) if k in obj else None for k in ("p_hat", "q_hat"))
        return ShiftCorrector(ShiftWeights(obj["w"], obj["provenance"], p_hat, q_hat))
    if kind == "composite":
        return Composite(outer=_recalibrator_from_obj(obj["outer"]),
                         inner=_recalibrator_from_obj(obj["inner"]))
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(path: str, h: Recalibrator, metadata: dict) -> None:
    write_json(path, {"format_version": MODEL_FORMAT_VERSION,
                      "model": _recalibrator_to_obj(h), "metadata": metadata})


def _read(path: str) -> bytes:
    """An input file's bytes; an ``OSError`` names ``path``, also if a failed read names none."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from e


def _read_json_object(path: str) -> dict:
    """The JSON object in a UTF-8 file; a ``ValueError`` starts with ``path``."""
    try:
        payload = json.loads(_read(path).decode("utf-8"))
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested past the limit
        raise ValueError(f"{path}: {e}") from e
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: the file must hold a JSON object")
    return payload


def load_model(path: str) -> tuple[Recalibrator, dict]:
    """Read a model file; a ``ValueError`` starts with ``path``."""
    payload = _read_json_object(path)
    version = payload.get("format_version")
    # type() because JSON true loads as a bool, a subclass of int.
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: model format version {version!r} is not supported "
                         f"(expected {MODEL_FORMAT_VERSION})")
    try:
        model = _recalibrator_from_obj(payload["model"])
    except KeyError as e:
        raise ValueError(f"{path}: malformed model: missing field {e}") from e
    except (ValueError, TypeError, OverflowError, RecursionError) as e:
        # A value the library refuses, a field of the wrong JSON type, such
        # as "edges": 5 or "values": [true], an integer too large for a
        # float, or a composite whose parts are of the wrong kinds.
        raise ValueError(f"{path}: malformed model: {e}") from e
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"{path}: malformed model: metadata must be a JSON object")
    return model, metadata


def _echo_bound_report(report) -> None:
    click.echo(f"calibration risk bound: {fmt_float(report.cal_bound)}")
    click.echo(f"sharpness risk bound:   {fmt_float(report.sha_bound)}")
    click.echo(f"total risk bound:       {fmt_float(report.risk_bound)}")
    click.echo(f"sample-size gate:       {'ok' if report.conditions_met else 'NOT MET'} "
               f"({report.condition_detail})")


def _parse_score(row: int, text: str) -> float:
    # float() would also read digit-group underscores, non-ASCII digits
    # such as full-width ones, and strip any whitespace; a score is ASCII
    # and may only be padded with spaces and tabs.
    plain = text.strip(" \t")
    try:
        if "_" in plain or plain != plain.strip() or not plain.isascii():
            raise ValueError
        value = float(plain)
    except ValueError:
        raise ValueError(f"row {row}, column z: {text!r} is not a number") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"row {row}, column z: {value!r} outside [0.0, 1.0]")
    return value


def _parse_label(row: int, text: str) -> int:
    y = text.strip(" \t")
    if y not in ("0", "1"):
        raise ValueError(f"row {row}, column y: {text!r} is not 0 or 1")
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


def _parse_rows(raw: bytes, header: tuple[str, ...], empty_ok: bool) -> list[np.ndarray]:
    """The row-by-row reader, which decides and words every refusal.

    Decodes the file as UTF-8, parses it with the csv module and each field
    with its column's parser, and raises ``ValueError`` naming the first
    damaged row, or when there are no data rows and ``empty_ok`` is false.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"not UTF-8: byte {raw[e.start]:#04x} at offset {e.start}") from None
    columns = [[] for _ in header]
    parsers = [_COLUMNS[name][0] for name in header]
    reader = csv.reader(io.StringIO(text, newline=""))
    row = 0
    try:
        first = next(reader, None)
        if first is None:
            raise ValueError(f"empty file, expected header {','.join(header)}")
        if tuple(s.strip(" \t") for s in first) != header:
            raise ValueError(f"row 1: expected header {','.join(header)}, "
                             f"got {','.join(map(repr, first))}")
        row = 1
        for row, fields in enumerate(reader, start=2):
            if len(fields) != len(header):
                raise ValueError(f"row {row}: expected {len(header)} fields, got {len(fields)}")
            for column, parse, field in zip(columns, parsers, fields):
                column.append(parse(row, field))
    except csv.Error as e:
        # Raised while reading the row after ``row``, e.g. a field longer
        # than csv.field_size_limit().
        raise ValueError(f"row {row + 1}: {e}") from None
    if not columns[0] and not empty_ok:
        raise ValueError("no data rows")
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

    The file is read once. A plain file is parsed column-wise from its bytes;
    anything else goes to the row-by-row reader, whose refusal gains the path.
    """
    raw = _read(path)
    columns = _split_columns(raw, header)
    if columns is None:
        try:
            columns = _parse_rows(raw, header, empty_ok)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e
    return columns, hashlib.sha256(raw).hexdigest()


def _smoothness(k_const, task_name, pi) -> float | None:
    """Check the smoothness flags, raising ``ValueError`` on bad ones, and
    return K: --K as given, the --task estimate, or None with neither."""
    if k_const is not None and task_name is not None:
        raise ValueError("--K and --task both set the smoothness constant; pass one")
    if pi is not None and task_name is None:
        raise ValueError("--pi needs --task")
    if k_const is not None:
        return _nonnegative(k_const, "K")
    if task_name == "gaussian":
        from .oracle import GaussianMixtureTask, estimate_K  # loads scipy

        return estimate_K(GaussianMixtureTask(0.5 if pi is None else pi))
    return None


def _warn_unit_K() -> None:
    click.echo("warning: no smoothness constant given; assuming K=1 "
               "(pass --K or --task gaussian)", err=True)


class _Path(click.ParamType):
    """A file name, taken as given: the call that opens or makes the file is
    its one check. Only an empty name is refused here, since it names none."""

    name = "path"

    def convert(self, value, param, ctx) -> str:
        if value == "":
            raise ValueError(f"{param.opts[0]} must name a path, got ''")
        return value


def _wrote(*paths: str) -> None:
    """Record outputs of the running command, for removal if it fails."""
    click.get_current_context().obj.extend(paths)


class _FitFailure(Exception):
    """A sample that cannot carry the requested fit; the command exits 3."""


class _Commands(click.Group):
    """The command group. Its ``main``, the CLI's one boundary, runs click
    with ``standalone_mode`` off, so every outcome returns to it. A failed
    run loses what it recorded with ``_wrote``; a usage error then exits 2,
    an interrupt 1, a ``_FitFailure`` 3 and an OSError, ValueError,
    ArithmeticError or MemoryError 2 after one ``error:`` line. A broken
    pipe exits 1 through click; any other exception stays a traceback."""

    def _main_shell_completion(self, *args) -> None:
        """No shell completion: click would read it from the environment."""

    def main(self, *args, **kwargs):
        written = []
        try:
            try:
                return super().main(*args, **{**kwargs, "standalone_mode": False, "obj": written})
            except BaseException:
                for path in reversed(written):  # newest first, so a directory is empty
                    with contextlib.suppress(OSError):
                        (os.rmdir if os.path.isdir(path) else os.remove)(path)
                raise
        except click.ClickException as e:  # a bad option, command or argument
            code, message, show = e.exit_code, None, e.show
        except click.Abort:  # click's name for an interrupt or the end of input
            code, message, show = 1, None, lambda: click.echo("Aborted!", err=True)
        except _FitFailure as e:
            code, message = 3, str(e)
        except OSError as e:  # or an interrupt whose newline before "Aborted!" failed
            reason = e.strerror or str(e)
            code = 1 if isinstance(e.__context__, (EOFError, KeyboardInterrupt)) else 2
            message = reason if e.filename is None else f"{e.filename}: {reason}"
        except ValueError as e:
            code, message = 2, str(e)
        except ArithmeticError as e:
            code, message = 2, f"the inputs are out of floating-point range ({e})"
        except MemoryError:
            code, message = 2, "the inputs do not fit in memory"
        with contextlib.suppress(OSError):
            show() if message is None else click.echo(f"error: {message}", err=True)
        sys.exit(code)


@click.group(cls=_Commands, context_settings={"terminal_width": 78})
def main() -> None:
    """Binned probability recalibration with finite-sample guarantees."""


@main.command(name="fit")
@click.option("--input", "input_path", required=True, type=_Path(), help="CSV with header z,y.")
@click.option("--bins", default="auto", show_default=True,
              help="Bin count, or 'auto' to minimize the bound objective.")
@click.option("--delta", default=0.1, show_default=True, help="Failure probability for bounds.")
@click.option("--K", "k_const", type=float, default=None,
              help="Smoothness constant; if given, the sharpness bound is 8K^2/B^2, not 2/B.")
@click.option("--task", "task_name", type=click.Choice(["gaussian"]), default=None,
              help="Estimate the smoothness constant from this simulation family.")
@click.option("--pi", type=float, default=None, help="Prior for --task gaussian; 0.5 if not given.")
@click.option("--out", "out_path", required=True, type=_Path())
def cmd_fit(input_path, bins, delta, k_const, task_name, pi, out_path) -> None:
    """Fit a uniform-mass binned recalibrator and save it as a model file."""
    # Every flag is checked before the CSV is read, so a refusal is cheap.
    delta = _probability(delta, "delta")
    auto = bins == "auto"
    if not auto:
        try:
            B = int(bins)
        except ValueError:
            raise ValueError(f"--bins must be an integer or 'auto', got {bins!r}") from None
        B = _index(B, "B")
    # --bins auto needs a K to choose B; an integer --bins uses one only
    # for the smooth sharpness bound, as `bound` does.
    K = _smoothness(k_const, task_name, pi)
    (z, y), digest = _read_columns(input_path, ("z", "y"))
    data = LabeledSample(z=z, y=y)
    unit_K = auto and K is None
    if unit_K:
        K = 1.0
    # A data set too small for the flags exits 3; flags whose bounds
    # overflow (--K 1e200, --delta 1e-320) exit 2 before the model is written.
    try:
        if auto:
            B, zeta_min = optimal_bins(data.n, delta, K)
        model = fit_recalibrator(data, B)
    except ValueError as e:
        raise _FitFailure(str(e)) from e
    report = unavailable = None
    try:
        report = risk_bound_report(BoundParams(n=data.n, B=B, delta=delta, K=K))
    except InsufficientSampleError as e:
        unavailable = e
    metadata = {
        "n": data.n,
        "B": B,
        "delta": delta,
        "source_sha256": digest,
    }
    save_model(out_path, model, metadata)
    _wrote(out_path)
    # The warnings follow the model, so a refused fit prints one error line.
    if unit_K:
        _warn_unit_K()
    if unavailable is not None:
        click.echo(f"warning: risk bound unavailable: {unavailable}", err=True)
    if report is not None and not report.conditions_met:
        click.echo(f"warning: sample-size gate not met ({report.condition_detail})", err=True)
    # Nothing goes to stdout until the model is written and every warning
    # is on stderr, so a failed fit prints nothing on stdout.
    if auto:
        click.echo(f"auto bin count: B = {B} (objective {zeta_min:.6g}, K = {K:.6g})")
        click.echo("sharpness bound: 8K^2/B^2, the smooth term of that objective")
    if report is not None:
        _echo_bound_report(report)
    click.echo(f"model written to {out_path}")


@main.command(name="apply")
@click.option("--model", "model_path", required=True, type=_Path())
@click.option("--input", "input_path", required=True, type=_Path(), help="CSV with header z.")
@click.option("--out", "out_path", required=True, type=_Path())
def cmd_apply(model_path, input_path, out_path) -> None:
    """Recalibrate a stream of scores; writes CSV with header z,z_cal."""
    model, _ = load_model(model_path)
    (z,), _ = _read_columns(input_path, ("z",), empty_ok=True)  # no scores, no output rows
    z_cal = apply_batch(model, z)
    # A piecewise map takes few distinct values: render each bit pattern
    # once (so -0.0 stays apart from 0.0). repr of a Python float is
    # fmt_float.
    bits, inverse = np.unique(z_cal.view(np.uint64), return_inverse=True)
    rendered = np.array([fmt_float(c) for c in bits.view(np.float64)], dtype=object)
    rows = map(",".join, zip(map(repr, z.tolist()), rendered[inverse].tolist()))
    write_text_atomic(out_path, "\n".join(["z,z_cal", *rows]) + "\n")
    _wrote(out_path)
    click.echo(f"recalibrated scores written to {out_path}")


@main.command(name="shift")
@click.option("--labels-p", "labels_p_path", required=True, type=_Path(),
              help="Source labels CSV, header y.")
@click.option("--labels-q", "labels_q_path", required=True, type=_Path(),
              help="Target labels CSV, header y.")
@click.option("--base-model", "base_model_path", default=None, type=_Path(),
              help="Piecewise model to wrap into a composite.")
@click.option("--out", "out_path", required=True, type=_Path())
def cmd_shift(labels_p_path, labels_q_path, base_model_path, out_path) -> None:
    """Estimate label-shift weights and save a shift or composite model."""
    (labels_p,), source_sha256 = _read_columns(labels_p_path, ("y",))
    (labels_q,), target_sha256 = _read_columns(labels_q_path, ("y",))
    weights = estimate_weights(labels_p, labels_q)
    corrector = ShiftCorrector(weights)
    metadata = {
        "n_P": len(labels_p),
        "n_Q": len(labels_q),
        "source_sha256": source_sha256,
        "target_sha256": target_sha256,
    }
    model = corrector
    if base_model_path is not None:
        base, base_meta = load_model(base_model_path)
        if not isinstance(base, PiecewiseRecalibrator):
            raise ValueError(f"{base_model_path}: --base-model must hold a piecewise model")
        metadata["base_model"] = base_meta
        model = Composite(outer=corrector, inner=base)
    save_model(out_path, model, metadata)
    _wrote(out_path)
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
    report = risk_bound_report(BoundParams(n=n, B=B, delta=delta, K=K))
    _echo_bound_report(report)


@main.command(name="bound-shift")
@click.option("--n-p", "n_P", type=int, required=True, help="Source sample size.")
@click.option("--n-q", "n_Q", type=int, required=True, help="Target sample size.")
@click.option("--B", "B", type=int, required=True)
@click.option("--delta", default=0.1, show_default=True)
@click.option("--K", "K", default=1.0, show_default=True,
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
        raise ValueError(f"the realized-ratio bound needs {', '.join(missing)}")
    report = shift_risk_bound_apriori(**fields)
    realized = None if missing else shift_risk_bound_realized(
        (rho0, rho1), risk_p, w_min=fields["w_min"], w_max=fields["w_max"])
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
    K = _smoothness(k_const, task_name, pi)
    B_star, zeta_min = optimal_bins(n, delta, 1.0 if K is None else K)
    if K is None:
        _warn_unit_K()
    click.echo(f"B_star = {B_star}")
    click.echo(f"zeta_min = {fmt_float(zeta_min)}")


@main.command(name="simulate")
@click.argument("experiment", type=click.Choice(["risk-grid", "opt-b", "label-shift"]))
@click.option("--config", "config_path", default=None, type=_Path(),
              help="JSON config overrides.")
@click.option("--seed", type=int, default=None, help="Override the base seed.")
@click.option("--out-dir", "out_dir", required=True, type=_Path())
def cmd_simulate(experiment, config_path, seed, out_dir) -> None:
    """Run a simulation study and write CSV results plus a JSON manifest."""
    from . import experiments as exp  # loads scipy

    defaults, run_study, report = exp.studies()[experiment]
    overrides = {} if config_path is None else _read_json_object(config_path)
    if seed is not None:
        overrides["base_seed"] = seed
    try:
        cfg = exp.config_from_dict(overrides, defaults)
    except (TypeError, ValueError, OverflowError) as e:
        # OverflowError: an integer too large for a float, as a prior.
        raise ValueError(f"bad config: {e}") from e
    # Made before the study runs, so a name that cannot be a directory is refused first.
    level, levels = out_dir, []
    while level and not os.path.lexists(level):
        level, levels = os.path.dirname(level), [level, *levels]
    _wrote(*levels)  # the levels this run makes, outermost first
    os.makedirs(out_dir, exist_ok=True)
    try:
        result = run_study(cfg)
    except ValueError as e:
        # An n with no feasible bin count, or a class still absent after
        # the study's replacement draws.
        raise ValueError(f"bad config: {e}") from e
    except MemoryError:  # sizes that pass the config checks but cannot be allocated
        raise ValueError("the study's samples do not fit in memory; lower its sample sizes")
    tables, extra, warning, summary = report(result, out_dir)
    for name, header, rows in tables:
        path = os.path.join(out_dir, name)
        write_csv(path, header, rows)
        _wrote(path)
    manifest_path = os.path.join(out_dir, "manifest.json")
    exp.write_manifest(cfg, {"experiment": experiment, **extra}, manifest_path)
    _wrote(manifest_path)
    if warning is not None:
        click.echo(f"warning: {warning}", err=True)
    click.echo(summary)


if __name__ == "__main__":
    main()

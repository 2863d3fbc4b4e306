"""The four benchmark workloads: seeded inputs, the timed op, output checks.

Every workload is a closed loop with one client: the runner calls ``op``,
waits for it, then calls the next one. ``inputs`` and ``check`` run outside
the timed region. Every op gets inputs generated with ``oracle.sample``
(directly, or inside the simulation runners from a per-op base seed) from
the run seed, the op's tag (warm-up, timed, set-up probe) and its index, so
no two ops of a run share inputs and the same seed gives the same inputs.

Import this module only after ``recalib`` has been imported: the runner
times that import as part of set-up.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from recalib import bounds, core, experiments, oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "launch.py")

DELTA = 0.1
TIMED, WARMUP, PROBE = 0, 1, 2

# A CLI command that runs longer than this counts as a failed op.
CLI_TIMEOUT_S = 120


def seed_seq(seed: int, workload: int, tag: int, i: int, part: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((seed, workload, tag, i, part))


def base_seed(seed: int, workload: int, tag: int, i: int) -> int:
    """A per-op base seed for the simulation runners."""
    return int(seed_seq(seed, workload, tag, i, 0).generate_state(1)[0])


def bit_equal(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


_ORACLES = None


def sort_slice_fit(z, y, B):
    """``sort_slice_fit`` from the test suite's reference implementations."""
    global _ORACLES
    if _ORACLES is None:
        spec = importlib.util.spec_from_file_location(
            "perfbench_oracles", os.path.join(ROOT, "tests", "oracles.py"))
        _ORACLES = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(_ORACLES)
    return _ORACLES.sort_slice_fit(z, y, B)


def fit_matches_reference(h, z, y) -> bool:
    edges, values, counts = sort_slice_fit(z, y, h.scheme.B)
    return (h.scheme.edges, h.values, h.counts) == (edges, values, counts)


@dataclass
class Context:
    seed: int
    k_hat: float
    work_dir: str


class Workload:
    """One workload. ``nominal_op_s`` (an orientation time) and ``min_ops``
    fix the op count of a run from ``--seconds``; the count never depends on
    measured speed, so runs of two commits do the same work."""

    name = ""
    index = 0
    nominal_op_s = 1.0
    min_ops = 1
    in_process = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def op_count(self, seconds: float) -> int:
        return max(self.min_ops, int(np.ceil(seconds / self.nominal_op_s)))

    def inputs(self, tag: int, i: int):
        raise NotImplementedError

    def op(self, inp, tracer, op_id: int):
        raise NotImplementedError

    def check(self, inp, out, i: int, n_ops: int) -> list[str]:
        """Problems with the output of op i of n_ops (i = -1: the warm-up op)."""
        raise NotImplementedError

    def after_traced(self, inp, out, tracer) -> None:
        """Fold counts (and spans of child processes) of a traced op into the tracer."""

    def cleanup(self, inp) -> None:
        pass


class Calibrate(Workload):
    """Library use at n = 1e6, as in the README (part of ``library``)."""

    index = 1
    n = 1_000_000
    subsample = 2_000

    def inputs(self, tag, i):
        task = oracle.GaussianMixtureTask(0.5)
        cal = oracle.sample(task, self.n, seed_seq(self.ctx.seed, self.index, tag, i, 0))
        held = oracle.sample(task, self.n, seed_seq(self.ctx.seed, self.index, tag, i, 1))
        # Fresh writable raw arrays, as a caller would hold them.
        return np.array(cal.z), np.array(cal.y), np.array(held.z), np.array(held.y)

    def op(self, inp, tracer, op_id):
        z, y, z_held, y_held = inp
        data = core.LabeledSample(z=z, y=y)
        B, _ = bounds.optimal_bins(data.n, DELTA, self.ctx.k_hat)
        h = core.fit_recalibrator(data, B)
        report = bounds.risk_bound_report(bounds.BoundParams(n=data.n, B=B, delta=DELTA))
        z_cal = core.apply_batch(h, z_held)
        plug = oracle.empirical_risk_plugin(core.LabeledSample(z=z_held, y=y_held), h)
        return h, report, z_cal, plug

    def check(self, inp, out, i, n_ops):
        z, y, z_held, _ = inp
        h, report, z_cal, plug = out
        problems = []
        if not fit_matches_reference(h, z, y):
            problems.append("fit differs from sort_slice_fit")
        sub = z_held[: self.subsample]
        if not bit_equal(z_cal[: self.subsample], [core.apply(h, v) for v in sub]):
            problems.append("apply_batch differs from scalar apply")
        if plug.r_total != plug.r_cal + plug.r_sha:
            problems.append("plug-in report breaks r_total = r_cal + r_sha")
        if report.risk_bound != report.cal_bound + report.sha_bound:
            problems.append("bound report breaks risk_bound = cal_bound + sha_bound")
        return problems


class BinCountStudy(Workload):
    """``run_optimal_B`` at n = 1e6 over the default quarter-octave B grid
    (part of ``library``)."""

    index = 2
    B_grid = experiments.default_opt_b_config().B_grid

    def inputs(self, tag, i):
        return experiments.ExperimentConfig(
            n_grid=(1_000_000,), B_grid=self.B_grid, seeds=1,
            base_seed=base_seed(self.ctx.seed, self.index, tag, i))

    def op(self, cfg, tracer, op_id):
        return experiments.run_optimal_B(cfg)

    def check(self, cfg, out, i, n_ops):
        problems = []
        (row,) = out.rows
        if row.B_star_exp not in self.B_grid:
            problems.append(f"B_star_exp {row.B_star_exp} is not on the grid")
        if (row.B_star_theory, row.zeta_min) != bounds.optimal_bins(row.n, cfg.delta, out.K_hat):
            problems.append("B_star_theory differs from optimal_bins")
        # One timed op per run, chosen by the seed, is rerun (2 s each).
        if i == self.ctx.seed % max(n_ops, 1) and repr(experiments.run_optimal_B(cfg)) != repr(out):
            problems.append("rerun of the seed gives a different result")
        return problems


class LabelShiftStudy(Workload):
    """``run_label_shift`` at its default config, ten seeds (part of ``library``)."""

    index = 3

    def inputs(self, tag, i):
        return experiments.ExperimentConfig(base_seed=base_seed(self.ctx.seed, self.index, tag, i))

    def op(self, cfg, tracer, op_id):
        return experiments.run_label_shift(cfg)

    def check(self, cfg, out, i, n_ops):
        problems = []
        if [r.method for r in out.rows] != list(experiments.VALID_METHODS):
            problems.append("label-shift result lacks a method")
        if (out.B_P, out.B_Q) != (10, 5):
            problems.append(f"unexpected bin counts {(out.B_P, out.B_Q)}")
        if repr(experiments.run_label_shift(cfg)) != repr(out):
            problems.append("rerun of the seed gives a different result")
        return problems

    def after_traced(self, cfg, out, tracer):
        tracer.count("experiments.replacements", out.replacements)
        tracer.count("experiments.draws", cfg.seeds + out.replacements)


class Library(Workload):
    """In-process library session: one op runs the three parts in order, so
    the fit path at scale, per-bin quadrature and the tiny-sample label-shift
    path are timed in one run long enough to be steady."""

    name = "library"
    nominal_op_s = 2.8
    min_ops = 3
    PARTS = (Calibrate, BinCountStudy, LabelShiftStudy)

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.parts = [part(ctx) for part in self.PARTS]

    def inputs(self, tag, i):
        return [part.inputs(tag, i) for part in self.parts]

    def op(self, inp, tracer, op_id):
        return [part.op(x, tracer, op_id) for part, x in zip(self.parts, inp)]

    def check(self, inp, out, i, n_ops):
        return [p for part, x, y in zip(self.parts, inp, out) for p in part.check(x, y, i, n_ops)]

    def after_traced(self, inp, out, tracer):
        for part, x, y in zip(self.parts, inp, out):
            part.after_traced(x, y, tracer)


@dataclass
class CliInputs:
    dir: str
    fit: core.LabeledSample
    scores: np.ndarray
    target_labels: np.ndarray
    sim_seed: int


@dataclass
class CliResult:
    label: str
    args: list
    returncode: int
    start: float
    end: float
    stdout: str
    stderr: str
    trace_path: str | None


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _csv_column(values, fmt=repr) -> str:
    return "\n".join(map(fmt, values.tolist()))


def _read_z_zcal(path: str):
    with open(path) as f:
        header, *rows = f.read().splitlines()
    if header != "z,z_cal":
        raise ValueError(f"{path}: header {header!r}")
    z, z_cal = zip(*(row.split(",") for row in rows))
    return np.array(z, dtype=np.float64), np.array(z_cal, dtype=np.float64)


class CliPipeline(Workload):
    """Six fresh ``recalib`` processes per op, one after the other."""

    name = "cli_pipeline"
    index = 0
    nominal_op_s = 7.0
    min_ops = 3
    in_process = False
    n_fit = 100_000
    n_apply = 100_000
    n_target = 10_000
    optbins_n = 20_000_000
    sim_config = {"n_grid": [1_000, 100_000], "B_grid": [6, 24, 96], "seeds": 2}

    # (metric label, recalib arguments, data rows the command reads)
    COMMANDS = (
        ("fit", ["fit", "--input", "fit.csv", "--bins", "auto", "--task", "gaussian",
                 "--out", "model.json"], n_fit),
        ("apply", ["apply", "--model", "model.json", "--input", "scores.csv",
                   "--out", "calibrated.csv"], n_apply),
        ("shift", ["shift", "--labels-p", "source.csv", "--labels-q", "target.csv",
                   "--base-model", "model.json", "--out", "composite.json"], n_fit + n_target),
        ("apply", ["apply", "--model", "composite.json", "--input", "scores.csv",
                   "--out", "calibrated_shift.csv"], n_apply),
        ("optbins", ["optbins", "--n", str(optbins_n), "--K", "1"], 0),
        ("simulate", ["simulate", "risk-grid", "--config", "sim.json", "--seed", "{sim_seed}",
                      "--out-dir", "sim"], 0),
    )

    def inputs(self, tag, i):
        seq = lambda part: seed_seq(self.ctx.seed, self.index, tag, i, part)  # noqa: E731
        d = os.path.join(self.ctx.work_dir, f"op-{tag}-{i}")
        os.makedirs(d)
        fit = oracle.sample(oracle.GaussianMixtureTask(0.5), self.n_fit, seq(0))
        scores = oracle.sample(oracle.GaussianMixtureTask(0.5), self.n_apply, seq(1)).z
        target = oracle.sample(oracle.GaussianMixtureTask(0.1), self.n_target, seq(2)).y
        pairs = (f"{z!r},{y}" for z, y in zip(fit.z.tolist(), fit.y.tolist()))
        _write(os.path.join(d, "fit.csv"), "z,y\n" + "\n".join(pairs) + "\n")
        _write(os.path.join(d, "scores.csv"), "z\n" + _csv_column(scores) + "\n")
        _write(os.path.join(d, "source.csv"), "y\n" + _csv_column(fit.y, str) + "\n")
        _write(os.path.join(d, "target.csv"), "y\n" + _csv_column(target, str) + "\n")
        _write(os.path.join(d, "sim.json"), json.dumps(self.sim_config))
        return CliInputs(d, fit, scores, target, int(seq(3).generate_state(1)[0]))

    def op(self, inp, tracer, op_id):
        results = []
        for k, (label, args, _) in enumerate(self.COMMANDS):
            args = [a.format(sim_seed=inp.sim_seed) for a in args]
            trace_path = os.path.join(inp.dir, f"spans-{k}.npz") if tracer else None
            opts = ["--trace", trace_path, "--op", str(op_id)] if tracer else []
            start = perf_counter()
            try:
                proc = subprocess.run([sys.executable, LAUNCHER, *opts, "--", *args], cwd=inp.dir,
                                      capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired:
                code, stdout, stderr = -1, "", f"timed out after {CLI_TIMEOUT_S} s"
            results.append(CliResult(label, args, code, start, perf_counter(), stdout, stderr,
                                     trace_path))
            if code != 0:
                break
        return results

    def check(self, inp, out, i, n_ops):
        # Imported here, after set-up: the benchmark process needs the CLI
        # module only to reload and re-save models.
        from recalib import cli

        problems = [f"recalib {' '.join(r.args)} exited {r.returncode}: {r.stderr.strip()[-200:]}"
                    for r in out if r.returncode != 0]
        if problems or len(out) != len(self.COMMANDS):
            return problems or ["pipeline stopped early"]
        path = lambda name: os.path.join(inp.dir, name)  # noqa: E731
        model, meta = cli.load_model(path("model.json"))
        composite, _ = cli.load_model(path("composite.json"))
        if meta["B"] != bounds.optimal_bins(self.n_fit, DELTA, self.ctx.k_hat)[0]:
            problems.append("fit --bins auto chose a B other than optimal_bins")
        if not fit_matches_reference(model, inp.fit.z, inp.fit.y):
            problems.append("fit differs from sort_slice_fit")
        if composite.outer.weights != core.estimate_weights(inp.fit.y, inp.target_labels):
            problems.append("shift weights differ from estimate_weights of the label files")
        if composite.inner != model:
            problems.append("composite does not wrap the fitted model")
        for h, csv_name in ((model, "calibrated.csv"), (composite, "calibrated_shift.csv")):
            z, z_cal = _read_z_zcal(path(csv_name))
            if not bit_equal(z, inp.scores):
                problems.append(f"{csv_name}: z column differs from the input scores")
            if not bit_equal(z_cal, core.apply_batch(h, z)):
                problems.append(f"{csv_name}: z_cal differs from apply_batch of the model")
        for name in ("model.json", "composite.json"):
            h, m = cli.load_model(path(name))
            cli.save_model(path("resaved.json"), h, m)
            with open(path(name), "rb") as a, open(path("resaved.json"), "rb") as b:
                if a.read() != b.read():
                    problems.append(f"{name}: load and save does not reproduce its bytes")
        problems += self._check_optbins(out[4].stdout)
        cfg = experiments.config_from_dict(dict(self.sim_config, base_seed=inp.sim_seed),
                                           experiments.default_risk_grid_config())
        experiments.write_risk_grid_csv(experiments.run_risk_grid(cfg), path("risk_grid.csv"))
        with open(path("risk_grid.csv"), "rb") as a, open(path("sim/risk_grid.csv"), "rb") as b:
            if a.read() != b.read():
                problems.append("simulate CSV differs from a rerun of its seed")
        return problems

    def _check_optbins(self, stdout: str) -> list[str]:
        fields = dict(line.split(" = ") for line in stdout.splitlines() if " = " in line)
        B, zeta_min = int(fields["B_star"]), float(fields["zeta_min"])
        n = self.optbins_n
        z = lambda b: bounds.zeta(b, n, DELTA, 1.0)  # noqa: E731
        problems = []
        if not 2 <= B <= n // 2 or not (B == 2 or z(B - 1) > z(B)) or not z(B + 1) >= z(B):
            problems.append(f"optbins B_star = {B} is not the leftmost minimum of zeta")
        if abs(zeta_min - z(B)) > 1e-12 * z(B):
            problems.append("optbins zeta_min differs from zeta(B_star)")
        return problems

    def after_traced(self, inp, out, tracer):
        for r, (_, _, rows) in zip(out, self.COMMANDS):
            if r.returncode != 0:
                tracer.count("cli.nonzero_exits", 1)
            tracer.count("cli.rows_in", rows)
            if r.trace_path is None or not os.path.exists(r.trace_path):
                continue
            with np.load(r.trace_path) as f:
                names = [str(x) for x in f["names"]]
                roots = np.flatnonzero(f["name"] == names.index("cli.process"))
                in_process = float(np.sum(f["end"][roots] - f["start"][roots]))
            boot = (r.end - r.start) - in_process
            tracer.add_span("cli.boot", r.start, r.start + boot)
            tracer.merge(r.trace_path)

    def cleanup(self, inp):
        shutil.rmtree(inp.dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (CliPipeline, Library)}

"""Seeded, deterministic experiment harness for the simulation studies.

Three runners: a risk grid over (n, B) under the balanced task, a
bin-count selection study comparing the empirical risk minimizer with
the bound minimizer, and a label-shift comparison of four recalibration
strategies evaluated under the target distribution.

Every cell gets its own PCG64 substream derived from the base seed, so
results are bitwise reproducible and adding or removing grid points
never shifts the draws of the remaining cells. Identical configs produce
byte-identical CSV output with the same numpy and scipy build on the same
CPU features (see ``oracle.sample``).
"""

from __future__ import annotations

import functools
import operator
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from ._version import __version__
from .bounds import BoundParams, BoundReport, optimal_bins, risk_bound_report
from .core import (ClassAbsentError, ShiftCorrector, _fit_view, _index, _reals, _sorted_view,
                   compose, estimate_weights, fit_recalibrator)
from .fileio import write_csv, write_json
from .oracle import GaussianMixtureTask, RiskReport, estimate_K, population_risk, sample

__all__ = [
    "DESK_N_CAP",
    "DESK_B_CAP",
    "DESK_SEEDS_CAP",
    "VALID_METHODS",
    "ExperimentConfig",
    "GridCell",
    "TableRow",
    "LabelShiftResult",
    "OptBRow",
    "OptimalBResult",
    "cell_seed",
    "bins_cube_root",
    "mean_risk",
    "loglog_slope",
    "run_risk_grid",
    "run_label_shift",
    "run_optimal_B",
    "default_risk_grid_config",
    "default_opt_b_config",
    "config_from_dict",
    "write_risk_grid_csv",
    "write_label_shift_csv",
    "write_opt_b_csv",
    "write_manifest",
]

# Desk-scale caps on the sampling grids and the seed count. The full-scale
# grids from the original study (n to 1e7, B to 1e3) only run when a
# config explicitly sets full_scale.
DESK_N_CAP = 1_000_000
DESK_B_CAP = 256
DESK_SEEDS_CAP = 1_000
# The most float64 values one array can hold (numpy sizes arrays in
# signed bytes). A larger sample is refused even with full_scale.
MAX_N = sys.maxsize // 8

VALID_METHODS = ("Composite", "Source", "LabelShift", "Target")

SEED_RULE = "PCG64(SeedSequence((base_seed, *cell_fields)))"


@dataclass(frozen=True)
class ExperimentConfig:
    n_grid: tuple[int, ...] = (100, 1_000, 10_000, 100_000, 1_000_000)
    B_grid: tuple[int, ...] = (6, 12, 24, 48, 96, 192)
    delta: float = 0.1
    seeds: int = 10
    base_seed: int = 0
    pi_source: float = 0.5
    pi_target: float = 0.1
    n_P: int = 1_000
    n_Q: int = 100
    methods: tuple[str, ...] = VALID_METHODS
    full_scale: bool = False

    def __post_init__(self) -> None:
        for name in ("n_grid", "B_grid"):
            object.__setattr__(self, name, _reals(getattr(self, name), name, integer=True))
        for name in ("seeds", "base_seed", "n_P", "n_Q"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        for name in ("delta", "pi_source", "pi_target"):
            object.__setattr__(self, name, _reals((getattr(self, name),), name)[0])
        if not isinstance(self.full_scale, bool):
            raise TypeError(f"full_scale must be a bool, not {type(self.full_scale).__name__}")
        # A str or a dict would iterate as characters or keys.
        if not isinstance(self.methods, (list, tuple)):
            raise TypeError(f"methods must be a list or tuple, not {type(self.methods).__name__}")
        object.__setattr__(self, "methods", tuple(self.methods))
        for name, grid in (("n_grid", self.n_grid), ("B_grid", self.B_grid)):
            if not grid:
                raise ValueError(f"{name} must be nonempty")
            if any(v < 1 for v in grid):
                raise ValueError(f"{name} entries must be positive")
            if list(grid) != sorted(grid):
                raise ValueError(f"{name} must be sorted ascending")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.seeds < 1:
            raise ValueError("seeds must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be nonnegative")
        for name, v in (("pi_source", self.pi_source), ("pi_target", self.pi_target)):
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1")
        if self.n_P < 1 or self.n_Q < 1:
            raise ValueError("n_P and n_Q must be at least 1")
        bad = [m for m in self.methods if m not in VALID_METHODS]
        if bad or not self.methods:
            raise ValueError(f"methods must be a nonempty subset of {VALID_METHODS}, got {self.methods}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must not repeat")
        if not self.full_scale:
            if max(self.n_grid) > DESK_N_CAP or max(self.B_grid) > DESK_B_CAP:
                raise ValueError(
                    f"grid exceeds the desk-scale caps (n <= {DESK_N_CAP}, B <= {DESK_B_CAP}); "
                    "set full_scale to run it anyway"
                )
            if max(self.n_P, self.n_Q) > DESK_N_CAP:
                raise ValueError(f"n_P and n_Q must be at most {DESK_N_CAP} (the desk-scale "
                                 "cap); set full_scale to run larger samples")
            if self.seeds > DESK_SEEDS_CAP:
                raise ValueError(f"seeds must be at most {DESK_SEEDS_CAP} (the desk-scale "
                                 "cap); set full_scale to run more")
        if max(self.n_grid + (self.n_P, self.n_Q)) > MAX_N:
            raise ValueError(f"sample sizes must be at most {MAX_N}, the most float64 "
                             "values one array can address")


def default_risk_grid_config() -> ExperimentConfig:
    return ExperimentConfig()


def default_opt_b_config() -> ExperimentConfig:
    # Quarter-octave B grid so the argmin is well resolved on a log scale.
    return ExperimentConfig(
        n_grid=(1_000, 10_000, 100_000, 1_000_000),
        B_grid=(6, 7, 8, 10, 12, 14, 17, 20, 24, 29, 34, 40, 48, 57,
                68, 81, 96, 114, 136, 162, 192, 228, 256),
    )


def config_from_dict(overrides: dict, defaults: ExperimentConfig | None = None) -> ExperimentConfig:
    """Build a config from JSON-style overrides on top of defaults.

    Unknown keys raise ValueError so typos do not silently fall back to
    defaults. The values are checked by ``ExperimentConfig`` itself.
    """
    names = {f.name for f in fields(ExperimentConfig)}
    for key in overrides:
        if key not in names:
            raise ValueError(f"unknown config key {key!r}")
    return replace(defaults if defaults is not None else ExperimentConfig(), **overrides)


def cell_seed(base_seed: int, *fields: int) -> np.random.SeedSequence:
    """Deterministic substream for one experiment cell.

    The entropy is the tuple (base_seed, *fields), so a cell keeps its
    stream no matter how the surrounding grid changes shape.
    """
    return np.random.SeedSequence((int(base_seed),) + tuple(int(f) for f in fields))


def bins_cube_root(n: int) -> int:
    """ceil(n^(1/3)), exact at perfect cubes despite floating point."""
    n = _index(n, "n")
    if n < 1:
        raise ValueError("n must be positive")
    b = max(1, round(n ** (1.0 / 3.0)))
    while b ** 3 < n:
        b += 1
    while (b - 1) ** 3 >= n:
        b -= 1
    return b


def mean_risk(reports: tuple[RiskReport, ...], field: str) -> float:
    return float(np.mean([getattr(r, field) for r in reports]))


def loglog_slope(x, y) -> tuple[float, float]:
    """OLS slope of log10(y) on log10(x) and its residual standard error."""
    lx = np.log10(np.asarray(x, dtype=np.float64))
    ly = np.log10(np.asarray(y, dtype=np.float64))
    if lx.size != ly.size or lx.size < 2:
        raise ValueError("need at least two (x, y) pairs")
    mx = lx.mean()
    sxx = float(((lx - mx) ** 2).sum())
    slope = float(((lx - mx) * (ly - ly.mean())).sum() / sxx)
    if lx.size == 2:
        return slope, float("nan")
    resid = ly - (ly.mean() + slope * (lx - mx))
    se = float(np.sqrt((resid ** 2).sum() / (lx.size - 2) / sxx))
    return slope, se


@dataclass(frozen=True)
class GridCell:
    """One (n, B) cell of the risk grid with its bound report and per-seed
    risk reports. A cell with fewer than two points per bin is skipped: its
    bound is None and it has no reports."""

    n: int
    B: int
    bound: BoundReport | None
    reports: tuple[RiskReport, ...]


@dataclass(frozen=True)
class TableRow:
    method: str
    reports: tuple[RiskReport, ...]


@dataclass(frozen=True)
class LabelShiftResult:
    rows: tuple[TableRow, ...]
    replacements: int
    B_P: int
    B_Q: int


@dataclass(frozen=True)
class OptBRow:
    n: int
    B_star_exp: int
    B_star_theory: int
    zeta_min: float
    risk_curve: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class OptimalBResult:
    rows: tuple[OptBRow, ...]
    K_hat: float


def _fit_risks(n: int, Bs: tuple[int, ...], seed: np.random.SeedSequence) -> tuple[RiskReport, ...]:
    """The unit of both figures: draw n points from the balanced task, fit
    UMB at each B in ``Bs`` and return the exact population risks, in that
    order. The draw is sorted once and let go; every B is fitted on that
    one view, which goes when the unit returns."""
    task = GaussianMixtureTask(0.5)
    view = _sorted_view(sample(task, n, seed))
    return tuple(population_risk(task, _fit_view(view, B)) for B in Bs)


def _label_shift_draw(cfg: ExperimentConfig, k: int) -> tuple[tuple[RiskReport, ...], int]:
    """Seed k of the label-shift study: the target risks of ``cfg.methods``
    in that order and the number of replaced draws. Try r draws the source
    under (n_P, n_Q, k, 0, r) and the target under (n_P, n_Q, k, 1, r), r <= 100."""
    task_P, task_Q = GaussianMixtureTask(cfg.pi_source), GaussianMixtureTask(cfg.pi_target)
    for retry in range(101):
        d_P = sample(task_P, cfg.n_P, cell_seed(cfg.base_seed, cfg.n_P, cfg.n_Q, k, 0, retry))
        d_Q = sample(task_Q, cfg.n_Q, cell_seed(cfg.base_seed, cfg.n_P, cfg.n_Q, k, 1, retry))
        try:
            weights = estimate_weights(d_P.y, d_Q.y)
            break
        except ClassAbsentError:
            if retry == 100:
                raise
            del d_P, d_Q  # so that the next try's draws do not coexist with them
    corrector = ShiftCorrector(weights)
    h_P = fit_recalibrator(d_P, bins_cube_root(cfg.n_P))
    built = {
        "Composite": compose(corrector, h_P),
        "Source": h_P,
        "LabelShift": corrector,
        "Target": fit_recalibrator(d_Q, bins_cube_root(cfg.n_Q)),
    }
    return tuple(population_risk(task_Q, built[m]) for m in cfg.methods), retry


def run_risk_grid(cfg: ExperimentConfig) -> tuple[GridCell, ...]:
    """Fit and evaluate uniform-mass recalibrators over the (n, B) grid.

    Sampling task is the balanced prior. Cells with fewer than two points
    per bin are emitted as skip markers rather than dropped. Bounds use
    the assumption-light 2/B sharpness term.
    """
    cells = []
    for n in cfg.n_grid:
        for B in cfg.B_grid:
            if n // B < 2:
                cells.append(GridCell(n, B, None, ()))
                continue
            bound = risk_bound_report(BoundParams(n=n, B=B, delta=cfg.delta))
            reports = tuple(_fit_risks(n, (B,), cell_seed(cfg.base_seed, n, B, k))[0]
                            for k in range(cfg.seeds))
            cells.append(GridCell(n, B, bound, reports))
    return tuple(cells)


def run_label_shift(cfg: ExperimentConfig) -> LabelShiftResult:
    """Compare recalibration strategies under a prior shift.

    Per seed (the unit ``_label_shift_draw``): draw n_P source points and
    n_Q target points, estimate plug-in weights, then evaluate the
    requested methods under the target task. Composite applies the
    estimated shift corrector after the source fit; Source uses the source
    fit alone; LabelShift applies only the corrector; Target fits directly
    on the target draw. Bin counts are ceil(n^(1/3)) for the fit sample. A
    draw in which either class is absent from either label sample is
    replaced using a fresh substream and counted.
    """
    per_seed, retries = zip(*(_label_shift_draw(cfg, k) for k in range(cfg.seeds)))
    rows = tuple(TableRow(m, reports) for m, reports in zip(cfg.methods, zip(*per_seed)))
    return LabelShiftResult(rows=rows, replacements=sum(retries),
                            B_P=bins_cube_root(cfg.n_P), B_Q=bins_cube_root(cfg.n_Q))


def run_optimal_B(cfg: ExperimentConfig) -> OptimalBResult:
    """Locate the risk-minimizing bin count per n and compare with theory.

    The empirical minimizer is the argmin over B_grid of the mean total
    population risk of fits at that B, added in seed order from 0.0 (not by
    ``sum``, which compensates from Python 3.12). Each (n, seed) pair is one
    unit whose draw serves every feasible B, so the argmin is not blurred
    by sampling noise between B values (the substream is keyed by (n, seed)
    only). The theoretical minimizer feeds the estimated smoothness
    constant of the balanced task into the bound objective scan.
    """
    k_hat = estimate_K(GaussianMixtureTask(0.5), 100_000)
    rows = []
    for n in cfg.n_grid:
        feasible = tuple(B for B in cfg.B_grid if n // B >= 2)
        if not feasible:
            raise ValueError(f"no feasible bin count for n={n} in B_grid")
        per_seed = [_fit_risks(n, feasible, cell_seed(cfg.base_seed, n, k)) for k in range(cfg.seeds)]
        curve = tuple((B, functools.reduce(operator.add, (r.r_total for r in reports), 0.0) / cfg.seeds)
                      for B, reports in zip(feasible, zip(*per_seed)))
        B_exp = min(curve, key=lambda pair: pair[1])[0]
        B_theory, zeta_min = optimal_bins(n, cfg.delta, k_hat)
        rows.append(OptBRow(n, B_exp, B_theory, zeta_min, curve))
    return OptimalBResult(tuple(rows), k_hat)


def write_risk_grid_csv(cells: tuple[GridCell, ...], path: str) -> None:
    """One row per (cell, seed). Skipped cells emit a marker row with
    seed -1 and empty numeric fields."""
    rows = []
    for cell in cells:
        bound = cell.bound
        if bound is None:
            rows.append((cell.n, cell.B, -1, *[None] * 7, 0))
            continue
        rows.extend((cell.n, cell.B, k, rep.r_cal, rep.r_sha, rep.r_total, rep.mse,
                     bound.cal_bound, bound.sha_bound, bound.risk_bound, bound.conditions_met)
                    for k, rep in enumerate(cell.reports))
    write_csv(path, ("n", "B", "seed", "r_cal", "r_sha", "r", "mse",
                     "cal_bound", "sha_bound", "risk_bound", "gates_ok"), rows)


def write_label_shift_csv(result: LabelShiftResult, path: str) -> None:
    write_csv(path, ("method", "seed", "r_cal", "r_sha", "r", "mse"),
              [(row.method, k, rep.r_cal, rep.r_sha, rep.r_total, rep.mse)
               for row in result.rows for k, rep in enumerate(row.reports)])


def write_opt_b_csv(result: OptimalBResult, path: str) -> None:
    write_csv(path, ("n", "B_star_exp", "B_star_theory", "zeta_min"),
              [(row.n, row.B_star_exp, row.B_star_theory, row.zeta_min) for row in result.rows])


def write_manifest(cfg: ExperimentConfig, extra: dict, path: str) -> None:
    """JSON run manifest: config, seed rule, library version, run details."""
    write_json(path, {"config": asdict(cfg), "library_version": __version__,
                      "seed_rule": SEED_RULE, **extra})

"""Experiment harness: grids, label-shift table, bin-count scan, outputs."""

import json
import math
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest

import recalib
from recalib import experiments, fit_recalibrator, umb_fit
from recalib.bounds import (
    BoundParams,
    epsilon_delta,
    optimal_bins,
    risk_bound_report,
    shift_risk_bound_apriori,
)
from recalib.experiments import (
    DESK_B_CAP,
    DESK_N_CAP,
    DESK_SEEDS_CAP,
    SEED_RULE,
    VALID_METHODS,
    ExperimentConfig,
    bins_cube_root,
    config_from_dict,
    default_opt_b_config,
    loglog_slope,
    mean_risk,
    run_label_shift,
    run_optimal_B,
    run_risk_grid,
    studies,
    write_manifest,
    write_risk_grid_csv,
)
from recalib.fileio import write_csv, write_json
from recalib.oracle import GaussianMixtureTask, RiskReport, estimate_K, population_risk, sample

from frozen import SHA_NOISE_FREE
from oracles import label_shift_csv_ref, opt_b_csv_ref, risk_grid_csv_ref

# Frozen slope regressions for the default base seed. The sharpness grid
# B in [6, 96] is pre-asymptotic: even with noise-free edges the slope
# there is -1.3472, because B^2 r_sha still climbs from 0.147 at B = 6
# towards its plateau near 0.94. The B^-2 band is checked on the grid of
# SHA_NOISE_FREE instead, see test_sha_rate_example_band.
CAL_SLOPE_FROZEN = -1.1082649633295982
SHA_SLOPE_FROZEN = -1.3512735806684029


def study_table(study: str, result) -> tuple:
    """The one table, (file name, header, rows), of ``study``'s report."""
    (table,), *_ = studies()[study][2](result, "out")
    return table


@pytest.fixture(scope="module")
def cal_grid():
    cfg = ExperimentConfig(n_grid=(1_000, 10_000, 100_000), B_grid=(10,), seeds=10)
    return run_risk_grid(cfg)


@pytest.fixture(scope="module")
def sha_grid():
    cfg = ExperimentConfig(n_grid=(100_000,), B_grid=(6, 12, 24, 48, 96), seeds=10)
    return run_risk_grid(cfg)


@pytest.fixture(scope="module")
def sha_b2_grid():
    cfg = ExperimentConfig(n_grid=(100_000,), B_grid=tuple(SHA_NOISE_FREE), seeds=10)
    return run_risk_grid(cfg)


# ------------------------------------------------------------- config type

def test_desk_scale_caps_name_the_escape_hatch():
    with pytest.raises(ValueError, match="full_scale"):
        ExperimentConfig(B_grid=(6, 512))
    with pytest.raises(ValueError, match="full_scale"):
        ExperimentConfig(n_grid=(100, 10_000_000))
    with pytest.raises(ValueError, match="seeds must be at most 1000 .*full_scale"):
        ExperimentConfig(seeds=DESK_SEEDS_CAP + 1)
    with pytest.raises(ValueError, match="seeds must be at most 1000 .*full_scale"):
        ExperimentConfig(seeds=10**30)
    assert ExperimentConfig(seeds=DESK_SEEDS_CAP).seeds == 1_000
    big = ExperimentConfig(n_grid=(100, 10_000_000), B_grid=(6, 512), seeds=10**30,
                           full_scale=True)
    assert big.full_scale and big.seeds == 10**30
    assert DESK_N_CAP == 1_000_000 and DESK_B_CAP == 256 and DESK_SEEDS_CAP == 1_000


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_grid=(1_000, 100))
    with pytest.raises(ValueError, match="n_grid entries must be at least 1"):
        ExperimentConfig(n_grid=(0, 10))
    with pytest.raises(ValueError):
        ExperimentConfig(B_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(delta=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=0)
    with pytest.raises(ValueError, match="base_seed must be at least 0"):
        ExperimentConfig(base_seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(pi_target=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("Composite", "Oracle"))
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("Composite", "Composite"))
    with pytest.raises(ValueError):
        ExperimentConfig(n_P=0)


def test_config_from_dict():
    cfg = config_from_dict({"n_grid": [100, 200], "seeds": 3})
    assert cfg.n_grid == (100, 200)
    assert cfg.seeds == 3
    assert config_from_dict({}) == ExperimentConfig()
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_dict({"n_gird": [100]})


_SIZE_TASK = GaussianMixtureTask(0.5)
_SIZE_DATA = sample(_SIZE_TASK, 20, 0)
_SHIFT = dict(delta=0.1, p_min=0.1, q_min=0.1, w_min=0.2, w_max=1.8)


def _config_json(**fields):
    return json.dumps(asdict(ExperimentConfig(**fields)))


# Each entry point that takes a size or a count, called with that one
# argument passed through k: k(3) stands for the integer 3.
SIZE_ENTRY_POINTS = {
    "fit_recalibrator.B": lambda k: fit_recalibrator(_SIZE_DATA, k(3)),
    "umb_fit.B": lambda k: umb_fit(_SIZE_DATA.z, k(3)),
    "sample.n": lambda k: sample(_SIZE_TASK, k(10), 5).z.tolist(),
    "estimate_K.grid_size": lambda k: estimate_K(_SIZE_TASK, k(1_000)),
    "optimal_bins.n": lambda k: optimal_bins(k(1_000), 0.1, 1.0),
    "epsilon_delta.n": lambda k: epsilon_delta(k(1_000), 10, 0.1),
    "epsilon_delta.B": lambda k: epsilon_delta(1_000, k(10), 0.1),
    "BoundParams.n": lambda k: BoundParams(n=k(1_000), B=10, delta=0.1),
    "BoundParams.B": lambda k: BoundParams(n=1_000, B=k(10), delta=0.1),
    "shift_risk_bound_apriori.n_P": lambda k: shift_risk_bound_apriori(k(1_000), 100, 10, **_SHIFT),
    "shift_risk_bound_apriori.n_Q": lambda k: shift_risk_bound_apriori(1_000, k(100), 10, **_SHIFT),
    "shift_risk_bound_apriori.B": lambda k: shift_risk_bound_apriori(1_000, 100, k(10), **_SHIFT),
    "ExperimentConfig.n_grid": lambda k: _config_json(n_grid=(100, k(2_500))),
    "ExperimentConfig.B_grid": lambda k: _config_json(B_grid=(6, k(12))),
    "ExperimentConfig.seeds": lambda k: _config_json(seeds=k(2)),
    "ExperimentConfig.base_seed": lambda k: _config_json(base_seed=k(7)),
    "ExperimentConfig.n_P": lambda k: _config_json(n_P=k(500)),
    "ExperimentConfig.n_Q": lambda k: _config_json(n_Q=k(50)),
    "bins_cube_root.n": lambda k: bins_cube_root(k(28)),
}


@pytest.mark.parametrize("name", sorted(SIZE_ENTRY_POINTS))
def test_sizes_and_counts_must_be_integers(name):
    # A float is refused rather than truncated, a whole one such as 10.0
    # too, a bool rather than read as 0 or 1, and a numpy integer gives
    # what the Python integer gives (a config with it still writes JSON).
    call = SIZE_ENTRY_POINTS[name]
    for k in (lambda v: v + 0.5, float, bool):
        with pytest.raises(TypeError):
            call(k)
    assert call(np.int64) == call(int)


# ---------------------------------------------------------------- helpers

def test_bins_cube_root():
    for n in range(1, 201):
        expected = next(b for b in range(1, 8) if b**3 >= n)
        assert bins_cube_root(n) == expected
    assert bins_cube_root(27) == 3
    assert bins_cube_root(28) == 4
    assert bins_cube_root(1_000) == 10
    # Exact far past float precision, where n ** (1/3) is off by many units.
    assert bins_cube_root(10**300) == 10**100
    assert bins_cube_root(10**300 + 1) == 10**100 + 1
    assert bins_cube_root(10**300 - 1) == 10**100
    with pytest.raises(ValueError):
        bins_cube_root(0)


def test_loglog_slope_recovers_exact_power_law():
    x = np.array([10.0, 100.0, 1_000.0, 10_000.0])
    slope, se = loglog_slope(x, 3.7 * x**-1.75)
    assert slope == pytest.approx(-1.75, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-10)
    slope2, se2 = loglog_slope([10.0, 100.0], [1.0, 0.1])
    assert slope2 == pytest.approx(-1.0, abs=1e-12)
    assert math.isnan(se2)
    with pytest.raises(ValueError):
        loglog_slope([10.0], [1.0])
    with pytest.raises(ValueError):
        loglog_slope([10.0, 100.0], [1.0])


def test_mean_risk():
    reports = (
        RiskReport(0.1, 0.2, 0.3, 0.35, "quadrature", 1e-12),
        RiskReport(0.3, 0.2, 0.5, 0.55, "quadrature", 1e-12),
    )
    assert mean_risk(reports, "r_cal") == pytest.approx(0.2, rel=1e-15)


def test_cell_seed_is_grid_shape_invariant():
    a = run_risk_grid(ExperimentConfig(n_grid=(100, 1_000), B_grid=(6,), seeds=2))
    b = run_risk_grid(ExperimentConfig(n_grid=(1_000,), B_grid=(6, 60), seeds=2))
    cell_a = next(c for c in a if (c.n, c.B) == (1_000, 6))
    cell_b = next(c for c in b if (c.n, c.B) == (1_000, 6))
    assert cell_a == cell_b
    # The cell's stream is keyed by (base_seed, n, B, k) alone: numpy ints
    # key it as Python ints do.
    task = GaussianMixtureTask(0.5)
    draw = sample(task, 1_000, (0, 1_000, 6, 0))
    for seed in ((np.int64(0), np.int64(1_000), 6, 0), [0, 1_000, 6, 0],
                 np.random.SeedSequence((0, 1_000, 6, 0))):
        other = sample(task, 1_000, seed)
        assert np.array_equal(other.z, draw.z) and np.array_equal(other.y, draw.y)
    assert cell_a.reports == tuple(
        population_risk(task, fit_recalibrator(sample(task, 1_000, (0, 1_000, 6, k)), 6))
        for k in range(2))


def test_study_units_follow_the_seed_rule(monkeypatch):
    # Each study result equals its units rebuilt by hand from the seed
    # rule, compared with ==, so running the units in any order or place
    # must keep these keys. Every unit draws sample(task, n, (base_seed,
    # *fields)) itself, in the order listed.
    task = GaussianMixtureTask(0.5)
    draws = []
    monkeypatch.setattr(experiments, "sample",
                        lambda t, n, seed: draws.append((t.pi, n, seed)) or sample(t, n, seed))

    def risk(n, B, seed):
        return population_risk(task, fit_recalibrator(sample(task, n, seed), B))

    # Risk grid: seed k of cell (n, B) is one draw keyed by (n, B, k).
    for cell in run_risk_grid(ExperimentConfig(n_grid=(1_000,), B_grid=(6, 12), seeds=2,
                                               base_seed=5)):
        assert cell.reports == tuple(risk(1_000, cell.B, (5, 1_000, cell.B, k))
                                     for k in range(2))
    assert draws == [(0.5, 1_000, (5, 1_000, B, k)) for B in (6, 12) for k in range(2)]
    draws.clear()
    # Opt-b: draw (n, k) serves every B, and the seeds add in order from 0.
    # At (100, 1) the sum depends on that order.
    row, = run_optimal_B(ExperimentConfig(n_grid=(100,), B_grid=(1, 6), seeds=3,
                                          base_seed=5)).rows
    for B, mean in row.risk_curve:
        r0, r1, r2 = (risk(100, B, (5, 100, k)).r_total for k in range(3))
        assert mean == (((0.0 + r0) + r1) + r2) / 3
        if B == 1:
            assert (r2 + r1) + r0 != ((0.0 + r0) + r1) + r2
    assert draws == [(0.5, 100, (5, 100, k)) for k in range(3)]
    draws.clear()
    # Label shift: try r of seed k draws (n_P, n_Q, k, 0, r) and
    # (n_P, n_Q, k, 1, r) until both hold both classes.
    cfg = ExperimentConfig(n_grid=(100,), B_grid=(6,), seeds=2,
                           n_P=100, n_Q=10, pi_target=0.01)
    P, Q = GaussianMixtureTask(0.5), GaussianMixtureTask(0.01)
    expected, tries, keys = [], 0, []
    for k in range(2):
        for r in range(101):
            keys += [(0.5, 100, (0, 100, 10, k, 0, r)), (0.01, 10, (0, 100, 10, k, 1, r))]
            d_P = sample(P, 100, keys[-2][2])
            d_Q = sample(Q, 10, keys[-1][2])
            if 0 < d_P.y.sum() < 100 and 0 < d_Q.y.sum() < 10:
                break
        tries += r
        h = recalib.Composite(
            outer=recalib.ShiftCorrector(recalib.estimate_weights(d_P.y, d_Q.y)),
            inner=fit_recalibrator(d_P, 5))
        expected.append(population_risk(Q, h))
    result = run_label_shift(cfg)
    assert result.rows[0].method == "Composite"
    assert result.rows[0].reports == tuple(expected)
    assert result.replacements == tries == 14
    assert draws == keys


def test_risk_grid_and_opt_b_draw_from_pi_source():
    # Both figures' studies draw from the task at the source prior, and
    # opt-b's smoothness constant is that task's.
    task = GaussianMixtureTask(0.1)
    cfg = ExperimentConfig(n_grid=(100, 1_000), B_grid=(6, 12), seeds=2, base_seed=3,
                           pi_source=0.1)

    def risk(n, B, seed):
        return population_risk(task, fit_recalibrator(sample(task, n, seed), B))

    for cell in run_risk_grid(cfg):
        assert cell.reports == tuple(risk(cell.n, cell.B, (3, cell.n, cell.B, k))
                                     for k in range(2))
    result = run_optimal_B(cfg)
    assert result.K_hat == estimate_K(task, 100_000) != estimate_K(GaussianMixtureTask(0.5), 100_000)
    for row in result.rows:
        for B, mean in row.risk_curve:
            r0, r1 = (risk(row.n, B, (3, row.n, k)).r_total for k in range(2))
            assert mean == ((0.0 + r0) + r1) / 2


# ---------------------------------------------------------------- risk grid

def test_risk_grid_cells_carry_bounds_and_gates(sha_grid):
    for cell in sha_grid:
        assert cell.bound == risk_bound_report(BoundParams(n=cell.n, B=cell.B, delta=0.1))
        assert cell.bound.risk_bound == cell.bound.cal_bound + cell.bound.sha_bound
        assert cell.bound.sha_bound == 2.0 / cell.B
        assert len(cell.reports) == 10
        for rep in cell.reports:
            assert abs(rep.r_total - (rep.r_cal + rep.r_sha)) <= 1e-8
            assert rep.mse >= rep.r_total


def test_cal_rate_example(cal_grid):
    ns = [cell.n for cell in cal_grid]
    means = [mean_risk(cell.reports, "r_cal") for cell in cal_grid]
    slope, _ = loglog_slope(ns, means)
    assert slope == pytest.approx(CAL_SLOPE_FROZEN, rel=1e-9)
    assert abs(slope - (-0.97)) <= 0.15


def test_sha_rate_regression(sha_grid):
    Bs = [cell.B for cell in sha_grid]
    means = [mean_risk(cell.reports, "r_sha") for cell in sha_grid]
    slope, _ = loglog_slope(Bs, means)
    assert slope == pytest.approx(SHA_SLOPE_FROZEN, rel=1e-9)


def test_sha_rate_example_band(sha_b2_grid):
    # The 8K^2/B^2 bound predicts a B^-2 decay, which only sets in once
    # B is large enough: over B in [6, 96] the noise-free slope is -1.3472.
    # At large B/n the fitted rate flattens again, as neighbouring bins
    # come to share a value and are merged into one level set. So the
    # band is fitted on a grid where both effects are checked small.
    Bs = [cell.B for cell in sha_b2_grid]
    means = [mean_risk(cell.reports, "r_sha") for cell in sha_b2_grid]
    ref = [SHA_NOISE_FREE[B] for B in Bs]
    for i in range(len(Bs) - 1):
        local = math.log(ref[i + 1] / ref[i]) / math.log(Bs[i + 1] / Bs[i])
        assert -2.0 <= local <= -1.9, (Bs[i], Bs[i + 1], local)
    for B, m, r in zip(Bs, means, ref):
        assert abs(m / r - 1.0) <= 0.15, (B, m, r)
    slope, _ = loglog_slope(Bs, means)
    assert abs(slope - (-1.75)) <= 0.25, (
        f"sharpness slope over B in {Bs} at n = 100000 is {slope:.4f}, "
        "outside -1.75 +/- 0.25, although the noise-free curve is in its "
        "B^-2 regime there and the fitted risks track it"
    )


def test_bound_coverage_on_gate_ok_cells(sha_grid):
    checked = 0
    for cell in sha_grid:
        if not cell.bound.conditions_met:
            continue
        checked += 1
        for field, bound in (("r_cal", cell.bound.cal_bound), ("r_sha", cell.bound.sha_bound),
                             ("r_total", cell.bound.risk_bound)):
            hits = sum(getattr(rep, field) <= bound for rep in cell.reports)
            assert hits / len(cell.reports) >= 0.9, (cell.n, cell.B, field)
    assert checked >= 1


def test_total_bound_holds_in_every_cell_and_seed():
    # The paper calls its bounds "valid upper bounds in all cases". For the
    # total bound, check each seed of each live cell, whether or not the
    # sample-size gate is met: it is met in only one of these 22 cells. The
    # bound does not depend on the prior, so it must hold at skewed ones too.
    for pi in (0.5, 0.1, 0.02):
        cells = run_risk_grid(ExperimentConfig(
            n_grid=(100, 1_000, 10_000, 100_000), B_grid=(6, 12, 24, 48, 96, 192), seeds=20,
            pi_source=pi))
        live = [cell for cell in cells if cell.bound is not None]
        assert len(live) == 22
        assert sum(cell.bound.conditions_met for cell in live) == 1
        for cell in live:
            for k, rep in enumerate(cell.reports):
                assert rep.r_total <= cell.bound.risk_bound, (pi, cell.n, cell.B, k)


def test_risk_grid_csv_format(tmp_path):
    cfg = ExperimentConfig(n_grid=(100, 1_000), B_grid=(6, 60), seeds=2)
    cells = run_risk_grid(cfg)
    out = tmp_path / "risk_grid.csv"
    write_risk_grid_csv(cells, str(out))
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "n,B,seed,r_cal,r_sha,r,mse,cal_bound,sha_bound,risk_bound,gates_ok"
    assert len(lines) == 8
    assert "100,60,-1,,,,,,,,0" in lines
    assert [(c.n, c.B, c.reports) for c in cells if c.bound is None] == [(100, 60, ())]
    seeds_seen = [line.split(",")[2] for line in lines[1:] if not line.startswith("100,60")]
    assert seeds_seen == ["0", "1"] * 3

    out2 = tmp_path / "risk_grid_again.csv"
    write_risk_grid_csv(run_risk_grid(cfg), str(out2))
    assert out2.read_bytes() == out.read_bytes()


def test_manifest_round_trips_config(tmp_path):
    cfg = ExperimentConfig(n_grid=(100,), B_grid=(6,), seeds=2)
    path = tmp_path / "manifest.json"
    write_manifest(cfg, {"experiment": "risk-grid", "cells": 1}, str(path))
    payload = json.loads(path.read_text())
    assert config_from_dict(payload["config"]) == cfg
    assert payload["seed_rule"] == SEED_RULE
    assert payload["library_version"] == recalib.__version__
    assert payload["experiment"] == "risk-grid"

    again = tmp_path / "manifest2.json"
    write_manifest(cfg, {"experiment": "risk-grid", "cells": 1}, str(again))
    assert again.read_bytes() == path.read_bytes()


# --------------------------------------------------------------- label shift

def test_label_shift_small_run():
    cfg = ExperimentConfig(seeds=3)
    result = run_label_shift(cfg)
    assert [row.method for row in result.rows] == list(VALID_METHODS)
    assert result.B_P == 10 and result.B_Q == 5
    assert result.replacements == 0
    for row in result.rows:
        assert len(row.reports) == 3
        for rep in row.reports:
            assert abs(rep.r_total - (rep.r_cal + rep.r_sha)) <= 1e-8
    shift_only = next(row for row in result.rows if row.method == "LabelShift")
    assert all(rep.r_sha == 0.0 for rep in shift_only.reports)


def test_label_shift_method_subset_keeps_order():
    cfg = ExperimentConfig(seeds=1, methods=("LabelShift", "Composite"))
    result = run_label_shift(cfg)
    assert [row.method for row in result.rows] == ["LabelShift", "Composite"]


def test_label_shift_replaces_class_absent_draws():
    # pi_target = 0.01 with n_Q = 10 leaves the positive class out of most
    # target draws; the runner must resample, count, and still finish.
    cfg = ExperimentConfig(n_grid=(100,), B_grid=(6,), seeds=2,
                           n_P=100, n_Q=10, pi_target=0.01)
    result = run_label_shift(cfg)
    assert result.replacements == 14
    assert result.B_P == 5 and result.B_Q == 3
    assert all(len(row.reports) == 2 for row in result.rows)


def test_label_shift_csv_format(tmp_path):
    name, header, rows = study_table("label-shift", run_label_shift(ExperimentConfig(seeds=2)))
    assert name == "label_shift.csv"
    out = tmp_path / name
    write_csv(str(out), header, rows)
    lines = out.read_text().splitlines()
    assert lines[0] == "method,seed,r_cal,r_sha,r,mse"
    assert len(lines) == 1 + 4 * 2
    assert lines[1].startswith("Composite,0,")


# ------------------------------------------------------------ optimal bins

def test_optimal_B_small_run():
    cfg = ExperimentConfig(n_grid=(1_000, 10_000), B_grid=(6, 10, 16, 26, 40), seeds=2)
    result = run_optimal_B(cfg)
    assert result.K_hat == estimate_K(GaussianMixtureTask(0.5), 100_000)
    assert len(result.rows) == 2
    for row, n in zip(result.rows, cfg.n_grid):
        assert row.n == n
        assert [B for B, _ in row.risk_curve] == list(cfg.B_grid)
        exp_theory, exp_zeta = optimal_bins(n, cfg.delta, result.K_hat)
        assert row.B_star_theory == exp_theory
        assert row.zeta_min == exp_zeta
        assert row.B_star_exp in cfg.B_grid
        curve = dict(row.risk_curve)
        assert curve[row.B_star_exp] == min(curve.values())
    assert run_optimal_B(cfg) == result


def test_optimal_B_rejects_infeasible_grid():
    cfg = ExperimentConfig(n_grid=(10,), B_grid=(6,), seeds=1)
    with pytest.raises(ValueError, match="no feasible bin count"):
        run_optimal_B(cfg)


def test_optimal_B_flat_minimum():
    # The risk surface near the empirical minimizer stays within 25% of
    # the minimum at the adjacent grid points.
    cfg = config_from_dict(
        {"n_grid": [1_000, 10_000, 100_000], "seeds": 40}, default_opt_b_config()
    )
    result = run_optimal_B(cfg)
    assert tuple(row.B_star_exp for row in result.rows) == (48, 96, 228)
    for row in result.rows:
        curve = list(row.risk_curve)
        idx = next(i for i, (B, _) in enumerate(curve) if B == row.B_star_exp)
        best = curve[idx][1]
        for j in (idx - 1, idx + 1):
            if 0 <= j < len(curve):
                assert (curve[j][1] - best) / best < 0.25, (row.n, curve[j][0])


def test_opt_b_csv_format(tmp_path):
    cfg = ExperimentConfig(n_grid=(1_000,), B_grid=(6, 10, 16), seeds=1)
    name, header, rows = study_table("opt-b", run_optimal_B(cfg))
    assert name == "opt_b.csv"
    out = tmp_path / name
    write_csv(str(out), header, rows)
    lines = out.read_text().splitlines()
    assert lines[0] == "n,B_star_exp,B_star_theory,zeta_min"
    assert len(lines) == 2
    n, b_exp, b_theory, zeta_min = lines[1].split(",")
    assert n == "1000"
    assert b_exp in {"6", "10", "16"}
    assert int(b_theory) >= 2
    assert float(zeta_min) > 0.0


def test_study_csvs_keep_the_reference_bytes(tmp_path):
    # Each study CSV is its report's table written by fileio.write_csv, and
    # keeps the bytes of its earlier line-building loop: a risk grid with a
    # skip marker row, a label-shift run with replaced draws and a subset
    # of the methods, and a bin-count study. write_risk_grid_csv, which the
    # benchmark checks the CLI's risk_grid.csv against, keeps them too.
    grid = run_risk_grid(ExperimentConfig(n_grid=(100, 1_000), B_grid=(6, 60), seeds=2))
    assert any(cell.bound is None for cell in grid)
    shift = run_label_shift(ExperimentConfig(seeds=2, n_P=100, n_Q=10, pi_target=0.01,
                                             methods=("LabelShift", "Composite")))
    assert shift.replacements == 14
    opt_b = run_optimal_B(ExperimentConfig(n_grid=(1_000, 10_000), B_grid=(6, 10, 16), seeds=2))
    for study, ref, result in (("risk-grid", risk_grid_csv_ref, grid),
                               ("label-shift", label_shift_csv_ref, shift),
                               ("opt-b", opt_b_csv_ref, opt_b)):
        name, header, rows = study_table(study, result)
        out = tmp_path / name
        write_csv(str(out), header, rows)
        assert out.read_bytes() == ref(result).encode(), study
    out = tmp_path / "write_risk_grid_csv.csv"
    write_risk_grid_csv(grid, str(out))
    assert out.read_bytes() == risk_grid_csv_ref(grid).encode()


def test_write_csv_fields_and_write_json_format(tmp_path):
    # None is empty, a str is as is, an integer (numpy's too, and a bool)
    # is decimal, and any other number is its shortest round-trip form.
    out = tmp_path / "fields.csv"
    write_csv(str(out), ("a", "b", "c", "d", "e", "f"),
              [(None, "x", True, np.int64(6), np.float64(0.1), 1e-300),
               (False, "", 0, np.int8(-3), 2.0, -0.0)])
    assert out.read_bytes() == b"a,b,c,d,e,f\n,x,1,6,0.1,1e-300\n0,,0,-3,2.0,-0.0\n"
    write_csv(str(out), ("a",), [])
    assert out.read_bytes() == b"a\n"
    payload = {"b": [1, 2.5, None], "a": {"z": True, "y": "caf\u00e9"}}
    path = tmp_path / "payload.json"
    write_json(str(path), payload)
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("run, cfg, paired", [
    (run_risk_grid, ExperimentConfig(n_grid=(1_000,), B_grid=(6, 12), seeds=3), False),
    (run_optimal_B, ExperimentConfig(n_grid=(1_000, 2_000), B_grid=(6, 12), seeds=3), False),
    (run_label_shift, ExperimentConfig(seeds=3), True),
    # 14 replaced draws: a failed try's pair is gone before the next try.
    (run_label_shift, ExperimentConfig(seeds=2, n_P=100, n_Q=10, pi_target=0.01), True),
])
def test_study_loops_release_each_draw_before_the_next(monkeypatch, run, cfg, paired):
    # When a study draws, no earlier draw is alive, apart from the source
    # draw when the label-shift study draws its target.
    drawn = []

    def watched(task, n, seed):
        alive = [ref for ref in drawn if ref() is not None]
        assert len(alive) <= (len(drawn) % 2 if paired else 0), len(drawn)
        data = sample(task, n, seed)
        drawn.append(weakref.ref(data))
        return data

    monkeypatch.setattr(experiments, "sample", watched)
    run(cfg)
    assert len(drawn) >= 6


@pytest.mark.parametrize("run", [run_risk_grid, run_optimal_B])
def test_study_loop_peak_memory_is_one_draw(monkeypatch, run):
    # The traced peak of three draws at n = 2e5 stays near that of one draw
    # with its sorted view (core._sorted_view) and fit: with the previous draw still alive
    # during the next, it is about 1.2 times as large. K-hat is computed
    # once before the loop, on a grid of its own, so it is taken as given.
    n, task = 200_000, GaussianMixtureTask(0.5)
    k_hat = estimate_K(task, 100_000)
    monkeypatch.setattr(experiments, "estimate_K", lambda task: k_hat)
    run(ExperimentConfig(n_grid=(1_000,), B_grid=(6,), seeds=1))  # fills the H cache
    tracemalloc.start()
    try:
        population_risk(task, fit_recalibrator(sample(task, n, 0), 6))
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run(ExperimentConfig(n_grid=(n,), B_grid=(6,), seeds=3))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * one, (peak, one)

"""Acceptance gate: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion. Criterion 4 measures the sharpness rate on B in
{48, 64, 96, 128, 192} at n = 1e5: below that range the noise-free risk
has not yet reached its B^-2 regime (over [6, 96] its slope is -1.3472),
and far above it, at this n, fitted bins that share a value merge into
one level set and flatten the curve. The test checks both conditions
against frozen noise-free values from tests/oracles.py before the band.
"""

import math

import numpy as np
import pytest

from oracles import sort_slice_fit
from recalib.core import (
    BinningScheme,
    LabeledSample,
    PiecewiseRecalibrator,
    ShiftCorrector,
    apply,
    apply_batch,
    compose,
    fit_recalibrator,
)
from recalib.experiments import (
    ExperimentConfig,
    loglog_slope,
    mean_risk,
    run_label_shift,
    run_optimal_B,
    run_risk_grid,
    write_risk_grid_csv,
)
from recalib.oracle import (
    GaussianMixtureTask,
    MonotoneRecalibrator,
    exact_shift_weights,
    hstar,
    population_risk,
    sample,
)

TASK05 = GaussianMixtureTask(0.5)

# Sharpness risk of B bins cut at the exact score quantiles (pi = 0.5),
# from tests/oracles.py.
SHA_NOISE_FREE = {
    48: 0.00039819842288256108,
    64: 0.00022681466034127205,
    96: 0.00010140316235811298,
    128: 5.7148242238898351e-5,
    192: 2.5434018224960403e-5,
}


def random_piecewise(rng: np.random.Generator) -> PiecewiseRecalibrator:
    B = int(rng.integers(2, 7))
    while True:
        interior = np.sort(rng.uniform(0.02, 0.98, B - 1))
        if np.diff(np.concatenate(([0.0], interior, [1.0]))).min() > 1e-3:
            break
    values = tuple(float(v) for v in rng.uniform(0.0, 1.0, B))
    return PiecewiseRecalibrator(
        BinningScheme((0.0, *(float(u) for u in interior), 1.0)), values, (1,) * B
    )


def test_criterion_1_decomposition_identity():
    # |R - (R^cal + R^sha)| <= 1e-8 for 100 random piecewise maps.
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(100):
        rep = population_risk(TASK05, random_piecewise(rng))
        assert abs(rep.r_total - (rep.r_cal + rep.r_sha)) <= 1e-8


def test_criterion_2_optimality_fixed_points():
    # The optimal map carries zero risk; its shift-corrected transport
    # carries zero risk on the shifted task.
    best = population_risk(TASK05, MonotoneRecalibrator(lambda z: hstar(TASK05, z)))
    assert best.r_total <= 1e-10
    for pi_q in (0.1, 0.3):
        task_q = GaussianMixtureTask(pi_q)
        corr = ShiftCorrector(exact_shift_weights(0.5, pi_q))
        transported = MonotoneRecalibrator(lambda z, c=corr: apply(c, hstar(TASK05, z)))
        assert population_risk(task_q, transported).r_total <= 1e-10


def test_criterion_3_label_shift_table():
    # Mean risks across 10 seeds against the reference table, each within
    # 3 reference standard deviations.
    result = run_label_shift(ExperimentConfig())
    rows = {row.method: row for row in result.rows}

    comp = rows["Composite"].reports
    assert abs(mean_risk(comp, "r_cal") - 0.00019) <= 3 * 0.00017
    assert abs(mean_risk(comp, "r_sha") - 0.0032) <= 3 * 0.0014
    assert abs(mean_risk(comp, "r_total") - 0.0034) <= 3 * 0.0013
    assert abs(mean_risk(comp, "mse") - 0.0127) <= 3 * 0.0013

    assert abs(mean_risk(rows["Source"].reports, "r_cal") - 0.016) <= 3 * 0.005
    assert abs(mean_risk(rows["Target"].reports, "r_sha") - 0.049) <= 3 * 0.006
    assert all(rep.r_sha == 0.0 for rep in rows["LabelShift"].reports)

    comp_mean = mean_risk(comp, "r_total")
    for other in ("Source", "LabelShift", "Target"):
        assert comp_mean < mean_risk(rows[other].reports, "r_total"), other


def test_criterion_4_empirical_rates():
    # Calibration risk decay in n, then sharpness risk decay in B.
    cal_cells = run_risk_grid(
        ExperimentConfig(n_grid=(1_000, 10_000, 100_000), B_grid=(10,), seeds=10)
    )
    cal_slope, _ = loglog_slope(
        [c.n for c in cal_cells], [mean_risk(c.reports, "r_cal") for c in cal_cells]
    )
    assert abs(cal_slope - (-0.97)) <= 0.15, f"calibration-rate slope {cal_slope:.4f}"

    # The rate is fitted where the noise-free curve is already in its
    # B^-2 regime and the fitted risks still track it.
    sha_cells = run_risk_grid(
        ExperimentConfig(n_grid=(100_000,), B_grid=tuple(SHA_NOISE_FREE), seeds=10)
    )
    Bs = [c.B for c in sha_cells]
    means = [mean_risk(c.reports, "r_sha") for c in sha_cells]
    ref = [SHA_NOISE_FREE[B] for B in Bs]
    for i in range(len(Bs) - 1):
        local = math.log(ref[i + 1] / ref[i]) / math.log(Bs[i + 1] / Bs[i])
        assert -2.0 <= local <= -1.9, (Bs[i], Bs[i + 1], local)
    for B, m, r in zip(Bs, means, ref):
        assert abs(m / r - 1.0) <= 0.15, (B, m, r)
    sha_slope, _ = loglog_slope(Bs, means)
    assert abs(sha_slope - (-1.75)) <= 0.25, (
        f"sharpness-rate slope over B in {Bs} at n = 100000 is {sha_slope:.4f}, "
        "outside -1.75 +/- 0.25. The range starts where the noise-free risk "
        "has reached its B^-2 regime and stops before level-set merging of "
        "fitted bins flattens the curve."
    )


def test_criterion_5_bound_coverage():
    # On every cell whose sample-size gate holds, each risk component
    # stays below its bound in at least 90% of 50 seeds.
    cells = run_risk_grid(
        ExperimentConfig(n_grid=(100_000, 1_000_000), B_grid=(6, 12, 24, 48), seeds=50)
    )
    checked = 0
    for cell in cells:
        if cell.skipped or not cell.gates_ok:
            continue
        checked += 1
        for field, bound in (
            ("r_cal", cell.cal_bound),
            ("r_sha", cell.sha_bound),
            ("r_total", cell.risk_bound),
        ):
            hits = sum(getattr(rep, field) <= bound for rep in cell.reports)
            assert hits >= 45, (cell.n, cell.B, field, hits)
    assert checked == 5


def test_criterion_6_optimal_bin_scaling():
    # Both the theoretical and the empirical bin-count minimizers grow
    # like n^(1/3); the grid reaches past the desk caps so the top-n
    # argmin is not clipped.
    cfg = ExperimentConfig(
        n_grid=(1_000, 10_000, 100_000, 1_000_000),
        B_grid=(6, 7, 8, 10, 12, 14, 17, 20, 24, 29, 34, 40, 48, 57, 68, 81,
                96, 114, 136, 162, 192, 228, 256, 304, 362, 431, 512, 609,
                724, 861, 1024),
        seeds=10,
        full_scale=True,
    )
    result = run_optimal_B(cfg)
    ns = [row.n for row in result.rows]
    theory_slope, _ = loglog_slope(ns, [row.B_star_theory for row in result.rows])
    exp_slope, _ = loglog_slope(ns, [row.B_star_exp for row in result.rows])
    assert abs(theory_slope - 1 / 3) <= 0.05, f"theory slope {theory_slope:.4f}"
    assert abs(exp_slope - 1 / 3) <= 0.1, f"experiment slope {exp_slope:.4f}"


def test_criterion_7_oracle_equivalences():
    # Fitting equals the sort-and-slice brute force exactly; quadrature
    # MSE matches a 10^7-draw Monte Carlo within 3 standard errors.
    rng = np.random.Generator(np.random.PCG64(2027))
    for _ in range(200):
        n = int(rng.integers(2, 51))
        B = int(rng.integers(1, n + 1))
        z = rng.uniform(0.0, 1.0, n)
        while np.unique(z).size < n:
            z = rng.uniform(0.0, 1.0, n)
        y = (rng.random(n) < 0.5).astype(float)
        fitted = fit_recalibrator(LabeledSample(z, y), B)
        edges, values, counts = sort_slice_fit(z, y, B)
        assert fitted.scheme.edges == edges
        assert fitted.values == values
        assert fitted.counts == counts

    fitted = fit_recalibrator(sample(TASK05, 10_000, seed=101), 10)
    corr = ShiftCorrector(exact_shift_weights(0.5, 0.1))
    identity = MonotoneRecalibrator(lambda z: z)
    recalibrators = (
        fitted,
        compose(corr, fitted),
        corr,
        PiecewiseRecalibrator(BinningScheme((0.0, 1.0)), (0.5,), (1,)),
        identity,
    )
    draw = sample(TASK05, 10_000_000, seed=2027)
    for h in recalibrators:
        hz = draw.z if h is identity else apply_batch(h, draw.z)
        sq = (hz - draw.y) ** 2
        se = sq.std(ddof=1) / math.sqrt(draw.n)
        mse_quad = population_risk(TASK05, h).mse
        assert abs(mse_quad - sq.mean()) <= 3 * se + 1e-12, type(h).__name__


def test_criterion_8_full_scale_flag(tmp_path):
    # The beyond-desk grid is opt-in: rejected by default, plumbed end to
    # end for a single cell when the flag is set.
    with pytest.raises(ValueError, match="full_scale"):
        ExperimentConfig(n_grid=(10_000,), B_grid=(512,), seeds=2)
    cfg = ExperimentConfig(n_grid=(10_000,), B_grid=(512,), seeds=2, full_scale=True)
    cells = run_risk_grid(cfg)
    assert len(cells) == 1
    assert not cells[0].skipped
    assert len(cells[0].reports) == 2
    out = tmp_path / "full_scale_cell.csv"
    write_risk_grid_csv(cells, str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("10000,512,0,")

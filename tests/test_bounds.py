"""Closed-form bounds, bin-count selection, and the diagnostic measures."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from oracles import optimal_bins_scan_ref
from recalib.bounds import (
    BoundParams,
    DEFAULT_C,
    InsufficientSampleError,
    approx_epsilon,
    balance_alpha,
    chernoff_sample_requirement,
    epsilon_delta,
    optimal_bins,
    ratio_beta,
    risk_bound_report,
    shift_risk_bound_apriori,
    shift_risk_bound_realized,
    zeta,
)
from recalib.core import (BinningScheme, PiecewiseRecalibrator, ShiftWeights, estimate_weights,
                          fit_recalibrator)
from recalib.oracle import GaussianMixtureTask, _bin_moments, exact_shift_weights, sample

# Frozen reference values, 40-digit arithmetic; regenerate with
# `python3 tests/oracles.py`.
CAL_BOUND_1000_10_01 = 0.033838997806812986
GATE_THRESH_10_01 = 128219.28027046249
ZETA_75_1E6 = 0.0038241324925172962
ZETA_76_1E6 = 0.0038230038407442187
ZETA_77_1E6 = 0.0038233669923967789
CHERNOFF_01_2_01 = 1184
CHERNOFF_05_2_01 = 237
SHIFT_APRIORI_EXAMPLE = 4.4059393375386034


# ------------------------------------------------------- calibration bound

def test_cal_bound_frozen_value():
    got = risk_bound_report(BoundParams(n=1000, B=10, delta=0.1)).cal_bound
    assert got == pytest.approx(CAL_BOUND_1000_10_01, rel=1e-13)
    assert got == pytest.approx(0.0338387, abs=1e-6)


def test_cal_bound_boundary_two_points_per_bin():
    got = risk_bound_report(BoundParams(n=14, B=7, delta=0.5)).cal_bound
    expected = (math.sqrt(math.log(4 * 7 / 0.5) / 2.0) + 0.5) ** 2
    assert got == pytest.approx(expected, rel=1e-13)
    assert math.isfinite(got)


def test_cal_bound_insufficient_sample():
    with pytest.raises(InsufficientSampleError):
        risk_bound_report(BoundParams(n=10, B=10, delta=0.1))


def test_cal_bound_monotone_in_n_and_B():
    at_n = [risk_bound_report(BoundParams(n=n, B=10, delta=0.1)).cal_bound
            for n in (100, 300, 1_000, 10_000, 100_000)]
    assert all(a > b for a, b in zip(at_n, at_n[1:]))
    at_B = [risk_bound_report(BoundParams(n=10_000, B=B, delta=0.1)).cal_bound
            for B in range(2, 101)]
    assert all(a <= b for a, b in zip(at_B, at_B[1:]))


def test_epsilon_delta_formula():
    m = 1000 // 10
    expected = math.sqrt(math.log(2 * 10 / 0.1) / (2 * (m - 1))) + 1 / m
    assert epsilon_delta(1000, 10, 0.1) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(InsufficientSampleError):
        epsilon_delta(19, 10, 0.1)


@pytest.mark.parametrize("delta, error", [
    (5.0, ValueError), (1.0, ValueError), (-0.1, ValueError), (math.nan, ValueError),
    (1e-320, OverflowError),  # 2B / delta overflows to inf
    (0.0, ZeroDivisionError),  # what delta / 2 underflows to from 5e-324
])
def test_epsilon_delta_refuses_delta_outside_its_range(delta, error):
    # The first four returned numbers (0.0937 at delta = 5) or nan, and
    # 1e-320 returned inf.
    with pytest.raises(error):
        epsilon_delta(1000, 10, delta)


# --------------------------------------------------------- sharpness bound

def sha_bound(**fields):
    return risk_bound_report(BoundParams(**fields)).sha_bound


def test_sha_bound_values():
    assert sha_bound(n=100, B=10, delta=0.1) == 0.2
    assert sha_bound(n=100, B=10, delta=0.1, K=1.0) == 0.08
    assert sha_bound(n=100, B=1, delta=0.1) == 2.0
    # A given K selects the smooth term 8K^2/B^2; K=None selects 2/B.
    assert sha_bound(n=1000, B=10, delta=0.1, K=5.0) == 2.0
    assert sha_bound(n=1000, B=10, delta=0.1, K=None) == 0.2
    # The report needs two points per bin, whichever sharpness term it uses.
    for K in (None, 1.0):
        with pytest.raises(InsufficientSampleError):
            sha_bound(n=19, B=10, delta=0.1, K=K)


def test_sha_bound_strictly_decreasing_in_B():
    vals = [sha_bound(n=10**6, B=B, delta=0.1) for B in range(1, 200)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    smooth = [sha_bound(n=10**6, B=B, delta=0.1, K=2.0) for B in range(1, 200)]
    assert all(a > b for a, b in zip(smooth, smooth[1:]))


# ------------------------------------------------------ sample-size gate

def test_gate_threshold_frozen():
    gate = f"n >= c B log(2B/delta) = {GATE_THRESH_10_01:.1f}"
    report = risk_bound_report(BoundParams(n=10**6, B=10, delta=0.1))
    assert report.conditions_met
    assert report.condition_detail == f"n = 1000000 meets {gate}"

    report = risk_bound_report(BoundParams(n=100, B=10, delta=0.1))
    assert not report.conditions_met
    assert report.condition_detail == f"n = 100 fails {gate}"


def test_risk_bound_report_is_additive():
    p = BoundParams(n=10**6, B=10, delta=0.1)
    report = risk_bound_report(p)
    assert report.cal_bound == epsilon_delta(p.n, p.B, p.delta / 2) ** 2
    assert report.sha_bound == 2.0 / p.B
    assert report.risk_bound == report.cal_bound + report.sha_bound
    assert report.conditions_met


# ------------------------------------------------------------ optimal_bins

def test_optimal_bins_scan_frozen():
    B_star, zeta_min = optimal_bins(10**6, 0.1, 1.0)
    assert B_star == 76
    assert zeta_min == pytest.approx(ZETA_76_1E6, rel=1e-13)
    assert zeta(75, 10**6, 0.1, 1.0) == pytest.approx(ZETA_75_1E6, rel=1e-13)
    assert zeta(77, 10**6, 0.1, 1.0) == pytest.approx(ZETA_77_1E6, rel=1e-13)


def test_optimal_bins_zero_smoothness_picks_smallest():
    B_star, _ = optimal_bins(4, 0.5, 0.0)
    assert B_star == 2


def test_optimal_bins_local_minimality():
    for n in (1_000, 31_623, 10**6):
        B_star, zeta_min = optimal_bins(n, 0.1, 1.0)
        assert zeta_min <= zeta(B_star - 1, n, 0.1, 1.0) or B_star == 2
        assert zeta_min <= zeta(B_star + 1, n, 0.1, 1.0)


def test_optimal_bins_matches_exhaustive_scan():
    # The bounded search returns the exhaustive scan's (B_star, zeta_min)
    # bit for bit, and zeta_min is zeta(B_star) bit for bit.
    rng = np.random.default_rng(6)
    ns = list(range(4, 3001)) + rng.integers(3001, 2_000_001, size=50).tolist()
    for delta, K in ((0.1, 1.0), (0.05, 2.0), (0.5, 0.0), (0.01, 0.3)):
        for n in ns:
            got = optimal_bins(n, delta, K)
            assert got == optimal_bins_scan_ref(n, delta, K), (n, delta, K)
            assert zeta(got[0], n, delta, K) == got[1], (n, delta, K)
        # Past n = 2e6 the full scan is too large to run, so the reference
        # stops at B = 2^17, far above every minimizer here (3154 at 1e11).
        for n in (10**8, 10**9, 10**11):
            got = optimal_bins(n, delta, K)
            assert got == optimal_bins_scan_ref(n, delta, K, B_max=2**17), (n, delta, K)
            assert zeta(got[0], n, delta, K) == got[1], (n, delta, K)


def test_zeta_on_an_array_is_the_scalar_calls():
    Bs = np.concatenate((np.arange(1, 3000), [10**6, 10**9, 2**53, 10**17]))
    for n, delta, K in ((10**6, 0.1, 1.0), (10**11, 0.01, 0.3), (4, 0.5, 0.0), (10**6, 1e-320, 1.0)):
        got = zeta(Bs, n, delta, K)
        assert got.tolist() == [zeta(B, n, delta, K) for B in Bs.tolist()], (n, delta, K)


def test_optimal_bins_cube_root_scaling():
    ns = [10**3, 10**4, 10**5, 10**6, 10**7]
    Bs = [optimal_bins(n, 0.1, 1.0)[0] for n in ns]
    slope = np.polyfit(np.log10(ns), np.log10(Bs), 1)[0]
    assert abs(slope - 1 / 3) < 0.05


def test_optimal_bins_validation():
    with pytest.raises(ValueError):
        optimal_bins(3, 0.1, 1.0)
    with pytest.raises(ValueError):
        optimal_bins(1000, 1.5, 1.0)
    with pytest.raises(ValueError):
        optimal_bins(1000, 0.1, -1.0)
    for K in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            optimal_bins(1000, 0.1, K)


def test_bounds_that_overflow_raise():
    # Finite inputs whose bound, objective or gate threshold overflows to
    # inf raise instead of returning it.
    shift = dict(n_P=1000, n_Q=1000, B=10, delta=0.1, p_min=0.1, q_min=0.1,
                 w_min=0.2, w_max=1.8, K=1.0)
    for call in (lambda: optimal_bins(1000, 0.1, 1e200),
                 lambda: optimal_bins(1000, 1e-320, 1.0),
                 lambda: risk_bound_report(BoundParams(n=1000, B=10, delta=0.1, K=1e200)),
                 lambda: risk_bound_report(BoundParams(n=1000, B=10, delta=1e-320)),
                 lambda: risk_bound_report(BoundParams(n=10**306, B=10**305, delta=0.1)),
                 lambda: shift_risk_bound_apriori(**{**shift, "K": 1e200}),
                 lambda: shift_risk_bound_apriori(**{**shift, "p_min": 1e-320}),
                 lambda: shift_risk_bound_realized((1.1, 0.9), 1e308, w_min=0.2, w_max=1.8)):
        with pytest.raises(OverflowError, match="not finite"):
            call()


# ------------------------------------------------- shift bounds (realized)

def test_realized_bound_equal_ratios():
    got = shift_risk_bound_realized((0.7, 0.7), 0.01, w_min=0.2, w_max=1.8)
    assert got == pytest.approx(2.0 * (1.8**3 / 0.2**2) * 0.01, rel=1e-13)


def test_realized_bound_no_shift_is_twice_source_risk():
    got = shift_risk_bound_realized((1.0, 1.0), 0.37, w_min=1.0, w_max=1.0)
    assert got == pytest.approx(0.74, rel=1e-13)


def test_realized_bound_ratio_mismatch_term():
    got = shift_risk_bound_realized((1.1, 0.9), 0.0, w_min=1.0, w_max=1.0)
    assert got == pytest.approx(0.02, abs=1e-12)


def test_realized_bound_needs_rho():
    with pytest.raises(ValueError):
        shift_risk_bound_realized((1.0, 1.0), -0.01, w_min=0.2, w_max=1.8)


# ------------------------------------------------- shift bounds (a priori)

def test_apriori_bound_frozen_example():
    report = shift_risk_bound_apriori(10**5, 10**3, 46, 0.1, K=1.0,
                                      p_min=0.1, q_min=0.1, w_min=0.2, w_max=1.8)
    assert report.risk_bound == pytest.approx(SHIFT_APRIORI_EXAMPLE, rel=1e-12)
    # Neither gate holds at these sizes (the source gate needs ~7e6 points).
    assert not report.conditions_met
    assert report.condition_detail.count("fails") == 2


def test_apriori_bound_reduces_without_shift():
    n = 10**6
    B = 20
    delta = 0.1
    report = shift_risk_bound_apriori(n_P=n, n_Q=n, B=B, delta=delta, K=1.0,
                                      p_min=0.3, q_min=0.3, w_min=1.0, w_max=1.0)
    m = n // B
    cal_like = (math.sqrt(math.log(8 * B / delta) / (2 * (m - 1))) + 1 / m) ** 2
    expected = 2.0 * (cal_like + 8.0 / B**2) + 54.0 * math.log(16 / delta) / (0.3 * n)
    assert report.risk_bound == pytest.approx(expected, rel=1e-12)
    assert report.cal_bound == pytest.approx(2.0 * cal_like, rel=1e-12)
    assert report.sha_bound == pytest.approx(2.0 * 8.0 / B**2, rel=1e-12)


def test_apriori_weight_term_dominated_by_source_when_target_huge():
    report = shift_risk_bound_apriori(n_P=10**5, n_Q=10**12, B=46, delta=0.1, K=1.0,
                                      p_min=0.1, q_min=0.1, w_min=1.0, w_max=1.0)
    weight_term = report.risk_bound - (report.cal_bound + report.sha_bound)
    assert weight_term == pytest.approx(
        54.0 * math.log(16 / 0.1) / (0.1 * 10**5), rel=1e-10
    )


def test_apriori_bound_insufficient_source():
    with pytest.raises(InsufficientSampleError):
        shift_risk_bound_apriori(n_P=46, n_Q=10**3, B=46, delta=0.1,
                                 p_min=0.1, q_min=0.1, w_min=0.2, w_max=1.8)


def test_shift_params_validation():
    # The a-priori bound checks its inputs in order, each with its own
    # message; the realized bound takes the weight bracket by keyword and
    # checks it with the same message.
    bracket = "weight bracket must be finite and satisfy 0 < w_min <= w_max"
    good = dict(n_P=10, n_Q=10, B=2, delta=0.1, p_min=0.1, q_min=0.1, w_min=0.2, w_max=1.8)

    def apriori(**bad):
        return shift_risk_bound_apriori(**{**good, **bad})

    for field in ("n_P", "n_Q", "B"):
        with pytest.raises(TypeError):
            apriori(**{field: 2.5})
        for bad in (0, -1):
            with pytest.raises(ValueError, match="^n_P, n_Q and B must be positive integers$"):
                apriori(**{field: bad})
    for bad in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\)$"):
            apriori(delta=bad)
    with pytest.raises(ValueError, match=r"^p_min must lie in \(0, 1/2\]$"):
        apriori(p_min=0.6)
    with pytest.raises(ValueError, match=r"^q_min must lie in \(0, 1/2\]$"):
        apriori(q_min=0.6)
    with pytest.raises(ValueError, match=bracket):
        apriori(w_min=1.8, w_max=0.2)
    with pytest.raises(TypeError):
        shift_risk_bound_apriori(10, 10, 2, 0.1, 0.1, 0.1, 0.2, 1.8)
    with pytest.raises(ValueError, match=bracket):
        shift_risk_bound_realized((1.0, 1.0), 0.01, w_min=1.8, w_max=0.2)
    with pytest.raises(TypeError):
        shift_risk_bound_realized((1.0, 1.0), 0.01, 0.2, 1.8)
    with pytest.raises(ValueError):
        shift_risk_bound_realized((0.0, 1.0), 0.01, w_min=0.2, w_max=1.8)
    for K in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="^K must be finite and nonnegative$"):
            apriori(K=K)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("p_min", "q_min"):
            with pytest.raises(ValueError, match=rf"^{field} must lie in \(0, 1/2\]$"):
                apriori(**{field: bad})
        for field in ("w_min", "w_max"):
            with pytest.raises(ValueError, match=bracket):
                apriori(**{field: bad})
            with pytest.raises(ValueError, match=bracket):
                shift_risk_bound_realized((1.0, 1.0), 0.01,
                                          **{"w_min": 0.2, "w_max": 1.8, field: bad})
        for rho in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError):
                shift_risk_bound_realized(rho, 0.01, w_min=0.2, w_max=1.8)
        with pytest.raises(ValueError, match="finite"):
            shift_risk_bound_realized((1.0, 1.0), bad, w_min=0.2, w_max=1.8)


# ------------------------------------------------------- chernoff requirement

def test_chernoff_frozen_values():
    assert chernoff_sample_requirement(0.1, 2.0, 0.1) == CHERNOFF_01_2_01
    assert chernoff_sample_requirement(0.5, 2.0, 0.1) == CHERNOFF_05_2_01


def test_chernoff_inverse_square_scaling_near_one():
    tight = chernoff_sample_requirement(0.1, 1.01, 0.1)
    ratio = tight / chernoff_sample_requirement(0.1, 2.0, 0.1)
    assert 0.99e4 < ratio < 1.01e4


def test_chernoff_validation():
    with pytest.raises(ValueError):
        chernoff_sample_requirement(0.1, 1.0, 0.1)
    with pytest.raises(ValueError):
        chernoff_sample_requirement(0.1, 2.5, 0.1)
    with pytest.raises(ValueError):
        chernoff_sample_requirement(0.0, 2.0, 0.1)


# ----------------------------------------------------------------- measures
# Each measure is the smallest level at which one of the proof's events
# holds: balance_alpha (balanced bins), approx_epsilon (fitted values near
# the bin means) and ratio_beta (plug-in weights near the true ones).

def test_balance_alpha_hand_cases():
    assert balance_alpha((0.5, 0.5)) == 1.0
    assert balance_alpha((0.9, 0.1)) == 5.0
    assert balance_alpha((0.75, 0.25)) == 2.0
    for probs in ((1.0, 0.0), (1.5, -0.5)):
        assert balance_alpha(probs) == math.inf, probs
    for probs in ((0.7, 0.2), (math.nan, 0.5)):
        with pytest.raises(ValueError, match="bin masses must sum to 1"):
            balance_alpha(probs)


def bin_means(task, fitted):
    """E[Y | Z in bin b] for each bin of a fitted map."""
    mass, pos = _bin_moments(task, fitted.scheme.edges)
    return (pos / mass).tolist()


def test_approx_epsilon_hand_cases():
    task = GaussianMixtureTask(0.5)
    fitted = fit_recalibrator(sample(task, 200, seed=1), 4)
    truth = bin_means(task, fitted)
    assert approx_epsilon(fitted, fitted.values) == 0.0
    off = list(fitted.values)
    off[2] += 0.05
    assert approx_epsilon(fitted, off) > 0.04
    assert approx_epsilon(fitted, truth) <= 1.0
    with pytest.raises(ValueError, match="expected 4 bin means, got 3"):
        approx_epsilon(fitted, truth[:-1])


def test_approx_epsilon_is_nan_wherever_the_nan_mean_sits():
    # max() keeps whichever of a NaN and a number comes first; a NaN mean
    # must fail the event at every level, in any bin.
    halves = PiecewiseRecalibrator(BinningScheme((0.0, 0.5, 1.0)), (0.25, 0.75), (1, 1))
    for means in ((math.nan, 0.75), (0.25, math.nan)):
        assert math.isnan(approx_epsilon(halves, means)), means
        assert not approx_epsilon(halves, means) <= math.inf


def test_approx_epsilon_coverage_at_free_lemma_level():
    # The deviation level epsilon_delta holds for all bins simultaneously
    # with probability at least 1 - delta; check the pass rate over seeds.
    task = GaussianMixtureTask(0.5)
    n, B, delta = 10_000, 10, 0.1
    eps = epsilon_delta(n, B, delta)
    passed = 0
    for i in range(200):
        fitted = fit_recalibrator(sample(task, n, seed=(21, i)), B)
        truth = bin_means(task, fitted)
        passed += approx_epsilon(fitted, truth) <= eps
    assert passed / 200 >= 1.0 - delta


def test_ratio_beta_hand_cases():
    exact = ShiftWeights((1.0, 1.0), "exact")
    assert ratio_beta(exact, exact) == 1.0
    distorted = ShiftWeights((2.5, 1.0), "plug-in", p_hat=(0.2, 0.5), q_hat=(0.5, 0.5))
    assert ratio_beta(distorted, exact) == 2.5
    assert ratio_beta(exact, distorted) == 2.5
    # rho_0 = 1e-300 / 1e300 underflows to 0; 1 / rho_0 must not divide by it.
    tiny = ShiftWeights((1e-300, 1.0), "exact")
    assert ratio_beta(tiny, ShiftWeights((1e300, 1.0), "exact")) == math.inf
    with pytest.raises(ValueError):
        ratio_beta(ShiftWeights((1.0, 1.0, 1.0), "exact"), exact)


def test_ratio_beta_coverage_at_chernoff_sizes():
    # With both label samples at their required sizes for beta = 2 and
    # delta = 0.1, the ratio event should hold in at least 90% of runs.
    beta, delta = 2.0, 0.1
    pi_P, pi_Q = 0.5, 0.3
    n_P = chernoff_sample_requirement(0.5, beta, delta)
    n_Q = chernoff_sample_requirement(0.3, beta, delta)
    assert (n_P, n_Q) == (237, 395)
    exact = exact_shift_weights(pi_P, pi_Q)
    passed = runs = 0
    for i in range(500):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((77, i))))
        labels_P = (rng.random(n_P) < pi_P).astype(int)
        labels_Q = (rng.random(n_Q) < pi_Q).astype(int)
        if labels_P.sum() in (0, n_P) or labels_Q.sum() in (0, n_Q):
            continue
        runs += 1
        passed += ratio_beta(estimate_weights(labels_P, labels_Q), exact) <= beta
    assert runs >= 490
    assert passed / runs >= 1.0 - delta


# ------------------------------------------------------------- determinism

def test_bound_evaluators_are_deterministic():
    p = BoundParams(n=12_345, B=17, delta=0.07, K=1.3)
    assert risk_bound_report(p) == risk_bound_report(p)
    assert optimal_bins(54_321, 0.05, 2.0) == optimal_bins(54_321, 0.05, 2.0)


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(n=0, B=10, delta=0.1)
    with pytest.raises(ValueError):
        BoundParams(n=10, B=10, delta=1.0)
    with pytest.raises(ValueError):
        BoundParams(n=10, B=10, delta=0.1, K=-1.0)
    for K in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            BoundParams(n=10, B=10, delta=0.1, K=K)
    assert DEFAULT_C == 2420.0


def test_bound_params_fields():
    # K alone selects the sharpness term; the gates use DEFAULT_C.
    assert [f.name for f in dataclasses.fields(BoundParams)] == ["n", "B", "delta", "K"]
    params = inspect.signature(shift_risk_bound_apriori).parameters
    assert list(params) == ["n_P", "n_Q", "B", "delta", "p_min", "q_min", "w_min", "w_max", "K"]
    assert [p.name for p in params.values() if p.kind is p.KEYWORD_ONLY] == [
        "p_min", "q_min", "w_min", "w_max", "K"]
    assert params["K"].default == 1.0

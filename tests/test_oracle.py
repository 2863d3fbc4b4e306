"""Analytic task oracle: posteriors, interval moments, and risk reports."""

import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.special import expit, ndtr

from recalib.core import (
    BinningScheme,
    Composite,
    LabeledSample,
    PiecewiseRecalibrator,
    ShiftCorrector,
    _sorted_view,
    apply_batch,
    fit_recalibrator,
)
from recalib.oracle import (
    GaussianMixtureTask,
    QuadratureFailureError,
    RiskReport,
    _bin_moments,
    _hstar_sq_moment,
    _quad,
    empirical_risk_plugin,
    estimate_K,
    exact_shift_weights,
    hstar,
    logit,
    population_risk,
    posterior,
    sample,
    sigmoid,
)
from recalib.oracle import EmptyBinError

from frozen import (
    BAYES_01,
    BAYES_05,
    H_01,
    H_05,
    INJ_IDENTITY_01,
    INJ_IDENTITY_05,
    INJ_KINKED_05,
    INJ_SHIFT_01,
    INJ_SHIFT_05,
    K_BULK,
    MASS_03_02_07,
    MEAN_03_02_07,
    MEAN_Z_03,
    PW3_MSE,
    PW3_R_CAL,
    PW3_R_SHA,
    PW3_R_TOT,
    PW3M_MSE,
    PW3M_R_CAL,
    PW3M_R_SHA,
    PW3M_R_TOT,
    SIGMOID_4,
    VAR_HSTAR_05,
)
from oracles import (
    estimate_K_bisect_ref,
    piecewise_quad_ref,
    plugin_argsort_ref,
    plugin_loop_ref,
    plugin_right_closed_ref,
    sample_where_ref,
    sigmoid_array_masked_ref,
    sort_slice_fit,
)

TASK05 = GaussianMixtureTask(0.5)
TASK03 = GaussianMixtureTask(0.3)
TASK01 = GaussianMixtureTask(0.1)

PW3 = PiecewiseRecalibrator(BinningScheme((0.0, 0.25, 0.6, 1.0)), (0.2, 0.5, 0.9), (1, 1, 1))
PW3M = PiecewiseRecalibrator(BinningScheme((0.0, 0.25, 0.6, 1.0)), (0.2, 0.5, 0.2), (1, 1, 1))
# The raw score as a map, for its risk under the task.
IDENTITY = lambda z: z


def random_piecewise(rng: np.random.Generator) -> PiecewiseRecalibrator:
    B = int(rng.integers(2, 7))
    while True:
        interior = np.sort(rng.uniform(0.02, 0.98, B - 1))
        if B == 1 or np.diff(np.concatenate(([0.0], interior, [1.0]))).min() > 1e-3:
            break
    values = tuple(float(v) for v in rng.uniform(0.0, 1.0, B))
    edges = (0.0, *(float(u) for u in interior), 1.0)
    return PiecewiseRecalibrator(BinningScheme(edges), values, (1,) * B)


# -------------------------------------------------------------- link maps

def test_sigmoid_tails_and_value():
    assert sigmoid(37.0) == 1.0
    low, want = sigmoid(-37.0), sigmoid_array_masked_ref(np.array([-37.0]))
    assert low.view(np.uint64) == want.view(np.uint64)[0]
    assert low == pytest.approx(math.exp(-37) / (1 + math.exp(-37)), rel=1e-15, abs=0.0)
    assert sigmoid(0.0) == 0.5
    assert sigmoid(4.0) == pytest.approx(SIGMOID_4, rel=1e-15)


def test_scalar_link_maps_match_their_array_elements_bitwise():
    # A scalar runs as a one-element array, so each scalar call must give
    # the bits of the matching element of one call on the whole array. The
    # scalar calls take 2,000 of the seeded inputs; the array map takes
    # all 200,000, against the masked reference.
    seeded = np.random.default_rng(0).uniform(-40.0, 40.0, 200_000)
    want = sigmoid_array_masked_ref(seeded)
    assert np.array_equal(sigmoid(seeded).view(np.uint64), want.view(np.uint64))
    edges = [36.0, np.nextafter(36.0, 0.0), np.nextafter(36.0, 99.0), 0.0, 5e-324, np.inf]
    x = np.concatenate((edges, np.negative(edges), [np.nan], seeded[:2_000]))
    z = np.concatenate(([0.0, -0.0, 5e-324, 0.5, np.nextafter(1.0, 0.0), 1.0],
                        sigmoid(x[~np.isnan(x)])))
    maps = ((sigmoid, x), (logit, z),
            (lambda v: posterior(TASK03, v), x), (lambda v: hstar(TASK03, v), z))
    for f, v in maps:
        want = f(v)
        got = np.array([f(u) for u in v.tolist()])
        assert want.shape == v.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sigmoid_array_matches_masked_reference_bitwise():
    tiny = np.nextafter(0.0, 1.0)
    edges = [36.0, np.nextafter(36.0, 0.0), np.nextafter(36.0, 99.0), 0.0, -0.0,
             tiny, 2.2e-308, 1e-300, 1e-17, 700.0, 745.2, np.inf]
    x = np.concatenate((edges, np.negative(edges),
                        np.random.default_rng(11).normal(0.0, 12.0, 100_000)))
    want = sigmoid_array_masked_ref(x)
    got = sigmoid(x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    inplace = x.copy()
    assert sigmoid(inplace, out=inplace) is inplace
    assert np.array_equal(inplace.view(np.uint64), want.view(np.uint64))
    nan = np.array([np.nan, 40.0, np.nan, -40.0])
    tails = [1.0, sigmoid_array_masked_ref(np.array([-40.0]))[0]]
    for got in (sigmoid(nan), sigmoid(nan.copy(), out=nan.copy())):
        assert np.isnan(got[::2]).all() and got[1::2].tolist() == tails


def test_logit_endpoints_and_roundtrip():
    assert logit(0.0) == -math.inf
    assert logit(1.0) == math.inf
    for z in (1e-300, 1e-20, 1e-17, 0.001, 0.3, 0.5, 0.9, 0.999):
        assert sigmoid(logit(z)) == pytest.approx(z, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        logit(-0.1)
    with pytest.raises(ValueError):
        logit(1.1)


def test_posterior_values():
    assert posterior(TASK05, 0.0) == 0.5
    assert posterior(TASK05, 1.0) == pytest.approx(SIGMOID_4, rel=1e-15)
    assert posterior(TASK01, 0.0) == pytest.approx(0.1, rel=1e-14)


def test_hstar_values_and_symmetry():
    assert hstar(TASK05, 0.5) == 0.5
    assert hstar(TASK05, sigmoid(1.0)) == pytest.approx(SIGMOID_4, rel=1e-12)
    assert hstar(TASK05, 0.0) == 0.0
    assert hstar(TASK05, 1.0) == 1.0
    for z in np.linspace(0.01, 0.99, 33):
        assert hstar(TASK05, 1.0 - z) == pytest.approx(1.0 - hstar(TASK05, z), abs=1e-12)


def test_exact_shift_weights():
    w = exact_shift_weights(0.5, 0.1)
    assert w.w == (1.8, 0.2)
    assert w.provenance == "exact"
    assert exact_shift_weights(0.3, 0.3).w == (1.0, 1.0)
    with pytest.raises(ValueError):
        exact_shift_weights(0.0, 0.1)
    with pytest.raises(ValueError):
        exact_shift_weights(0.5, 1.0)


def test_task_validation():
    with pytest.raises(ValueError):
        GaussianMixtureTask(0.0)
    with pytest.raises(ValueError):
        GaussianMixtureTask(1.2)


# ------------------------------------------------------------- sampling

def test_sample_moments_match_oracle():
    s = sample(TASK05, 100_000, seed=5)
    assert abs(s.y.mean() - 0.5) <= 3 * math.sqrt(0.25 / s.n)
    se = s.z.std(ddof=1) / math.sqrt(s.n)
    assert abs(s.z.mean() - 0.5) <= 3 * se

    s3 = sample(TASK03, 100_000, seed=5)
    se3 = s3.z.std(ddof=1) / math.sqrt(s3.n)
    assert abs(s3.z.mean() - MEAN_Z_03) <= 3 * se3


def test_sample_deterministic_and_frozen():
    a = sample(TASK05, 5, seed=12345)
    b = sample(TASK05, 5, seed=12345)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.y, b.y)
    np.testing.assert_array_equal(
        a.z,
        [0.8274760007434269, 0.9045618191788573, 0.05265034928094536,
         0.17473071264020035, 0.9726175752381108],
    )
    np.testing.assert_array_equal(a.y, [1, 1, 0, 0, 1])


@pytest.mark.parametrize("pi", [1e-4, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [1, 1000, 100_003])
def test_sample_matches_masked_reference_bitwise(pi, n):
    # Compared with a reference run on the same machine, not with frozen
    # digests: np.exp may take a different SIMD path on another CPU.
    cases = [(n, seed) for seed in (0, 20260, np.random.SeedSequence(7).spawn(3)[2])]
    if (pi, n) == (0.5, 100_003):
        cases.append((1_000_000, 0))  # one draw at the benchmark's size
    for size, seed in cases:
        got = sample(GaussianMixtureTask(pi), size, seed)
        z, y = sample_where_ref(pi, size, seed)
        assert np.array_equal(got.z.view(np.uint64), z.view(np.uint64))
        assert np.array_equal(got.y, y)


def test_sample_owns_locked_arrays():
    # sample hands its arrays to LabeledSample without the public
    # constructor's copy; they must still be the sample's own and locked.
    s = sample(TASK05, 10_000, seed=4)
    assert not s.z.flags.writeable and not s.y.flags.writeable
    assert s.z.flags.owndata and s.y.flags.owndata and s.y.dtype == np.int8
    assert not np.shares_memory(s.z, s.y)
    with pytest.raises(ValueError):
        s.z[0] = 0.5
    copy = LabeledSample(z=s.z.copy(), y=s.y.copy())
    assert (s.z.dtype, s.y.dtype) == (copy.z.dtype, copy.y.dtype) == (np.float64, np.int8)
    assert np.array_equal(s.z, copy.z) and np.array_equal(s.y, copy.y)
    for got, want in zip(_sorted_view(s), _sorted_view(copy)):
        assert np.array_equal(got, want)
    assert fit_recalibrator(s, 20) == fit_recalibrator(copy, 20)


@pytest.mark.parametrize("pi", [0.5, 0.02])
@pytest.mark.parametrize("n", [(1 << 17) - 1, 1 << 17, 1_000_003])
def test_helper_thread_changes_no_bits(monkeypatch, pi, n):
    # From 2**17 points on two or more CPUs, sample maps its first half and
    # _sorted_view sorts the scores on a helper thread (core._concurrently).
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    runs, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL between the threads as often as it can go
    try:
        for cpus in (2, 1, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            started.clear()
            data = sample(GaussianMixtureTask(pi), n, seed=n)
            out = [data.z, data.y, *_sorted_view(data)]
            for B in (7, 501):
                h = fit_recalibrator(data, B)
                out += [np.array(h.scheme.edges), np.array(h.values), np.array(h.counts)]
            runs.append([a.tobytes() for a in out])
            assert len(started) == (4 if cpus == 2 and n >= 1 << 17 else 0)
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]


def test_sample_validation():
    with pytest.raises(ValueError):
        sample(TASK05, 0, seed=1)
    # numpy reads empty entropy as 0, which would silently draw seed 0's stream.
    for empty in ([], ()):
        with pytest.raises(ValueError, match="seed"):
            sample(TASK05, 10, seed=empty)


# ------------------------------------------------------ interval moments

def interval_mass(task, z_lo, z_hi):
    """P[Z in (z_lo, z_hi]] from ``_bin_moments``, the path the risks use."""
    return float(_bin_moments(task, (z_lo, z_hi))[0][0])


def interval_mean(task, z_lo, z_hi):
    """E[Y | Z in (z_lo, z_hi]], the positive mass over the mass."""
    (mass,), (pos,) = _bin_moments(task, (z_lo, z_hi))
    return float(pos / mass)


def test_interval_mass_examples():
    assert interval_mass(TASK05, 0.0, 0.5) == pytest.approx(0.5, abs=1e-14)
    assert interval_mass(TASK05, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    lo_half = interval_mass(TASK05, 0.0, 0.3)
    hi_half = interval_mass(TASK05, 0.7, 1.0)
    assert lo_half == pytest.approx(hi_half, abs=1e-14)
    assert interval_mass(TASK03, 0.2, 0.7) == pytest.approx(MASS_03_02_07, rel=1e-13)


def test_interval_mass_partition_sums_to_one():
    mass, pos = _bin_moments(TASK03, (0.0, 0.11, 0.37, 0.52, 0.88, 1.0))
    assert mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert pos.sum() == pytest.approx(0.3, abs=1e-12)


def test_interval_mean_examples():
    assert interval_mean(TASK05, 0.0, 1.0) == pytest.approx(0.5, rel=1e-13)
    assert interval_mean(TASK01, 0.0, 1.0) == pytest.approx(0.1, rel=1e-13)
    assert interval_mean(TASK03, 0.2, 0.7) == pytest.approx(MEAN_03_02_07, rel=1e-13)
    lo = interval_mean(TASK05, 0.1, 0.4)
    hi = interval_mean(TASK05, 0.6, 0.9)
    assert lo == pytest.approx(1.0 - hi, abs=1e-12)


def test_interval_mean_bracketed_by_optimal_map():
    for a, b in ((0.05, 0.2), (0.2, 0.5), (0.5, 0.77), (0.77, 0.99)):
        mean = interval_mean(TASK03, a, b)
        assert hstar(TASK03, a) <= mean <= hstar(TASK03, b)


def test_bin_moments_of_empty_and_reversed_bins():
    # A zero-width bin carries exactly zero mass; the moments are signed
    # CDF differences, so walking a bin backwards negates them exactly.
    mass, pos = _bin_moments(TASK05, (0.3, 0.3, 0.7, 0.3))
    assert mass[0] == pos[0] == 0.0
    assert mass[2] == -mass[1] and pos[2] == -pos[1]
    assert 0.0 < pos[1] < mass[1]


# ------------------------------------------------- population risk: exact

def test_optimal_map_is_a_fixed_point():
    for task in (TASK05, TASK01):
        rep = population_risk(task, lambda z, t=task: hstar(t, z))
        assert rep.r_cal <= 1e-10
        assert rep.r_sha == 0.0


def test_transported_optimal_map_is_calibrated_on_target():
    for pi_q in (0.1, 0.3):
        task_q = GaussianMixtureTask(pi_q)
        corr = ShiftCorrector(exact_shift_weights(0.5, pi_q))
        fn = lambda z, c=corr: apply_batch(c, hstar(TASK05, z))
        rep = population_risk(task_q, fn)
        assert rep.r_cal <= 1e-10
        assert rep.r_sha == 0.0


def constant_map(c: float) -> PiecewiseRecalibrator:
    """The constant map c as the one-bin piecewise map."""
    return PiecewiseRecalibrator(BinningScheme((0.0, 1.0)), (c,), (1,))


def test_constant_risk_components():
    rep = population_risk(TASK05, constant_map(0.5))
    assert rep.r_cal == 0.0
    assert rep.r_sha == pytest.approx(VAR_HSTAR_05, abs=1e-10)
    assert rep.mse - rep.r_total == pytest.approx(BAYES_05, abs=1e-10)

    off = population_risk(TASK05, constant_map(0.3))
    assert off.r_cal == (0.3 - 0.5) ** 2
    assert off.r_sha == pytest.approx(VAR_HSTAR_05, abs=1e-10)


def test_identity_risk_and_bayes_term():
    rep = population_risk(TASK01, IDENTITY)
    assert rep.r_sha == 0.0
    assert rep.r_total > 0.0
    assert rep.mse - rep.r_total == pytest.approx(BAYES_01, abs=1e-10)


def test_piecewise_risk_frozen_values():
    rep = population_risk(TASK05, PW3)
    assert rep.r_cal == pytest.approx(PW3_R_CAL, abs=1e-12)
    assert rep.r_sha == pytest.approx(PW3_R_SHA, abs=1e-12)
    assert rep.r_total == pytest.approx(PW3_R_TOT, abs=1e-12)
    assert rep.mse == pytest.approx(PW3_MSE, abs=1e-12)


def test_piecewise_risk_merges_equal_values():
    # Bins 1 and 3 share the value 0.2, so conditioning pools them; the
    # frozen numbers come from the pooled two-set partition.
    rep = population_risk(TASK05, PW3M)
    assert rep.r_cal == pytest.approx(PW3M_R_CAL, abs=1e-12)
    assert rep.r_sha == pytest.approx(PW3M_R_SHA, abs=1e-12)
    assert rep.r_total == pytest.approx(PW3M_R_TOT, abs=1e-12)
    assert rep.mse == pytest.approx(PW3M_MSE, abs=1e-12)


def test_decomposition_identity_random_maps():
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(20):
        rep = population_risk(TASK05, random_piecewise(rng))
        assert abs(rep.r_total - (rep.r_cal + rep.r_sha)) <= 1e-8
        assert min(rep.r_cal, rep.r_sha) >= 0.0
        assert rep.mse >= rep.r_total


def assert_matches_quad_ref(task, h, pw=None):
    pw = h if pw is None else pw
    want = piecewise_quad_ref(task.pi, pw.scheme.edges, pw.values)
    got = population_risk(task, h)
    for field, ref in zip(("r_cal", "r_sha", "r_total", "mse"), want):
        assert abs(getattr(got, field) - ref) <= 1e-14, (field, task.pi, pw.scheme.B)


def test_piecewise_risk_matches_per_bin_quadrature_reference():
    rng = np.random.Generator(np.random.PCG64(2025))
    maps = [PW3, PW3M] + [random_piecewise(rng) for _ in range(20)]
    for task in (TASK01, TASK03, TASK05):
        for pw in maps:
            assert_matches_quad_ref(task, pw)


@pytest.mark.parametrize("n, B", [(10_000, 24), (100_000, 192), (1_000_000, 1024)])
def test_fitted_and_composite_risks_match_per_bin_quadrature_reference(n, B):
    h = fit_recalibrator(sample(TASK05, n, seed=(n, B)), B)
    comp = Composite(outer=ShiftCorrector(exact_shift_weights(0.5, 0.3)), inner=h)
    assert_matches_quad_ref(TASK05, h)
    assert_matches_quad_ref(TASK03, comp, comp.flatten())


def test_piecewise_risk_on_hairline_and_zero_mass_bins():
    # A bin one ulp wide above 0.5, and two bins above 1 - 1e-12 whose
    # mass is exactly 0: one shares its value with a bin of positive
    # mass, the other is a level set of its own.
    edges = (0.0, 0.5, math.nextafter(0.5, 1.0), 0.8, 1.0 - 1e-12, 1.0 - 1e-13, 1.0)
    for b in (4, 5):
        assert interval_mass(TASK05, edges[b], edges[b + 1]) == 0.0
    pw = PiecewiseRecalibrator(BinningScheme(edges), (0.2, 0.4, 0.6, 0.9, 0.9, 0.7), (1,) * 6)
    for task in (TASK01, TASK03, TASK05):
        assert_matches_quad_ref(task, pw)


def test_piecewise_risk_needs_no_quadrature_once_H_is_cached(monkeypatch):
    population_risk(TASK05, PW3)

    def refuse(*args):
        raise AssertionError("piecewise risk called _quad")

    monkeypatch.setattr("recalib.oracle._quad", refuse)
    h = fit_recalibrator(sample(TASK05, 100_000, seed=5), 1024)
    assert population_risk(TASK05, h).r_total > 0.0


def test_reflection_symmetry_of_risks():
    pw = PiecewiseRecalibrator(
        BinningScheme((0.0, 0.125, 0.5, 0.75, 1.0)), (0.1, 0.3, 0.6, 0.9), (1, 1, 1, 1)
    )
    reflected = PiecewiseRecalibrator(
        BinningScheme((0.0, 0.25, 0.5, 0.875, 1.0)),
        tuple(1.0 - v for v in reversed(pw.values)),
        (1, 1, 1, 1),
    )
    a = population_risk(TASK05, pw)
    b = population_risk(TASK05, reflected)
    assert a.r_cal == pytest.approx(b.r_cal, abs=1e-10)
    assert a.r_sha == pytest.approx(b.r_sha, abs=1e-10)
    assert a.mse == pytest.approx(b.mse, abs=1e-10)


def test_mse_agrees_with_monte_carlo():
    s = sample(TASK05, 1_000_000, seed=777)
    sq = (apply_batch(PW3, s.z) - s.y) ** 2
    se = sq.std(ddof=1) / math.sqrt(s.n)
    assert abs(PW3_MSE - sq.mean()) <= 3 * se


def test_monotone_map_must_return_an_array_of_the_nodes_shape():
    for fn in (lambda z: 0.5, lambda z: z[:-1], lambda z: z[:, None]):
        with pytest.raises(TypeError, match="shape"):
            population_risk(TASK05, fn)
    # What is neither a map nor callable has no risk.
    for h in (0.5, exact_shift_weights(0.5, 0.1)):
        with pytest.raises(TypeError, match=f"cannot evaluate risk of {type(h).__name__}"):
            population_risk(TASK05, h)


def test_injective_maps_have_zero_sharpness_risk():
    maps = (
        IDENTITY,
        ShiftCorrector(exact_shift_weights(0.5, 0.1)),
        lambda z: z**2,
    )
    for h in maps:
        assert population_risk(TASK05, h).r_sha == 0.0


def test_step_approximations_of_identity_converge():
    ident = population_risk(TASK05, IDENTITY)
    assert ident.r_total == pytest.approx(0.022555182715854664, rel=1e-10)
    totals, shas = [], []
    for B in (4, 16, 64, 256):
        pw = PiecewiseRecalibrator(
            BinningScheme(tuple(b / B for b in range(B + 1))),
            tuple((b + 0.5) / B for b in range(B)),
            (1,) * B,
        )
        rep = population_risk(TASK05, pw)
        totals.append(rep.r_total)
        shas.append(rep.r_sha)
    assert totals[0] == pytest.approx(0.02748912, abs=1e-7)
    assert all(a > b for a, b in zip(totals, totals[1:]))
    assert all(a > b for a, b in zip(shas, shas[1:]))
    assert abs(totals[-1] - ident.r_total) < 1e-5


# -------------------------------------------------- smoothness estimation

def test_estimate_K_converges_to_bulk_supremum():
    k = estimate_K(TASK05, 100_000)
    assert k == pytest.approx(18.52161577549451, rel=1e-12)
    assert estimate_K(TASK05) == k
    assert abs(k - K_BULK) / K_BULK < 1e-6
    assert k <= K_BULK + 1e-9
    half = estimate_K(TASK05, 50_000)
    assert abs(k - half) / k < 0.01


def test_estimate_K_monotone_under_grid_doubling():
    ks = [estimate_K(TASK05, g) for g in (1000, 2000, 4000, 8000, 16000, 32000, 64000)]
    assert ks[0] == pytest.approx(18.509978946541423, rel=1e-12)
    for a, b in zip(ks, ks[1:]):
        assert b >= a - 1e-9


def test_estimate_K_matches_independent_reimplementation():
    # Same estimator built from scratch: bisection against the closed-form
    # mixture CDF at the reflected levels 1 - j/G (negating afterwards,
    # valid at pi = 0.5), difference quotients of the posterior against
    # the CDF with the endpoints appended.
    G = 10_000
    j = np.arange(1, G, dtype=np.float64)
    targets = 1.0 - j / G
    lo = np.full(targets.shape, -20.0)
    hi = np.full(targets.shape, 20.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = 0.5 * (ndtr(mid - 2.0) + ndtr(mid + 2.0)) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = -(0.5 * (lo + hi))
    h = np.concatenate(([0.0], expit(4.0 * x)[::-1], [1.0]))
    F = np.concatenate(([0.0], (0.5 * (ndtr(x - 2.0) + ndtr(x + 2.0)))[::-1], [1.0]))
    mine = float(np.max(np.diff(h) / np.diff(F)))
    assert abs(mine - estimate_K(TASK05, G)) <= 1e-9


@pytest.mark.parametrize("pi", [1e-4, 0.01, 0.1, 0.3, 0.5, 0.75, 0.9, 0.9999])
@pytest.mark.parametrize("G", [1000, 1003, 7777, 100_000])
def test_estimate_K_equals_full_bisection_bitwise(pi, G):
    # Only the quotients near the approximate maximum are bisected; the
    # result must be the full-grid bisection's to the last bit.
    assert estimate_K(GaussianMixtureTask(pi), G) == estimate_K_bisect_ref(pi, G)


def test_estimate_K_validation():
    with pytest.raises(ValueError):
        estimate_K(TASK05, 999)


# ------------------------------------------------------- plug-in estimator

def test_plugin_in_sample_calibration_risk_is_zero():
    s = sample(TASK05, 10_000, seed=42)
    h = fit_recalibrator(s, 10)
    rep = empirical_risk_plugin(s, h)
    assert rep.r_cal == 0.0
    assert rep.r_total == rep.r_cal + rep.r_sha
    assert rep.mse >= rep.r_total


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("B", [7, 96, 501])
def test_plugin_in_sample_calibration_risk_is_exactly_zero_at_scale(seed, B):
    s = sample(TASK05, 200_000, seed=seed)
    assert empirical_risk_plugin(s, fit_recalibrator(s, B)).r_cal == 0.0


def _tied(data):
    """The sample with scores rounded to 3 decimals: runs of tied scores
    that straddle slice boundaries."""
    return LabeledSample(np.round(data.z, 3), data.y)


def test_plugin_matches_loop_reference():
    g = ShiftCorrector(exact_shift_weights(0.5, 0.3))
    for n, B in ((2_000, 1), (2_000, 5), (50_000, 96), (200_000, 501)):
        fitted_on = sample(TASK05, n, seed=(n, B))
        h = fit_recalibrator(fitted_on, B)
        comp = Composite(outer=g, inner=h)
        fresh = sample(TASK05, n, seed=(n, B, 1))
        tied = [_tied(fresh)] if B <= 96 else []  # 3 decimals leave bins of 501 empty
        for data in (fitted_on, fresh, *tied):
            for m, pw in ((h, h), (comp, comp.flatten())):
                want = plugin_loop_ref(data.z, data.y, pw.scheme.edges, pw.values)
                got = empirical_risk_plugin(data, m)
                # The loop's level means leave r_cal near 1e-33 where the
                # pooled integer means give exactly 0; r_total inherits that.
                for field, ref, floor in zip(("r_cal", "r_sha", "r_total", "mse"), want,
                                             (1e-30, 0.0, 1e-30, 0.0)):
                    assert getattr(got, field) == pytest.approx(ref, rel=1e-12, abs=floor), \
                        (field, n, B)
                assert got.r_total == got.r_cal + got.r_sha


@pytest.mark.parametrize("n, B", [(2_000, 1), (2_000, 5), (50_000, 96), (200_000, 501)])
def test_plugin_equals_argsort_reference_bitwise(n, B):
    h = fit_recalibrator(sample(TASK03, n, seed=(n, B, 2)), B)
    comp = Composite(outer=ShiftCorrector(exact_shift_weights(0.3, 0.1)), inner=h)
    fresh = sample(TASK03, n, seed=(n, B, 3))
    samples = [fresh, LabeledSample(np.round(fresh.z, 5), fresh.y)]
    if B <= 96:
        samples.append(_tied(fresh))
    for data in samples:
        for m, pw in ((h, h), (comp, comp.flatten())):
            got = empirical_risk_plugin(data, m)
            got = (got.r_cal, got.r_sha, got.r_total, got.mse)
            assert got == plugin_right_closed_ref(data.z, data.y, pw.scheme.edges, pw.values), \
                (n, B)
            if data is fresh:
                # Distinct scores: the rank slices of the earlier plug-in
                # hold the same records, so its bits are kept.
                assert got == plugin_argsort_ref(data.z, data.y, pw.scheme.edges, pw.values), \
                    (n, B)


def test_label_counts_beyond_one_byte():
    # Labels are held in one byte; every count of them must not be. 1e5
    # scores at 3 decimals, 80% positive, split so the median falls between
    # two distinct scores: each of the B = 2 bins holds about 40,000
    # positives, and each plug-in slice about 180, all counted by
    # ``_tally`` over int8 labels.
    rng = np.random.default_rng(18)
    half = 50_000
    z = np.concatenate((np.round(rng.uniform(0.0, 0.499, half), 3),
                        np.round(rng.uniform(0.5, 1.0, half), 3)))
    z = rng.permutation(z)
    y = (rng.random(z.size) < 0.8).astype(np.int64)
    data = LabeledSample(z, y)
    assert data.y.dtype == np.int8
    zs = _sorted_view(data)[0]
    assert zs[half - 1] < zs[half] and np.any(zs[1:] == zs[:-1])
    h = fit_recalibrator(data, 2)
    assert min(np.array(h.values) * np.array(h.counts)) > 127 * 200
    assert (h.scheme.edges, h.values, h.counts) == sort_slice_fit(z, y, 2)
    got = empirical_risk_plugin(data, h)
    assert (got.r_cal, got.r_sha, got.r_total, got.mse) == plugin_right_closed_ref(
        z, y, h.scheme.edges, h.values)


def test_plugin_is_invariant_to_record_order():
    # Ties straddle the rank cuts of the slices; right-closed slices give
    # every tied run to one slice, whatever the order of its records.
    h = fit_recalibrator(sample(TASK05, 20_000, seed=55), 10)
    tied = _tied(sample(TASK05, 20_000, seed=(55, 1)))
    rng = np.random.default_rng(55)
    reports = set()
    for _ in range(5):
        order = rng.permutation(tied.n)
        rep = empirical_risk_plugin(LabeledSample(tied.z[order], tied.y[order]), h)
        reports.add((rep.r_cal, rep.r_sha, rep.r_total, rep.mse))
    assert len(reports) == 1, reports

    # Three distinct scores over 1000 records: every slice ends at one of
    # them, so all but one slice per score are swallowed whole and drop
    # out with no 0/0.
    h = PiecewiseRecalibrator(BinningScheme((0.0, 0.5, 1.0)), (0.25, 0.75), (1, 1))
    z = rng.choice([0.1, 0.2, 0.7], 1000)
    y = (rng.random(1000) < z).astype(np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = empirical_risk_plugin(LabeledSample(z, y), h)
    assert (got.r_cal, got.r_sha, got.r_total, got.mse) == plugin_right_closed_ref(
        z, y, h.scheme.edges, h.values)


def test_plugin_agrees_with_population_risk_on_fresh_sample():
    h = fit_recalibrator(sample(TASK05, 10_000, seed=42), 10)
    pop = population_risk(TASK05, h)
    fresh = sample(TASK05, 1_000_000, seed=(42, 1))
    full = empirical_risk_plugin(fresh, h)

    chunk = 62_500
    parts = [
        empirical_risk_plugin(
            LabeledSample(fresh.z[i * chunk:(i + 1) * chunk],
                          fresh.y[i * chunk:(i + 1) * chunk]),
            h,
        )
        for i in range(16)
    ]
    for field in ("r_cal", "r_sha", "r_total", "mse"):
        vals = np.array([getattr(p, field) for p in parts])
        se = vals.std(ddof=1) / 4.0
        got = getattr(full, field)
        want = getattr(pop, field)
        assert abs(got - want) <= 3 * se + 1e-8, (field, got, want, se)


def test_plugin_flattens_composites():
    s = sample(TASK05, 2_000, seed=9)
    h = fit_recalibrator(s, 5)
    comp = Composite(outer=ShiftCorrector(exact_shift_weights(0.5, 0.3)), inner=h)
    a = empirical_risk_plugin(s, comp)
    b = empirical_risk_plugin(s, comp.flatten())
    assert (a.r_cal, a.r_sha, a.r_total, a.mse) == (b.r_cal, b.r_sha, b.r_total, b.mse)


def test_plugin_empty_bin_fails_loudly():
    h = PiecewiseRecalibrator(BinningScheme((0.0, 0.5, 1.0)), (0.25, 0.75), (1, 1))
    z = np.linspace(0.05, 0.45, 40)
    y = np.zeros(40)
    with pytest.raises(EmptyBinError):
        empirical_risk_plugin(LabeledSample(z, y), h)


def test_plugin_rejects_non_piecewise_maps():
    s = sample(TASK05, 100, seed=3)
    with pytest.raises(TypeError):
        empirical_risk_plugin(s, ShiftCorrector(exact_shift_weights(0.5, 0.1)))


# --------------------------------------------------------- report hygiene

def test_risk_report_validation():
    ok = RiskReport(0.1, 0.2, 0.3, 0.35, 1e-14)
    assert ok.r_total == 0.3
    with pytest.raises(ValueError):
        RiskReport(-0.1, 0.2, 0.1, 0.2, 1e-12)
    with pytest.raises(ValueError):
        RiskReport(0.1, 0.1, 0.3, 0.35, 1e-12)
    with pytest.raises(ValueError):
        RiskReport(0.1, 0.1, 0.2, 0.1, 1e-12)
    with pytest.raises(ValueError):
        RiskReport(0.1, 0.1, 0.2, 0.25, 0.0)


def test_quadrature_failure_is_loud():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(QuadratureFailureError):
            _quad(lambda x: np.sin(5e5 * x * x))


def test_quadrature_matches_mpmath():
    # Analytic integrands: the trapezoid rule is at roundoff after one halving.
    for task, H in ((TASK05, H_05), (TASK01, H_01)):
        assert abs(_hstar_sq_moment(task)[0] - H) <= 1e-15
    cases = (
        (TASK01, IDENTITY, INJ_IDENTITY_01),
        (TASK01, ShiftCorrector(exact_shift_weights(0.5, 0.1)), INJ_SHIFT_01),
        (TASK05, IDENTITY, INJ_IDENTITY_05),
        (TASK05, ShiftCorrector(exact_shift_weights(0.5, 0.5)), INJ_SHIFT_05),
    )
    for task, h, want in cases:
        rep = population_risk(task, h)
        assert abs(rep.r_total - want) <= 1e-15, h
        assert rep.tolerance == 1e-14, h


def test_kinked_integrands_stay_within_their_error_budget():
    # A kink slows the rule to O(h^2), with a constant that depends on
    # where the kink falls in the grid. The reported error must still
    # cover the true one, or the rule must refuse: never a quiet miss.
    try:
        kinked = lambda z: np.minimum(2 * z, (1 + z) / 2)
        rep = population_risk(TASK05, kinked)
    except QuadratureFailureError:
        pass
    else:
        assert abs(rep.r_total - INJ_KINKED_05) <= rep.tolerance
    # The ramp max(x - a, 0) under the standard normal density integrates
    # to phi(a) - a (1 - Phi(a)); its kink sweeps over the grid cells.
    refused = 0
    for a in np.random.default_rng(5).uniform(-4.0, 4.0, 24):
        f = lambda x, a=a: np.maximum(x - a, 0.0) * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        want = math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi) - a * float(ndtr(-a))
        try:
            value, err = _quad(f)
        except QuadratureFailureError:
            refused += 1
            continue
        assert abs(value - want) <= err, a
    assert refused < 12

"""Finite-sample risk bounds, bin-count selection, and sampling diagnostics.

Closed-form expressions only; nothing here touches data beyond the
diagnostic measures at the bottom. Natural logarithms throughout.
A bound, gate threshold or objective that overflows to inf on finite
inputs raises OverflowError instead of being returned.

Notation: n is the calibration sample size, B the number of uniform-mass
bins, delta the failure probability, m = floor(n / B) the per-bin count,
and K the smoothness constant of the optimal recalibration map relative
to the score CDF (so K-smoothness means the map moves by at most K times
the CDF mass between any two scores).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (PiecewiseRecalibrator, ShiftWeights, _index, _probability, _real, _reals,
                   _smoothness_constant)

__all__ = [
    "DEFAULT_C",
    "InsufficientSampleError",
    "BoundParams",
    "BoundReport",
    "epsilon_delta",
    "risk_bound_report",
    "zeta",
    "optimal_bins",
    "shift_risk_bound_realized",
    "shift_risk_bound_apriori",
    "chernoff_sample_requirement",
    "balance_alpha",
    "approx_epsilon",
    "ratio_beta",
]

# Universal constant in the sample-size condition n >= c B log(2B / delta).
DEFAULT_C = 2420.0


class InsufficientSampleError(ValueError):
    """Fewer than two points per bin, so the deviation bound is undefined."""


@dataclass(frozen=True)
class BoundParams:
    """Inputs for the single-distribution bounds. A given K, the smoothness
    constant of the optimal map, selects the sharpness term 8 K^2 / B^2;
    without one the term is 2 / B."""

    n: int
    B: int
    delta: float
    K: float | None = None

    def __post_init__(self) -> None:
        for name in ("n", "B"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        object.__setattr__(self, "delta", _probability(self.delta, "delta"))
        if self.K is not None:
            object.__setattr__(self, "K", _smoothness_constant(self.K))
        if self.n < 1 or self.B < 1:
            raise ValueError("n and B must be positive integers")


@dataclass(frozen=True)
class BoundReport:
    """A bound evaluation with its sample-size gate status.

    On the single-distribution path risk_bound == cal_bound + sha_bound.
    On the label-shift path the split is not additive: cal_bound and
    sha_bound hold the two shift-scaled recalibration terms and
    risk_bound additionally includes the weight-estimation term.
    """

    cal_bound: float
    sha_bound: float
    risk_bound: float
    conditions_met: bool
    condition_detail: str


def _weight_bracket(w_min: float, w_max: float) -> tuple[float, float]:
    w_min, w_max = _real(w_min, "w_min"), _real(w_max, "w_max")
    if not 0.0 < w_min <= w_max < math.inf:
        raise ValueError("weight bracket must be finite and satisfy 0 < w_min <= w_max")
    return w_min, w_max


def _finite(*values: float) -> None:
    """Raise OverflowError unless every bound, objective or gate threshold
    is finite: float arithmetic returns inf where finite inputs overflow it
    (K = 1e200, delta = 1e-320) instead of raising."""
    if not all(math.isfinite(v) for v in values):
        raise OverflowError("a bound, objective or gate threshold is not finite")


def epsilon_delta(n: int, B: int, delta: float) -> float:
    """Uniform deviation level for the B bin means at failure level delta:
    sqrt(log(2B / delta) / (2 (m - 1))) + 1 / m with m = floor(n / B).
    A delta of zero (delta / 2 underflows to it from 5e-324) raises
    ZeroDivisionError."""
    n, B, delta = _index(n, "n"), _index(B, "B"), _real(delta, "delta")
    if n < 1 or B < 1:
        raise ValueError("n and B must be positive integers")
    m = n // B
    if delta != 0.0:  # zero raises ZeroDivisionError below
        _probability(delta, "delta")
    if m < 2:
        raise InsufficientSampleError(
            f"floor(n / B) = {m} < 2; at least two points per bin are required"
        )
    eps = math.sqrt(math.log(2.0 * B / delta) / (2.0 * (m - 1))) + 1.0 / m
    _finite(eps)
    return eps


def risk_bound_report(p: BoundParams) -> BoundReport:
    """Calibration and sharpness bounds with their total and gate status.

    The calibration bound is epsilon_delta(n, B, delta / 2)^2, that is
    (sqrt(log(4B / delta) / (2 (m - 1))) + 1 / m)^2. The sharpness bound is
    8 K^2 / B^2 when a K is given (the optimal map is K-smooth), and 2 / B,
    which assumes nothing, when K is None. The gate is the sample-size
    condition n >= c B log(2B / delta), with c the universal constant
    DEFAULT_C.
    """
    cal = epsilon_delta(p.n, p.B, p.delta / 2.0) ** 2
    sha = 2.0 / p.B if p.K is None else 8.0 * p.K * p.K / (p.B * p.B)
    threshold = DEFAULT_C * p.B * math.log(2.0 * p.B / p.delta)
    _finite(cal, sha, cal + sha, threshold)
    ok = p.n >= threshold
    verb = "meets" if ok else "fails"
    detail = f"n = {p.n} {verb} n >= c B log(2B/delta) = {threshold:.1f}"
    return BoundReport(cal, sha, cal + sha, ok, detail)


def zeta(B: int | np.ndarray, n: int, delta: float, K: float) -> float | np.ndarray:
    """The bin-count selection objective (4B / n) log(4B / delta) + 8 K^2 / B^2,
    a simplified proxy for the total risk bound, at a bin count B or at each
    of an array of them, in float64. B and n must be at least 1, delta in
    (0, 1) and K finite and nonnegative, or ValueError. Where it overflows it
    is inf, unwarned: ``optimal_bins`` decides with ``_finite``."""
    B = np.asarray(B, dtype=np.float64)
    if not B.min(initial=1.0) >= 1.0:  # NaN fails too
        raise ValueError("B must be at least 1")
    n, delta, K = _index(n, "n"), _probability(delta, "delta"), _smoothness_constant(K)
    if n < 1:
        raise ValueError("n must be at least 1")
    with np.errstate(over="ignore"):
        return (4.0 * B / n) * np.log(4.0 * B / delta) + 8.0 * K * K / (B * B)


def optimal_bins(n: int, delta: float, K: float) -> tuple[int, float]:
    """Minimize ``zeta`` over the integer range B in [2, floor(n / 2)] by
    bisection, in about log2(n) evaluations and O(1) memory.

    The result is the B where the bisection finds that zeta stops
    decreasing: zeta(B - 1) > zeta(B) <= zeta(B + 1), unless B is 2 or
    floor(n / 2). Wherever float zeta is convex, as it is in exact
    arithmetic, that is the first minimum of the range. Returns
    (B_star, zeta(B_star)). The minimizer grows like n^(1/3) up to a
    logarithmic factor.
    """
    n = _index(n, "n")
    if n < 4:
        raise ValueError("optimal_bins needs n >= 4 so the scan range is nonempty")
    lo, hi = 2, n // 2
    while lo < hi:
        mid = (lo + hi) // 2
        B = np.float64(mid)
        if zeta(B + 1.0, n, delta, K) >= zeta(B, n, delta, K):
            hi = mid
        else:
            lo = mid + 1
    value = float(zeta(lo, n, delta, K))
    _finite(value)
    return lo, value


def shift_risk_bound_realized(rho: tuple[float, float], risk_P: float, *,
                              w_min: float, w_max: float) -> float:
    """Target-distribution risk bound in terms of the realized per-class
    ratios of estimated to true weight, rho = (rho_0, rho_1), with w_min and
    w_max bracketing the true importance weights:
    2 ((rho_0 - rho_1) / (rho_0 + rho_1))^2 + 2 (w_max^3 / w_min^2) risk_P."""
    w_min, w_max = _weight_bracket(w_min, w_max)
    rho, risk_P = _reals(rho, "rho"), _real(risk_P, "risk_P")
    if len(rho) != 2:
        raise ValueError(f"rho must hold two ratios, got {len(rho)}")
    if any(not 0.0 < r < math.inf for r in rho):
        raise ValueError("realized weight ratios must be finite and positive")
    if not 0.0 <= risk_P < math.inf:
        raise ValueError("risk_P must be finite and nonnegative")
    rho0, rho1 = rho
    lead = ((rho0 - rho1) / (rho0 + rho1)) ** 2
    bound = 2.0 * (lead + (w_max ** 3 / w_min ** 2) * risk_P)
    _finite(bound)
    return bound


def shift_risk_bound_apriori(n_P: int, n_Q: int, B: int, delta: float, *,
                             p_min: float, q_min: float, w_min: float, w_max: float,
                             K: float = 1.0) -> BoundReport:
    """A-priori target risk bound for the two-stage (shift after binning) fit.

    n_P and n_Q are the source and target sample sizes, p_min and q_min
    lower bounds on the class priors under the source and target
    distributions, and w_min and w_max bracket the true importance weights.
    The recalibration part is the source bound at failure level delta / 2,
    epsilon_delta(n_P, B, delta / 4)^2 + 8 K^2 / B^2, scaled by
    2 w_max^3 / w_min^2; the weight-estimation part is
    54 max(1 / (p_min n_P), 1 / (q_min n_Q)) log(16 / delta). Gates:
    n_P >= max(c, 27 / p_min) B log(4B / delta) and
    n_Q >= (27 / q_min) log(16 / delta).
    """
    n_P, n_Q, B = _index(n_P, "n_P"), _index(n_Q, "n_Q"), _index(B, "B")
    delta, p_min, q_min, K = (_probability(delta, "delta"), _real(p_min, "p_min"),
                              _real(q_min, "q_min"), _smoothness_constant(K))
    if n_P < 1 or n_Q < 1 or B < 1:
        raise ValueError("n_P, n_Q and B must be positive integers")
    for name, v in (("p_min", p_min), ("q_min", q_min)):
        if not 0.0 < v <= 0.5:
            raise ValueError(f"{name} must lie in (0, 1/2]")
    w_min, w_max = _weight_bracket(w_min, w_max)
    cal_term = epsilon_delta(n_P, B, delta / 4.0) ** 2
    sha_term = 8.0 * K * K / (B * B)
    scale = 2.0 * w_max ** 3 / w_min ** 2
    weight_term = 54.0 * max(1.0 / (p_min * n_P), 1.0 / (q_min * n_Q)) * math.log(16.0 / delta)
    gate_P = max(DEFAULT_C, 27.0 / p_min) * B * math.log(4.0 * B / delta)
    gate_Q = (27.0 / q_min) * math.log(16.0 / delta)
    cal_bound, sha_bound = scale * cal_term, scale * sha_term
    risk_bound = scale * (cal_term + sha_term) + weight_term
    _finite(cal_bound, sha_bound, risk_bound, gate_P, gate_Q)
    ok_P = n_P >= gate_P
    ok_Q = n_Q >= gate_Q
    detail = (
        f"n_P = {n_P} {'meets' if ok_P else 'fails'} threshold {gate_P:.1f}; "
        f"n_Q = {n_Q} {'meets' if ok_Q else 'fails'} threshold {gate_Q:.1f}"
    )
    return BoundReport(cal_bound, sha_bound, risk_bound, ok_P and ok_Q, detail)


def chernoff_sample_requirement(p_min: float, beta: float, delta: float) -> int:
    """Labels needed so plug-in weights fall within a factor beta of the truth:
    ceil(27 / ((beta - 1)^2 p_min) log(8 / delta)), valid for beta in (1, 2]."""
    p_min, beta = _probability(p_min, "p_min"), _real(beta, "beta")
    if not 1.0 < beta <= 2.0:
        raise ValueError("beta must lie in (1, 2]")
    delta = _probability(delta, "delta")
    labels = 27.0 / ((beta - 1.0) ** 2 * p_min) * math.log(8.0 / delta)
    _finite(labels)
    return math.ceil(labels)


def balance_alpha(bin_probs) -> float:
    """The smallest alpha at which every one of the B bin masses lies in
    [1 / (alpha B), alpha / B]: max_b max(B m_b, 1 / (B m_b)). A mass
    that is zero or negative gives inf; masses whose sum is not within
    1e-9 of 1, a NaN among them, raise ValueError."""
    probs = _reals(bin_probs, "bin masses")
    if not abs(sum(probs) - 1.0) <= 1e-9:
        raise ValueError("bin masses must sum to 1 (tolerance 1e-9)")
    B = len(probs)
    if not all(q > 0.0 for q in probs):
        return math.inf
    return max(max(B * q, 1.0 / (B * q)) for q in probs)


def approx_epsilon(fitted: PiecewiseRecalibrator, true_bin_means) -> float:
    """The largest deviation max_b |v_b - mu_b| of a fitted bin value from
    its true bin mean; NaN if any mean is NaN."""
    means = _reals(true_bin_means, "bin means")
    if len(means) != fitted.scheme.B:
        raise ValueError(f"expected {fitted.scheme.B} bin means, got {len(means)}")
    # np.max, unlike max(), returns NaN wherever the NaN sits.
    return float(np.max(np.abs(np.subtract(fitted.values, means))))


def ratio_beta(plug_in: ShiftWeights, exact: ShiftWeights) -> float:
    """The smallest beta at which each ratio rho_k = plug_in.w[k] / exact.w[k]
    lies in [1 / beta, beta]: max_k max(rho_k, 1 / rho_k). 1 / rho_k is
    computed as exact.w[k] / plug_in.w[k], which cannot divide by zero."""
    return max(max(p / e, e / p) for p, e in zip(plug_in.w, exact.w))

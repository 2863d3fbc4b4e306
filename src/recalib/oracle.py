"""Analytic two-Gaussian simulation tasks and population risk evaluation.

The task family fixes the class-conditional score model X | Y=0 ~ N(-2, 1),
X | Y=1 ~ N(+2, 1) with the logistic link Z = sigmoid(X), and varies only
the positive-class prior pi. Under this family the posterior, the score
distribution, bin masses and bin means all have closed forms, and the
population risks of a recalibrator reduce to one-dimensional integrals in
x-space that adaptive quadrature evaluates to high accuracy.

Risk conventions. For a recalibrator h and the optimal map
hstar(z) = E[Y | Z = z]:

    calibration risk  r_cal = E[(h(Z) - E[Y | h(Z)])^2]
    sharpness risk    r_sha = E[(E[Y | h(Z)] - hstar(Z))^2]
    total             r     = E[(h(Z) - hstar(Z))^2] = r_cal + r_sha
    mse               mse   = E[(h(Z) - Y)^2] = r + E[hstar(Z)(1 - hstar(Z))]

For piecewise-constant h the conditioning sigma-algebra is generated by
the bins, except that bins sharing the same output value are merged, and
for injective h the conditional mean E[Y | h(Z)] equals hstar(Z), so the
sharpness risk vanishes identically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import ndtr, ndtri

from .core import (
    Composite,
    Constant,
    EmptyBinError,
    Identity,
    LabeledSample,
    PiecewiseRecalibrator,
    Recalibrator,
    ShiftCorrector,
    ShiftWeights,
    apply,
)

__all__ = [
    "MU0",
    "MU1",
    "ZeroMassError",
    "QuadratureFailureError",
    "GaussianMixtureTask",
    "MonotoneRecalibrator",
    "RiskReport",
    "sigmoid",
    "logit",
    "posterior",
    "hstar",
    "exact_shift_weights",
    "sample",
    "interval_mass",
    "interval_mean",
    "population_risk",
    "estimate_K",
    "empirical_risk_plugin",
]

MU0 = -2.0
MU1 = 2.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Quadrature window in x-space. The mixture tail mass beyond |x| = 12 is
# below 1e-23 for any prior, far under the quadrature tolerance.
X_WINDOW = 12.0

# Absolute accuracy demanded of each adaptive quadrature call.
QUAD_TOL = 1e-10

# exp(-36) is below the spacing of floats near 1, so the logistic map is
# saturated exactly past this point instead of being left to rounding.
_SAT = 36.0


class ZeroMassError(ValueError):
    """A conditional mean was requested on a score interval of zero mass."""


class QuadratureFailureError(RuntimeError):
    """Adaptive quadrature could not reach the demanded accuracy."""


def sigmoid(x: float) -> float:
    """The logistic map 1 / (1 + exp(-x)), saturating exactly for |x| > 36."""
    x = float(x)
    if x > _SAT:
        return 1.0
    if x < -_SAT:
        return 0.0
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _sigmoid_array(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    out[x > _SAT] = 1.0
    out[x < -_SAT] = 0.0
    return out


def logit(z: float) -> float:
    """Inverse of ``sigmoid`` on [0, 1], with logit(0) = -inf and logit(1) = +inf."""
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"score {z!r} outside [0, 1]")
    if z == 0.0:
        return -math.inf
    if z == 1.0:
        return math.inf
    return math.log(z) - math.log1p(-z)


@dataclass(frozen=True)
class GaussianMixtureTask:
    """The simulation distribution with positive-class prior pi.

    Y ~ Bernoulli(pi), X | Y=k ~ N(mu_k, 1) with mu_0 = -2 and mu_1 = +2,
    and the score is Z = sigmoid(X). The model score is therefore
    systematically miscalibrated unless pi makes sigmoid a posterior.
    """

    pi: float

    def __post_init__(self) -> None:
        if not 0.0 < float(self.pi) < 1.0:
            raise ValueError("pi must lie strictly between 0 and 1")
        object.__setattr__(self, "pi", float(self.pi))


@dataclass(frozen=True)
class MonotoneRecalibrator:
    """An analytic recalibration map given as a strictly increasing callable.

    The callable must map [0, 1] into [0, 1] and be strictly increasing;
    injectivity is what makes the sharpness risk vanish and is the
    caller's responsibility. This is how analytic maps such as the task
    posterior, or its shift-corrected transport, enter risk evaluation
    without being representable in the serializable recalibrator forms.
    """

    fn: Callable[[float], float]


@dataclass(frozen=True)
class RiskReport:
    """Population (or plug-in) risks of one recalibrator under one task.

    ``tolerance`` is the absolute numerical error budget of the report:
    the summed achieved quadrature errors on the quadrature path, or an
    accumulated-roundoff allowance on the plug-in path. The decomposition
    r_total = r_cal + r_sha holds within 10x that budget, and mse is
    never below r_total.
    """

    r_cal: float
    r_sha: float
    r_total: float
    mse: float
    method: str
    tolerance: float

    def __post_init__(self) -> None:
        if self.method not in ("quadrature", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if min(self.r_cal, self.r_sha, self.r_total, self.mse) < 0.0:
            raise ValueError("risks must be nonnegative")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        gap = abs(self.r_total - (self.r_cal + self.r_sha))
        if gap > 10.0 * self.tolerance:
            raise ValueError(
                f"risk decomposition violated: |r - (r_cal + r_sha)| = {gap:.3e} "
                f"exceeds 10 x tolerance = {10.0 * self.tolerance:.3e}"
            )
        if self.mse < self.r_total:
            raise ValueError("mse cannot be below the total risk")


def posterior(task: GaussianMixtureTask, x: float) -> float:
    """P[Y = 1 | X = x] = sigmoid(4x + logit(pi)).

    The unit-variance Gaussians give likelihood ratio
    phi(x - 2) / phi(x + 2) = exp(4x), so the posterior log-odds are
    linear in x with slope 4 and intercept logit(pi).
    """
    return sigmoid(4.0 * float(x) + logit(task.pi))


def hstar(task: GaussianMixtureTask, z: float) -> float:
    """The optimal recalibration map E[Y | Z = z] = posterior(logit(z)).

    The endpoints take the limiting values hstar(0) = 0 and hstar(1) = 1.
    """
    return posterior(task, logit(z))


def exact_shift_weights(pi_source: float, pi_target: float) -> ShiftWeights:
    """Population importance weights w_k = Q[Y = k] / P[Y = k] between priors."""
    for name, v in (("pi_source", pi_source), ("pi_target", pi_target)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must lie strictly between 0 and 1")
    return ShiftWeights(
        w=((1.0 - pi_target) / (1.0 - pi_source), pi_target / pi_source),
        provenance="exact",
    )


def sample(task: GaussianMixtureTask, n: int, seed) -> LabeledSample:
    """n independent draws (z_i, y_i) from the task.

    ``seed`` may be an int or a numpy SeedSequence and feeds a PCG64
    stream. The draw order is fixed: n uniforms decide the labels, then n
    uniforms map through the inverse normal CDF to x, then z = sigmoid(x).
    Identical seeds give bitwise identical samples on any platform.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    y = (rng.random(n) < task.pi).astype(np.int64)
    x = np.where(y == 1, MU1, MU0) + ndtri(rng.random(n))
    return LabeledSample(z=_sigmoid_array(x), y=y)


def _mixture_cdf(task: GaussianMixtureTask, x) -> np.ndarray:
    return task.pi * ndtr(x - MU1) + (1.0 - task.pi) * ndtr(x - MU0)


def _density_x(task: GaussianMixtureTask, x: float) -> float:
    a = math.exp(-0.5 * (x - MU1) ** 2)
    b = math.exp(-0.5 * (x - MU0) ** 2)
    return (task.pi * a + (1.0 - task.pi) * b) / _SQRT_2PI


def interval_mass(task: GaussianMixtureTask, z_lo: float, z_hi: float) -> float:
    """P[Z in (z_lo, z_hi]] through the mixture CDF in x-space."""
    if not 0.0 <= z_lo <= z_hi <= 1.0:
        raise ValueError("need 0 <= z_lo <= z_hi <= 1")
    x_lo = logit(z_lo)
    x_hi = logit(z_hi)
    return float(
        task.pi * (ndtr(x_hi - MU1) - ndtr(x_lo - MU1))
        + (1.0 - task.pi) * (ndtr(x_hi - MU0) - ndtr(x_lo - MU0))
    )


def interval_mean(task: GaussianMixtureTask, z_lo: float, z_hi: float) -> float:
    """E[Y | Z in (z_lo, z_hi]], the positive component over the mass."""
    mass = interval_mass(task, z_lo, z_hi)
    if mass <= 0.0:
        raise ZeroMassError(f"the interval ({z_lo}, {z_hi}] carries no score mass")
    x_lo = logit(z_lo)
    x_hi = logit(z_hi)
    return float(task.pi * (ndtr(x_hi - MU1) - ndtr(x_lo - MU1)) / mass)


def _quad(f: Callable[[float], float], x_lo: float, x_hi: float) -> tuple[float, float]:
    """Adaptive quadrature of f over [x_lo, x_hi]; returns (value, abserr)."""
    if x_lo >= x_hi:
        return 0.0, 0.0
    val, err = integrate.quad(f, x_lo, x_hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    if err > QUAD_TOL:
        raise QuadratureFailureError(
            f"quadrature on [{x_lo:.3f}, {x_hi:.3f}] achieved only {err:.2e} absolute error"
        )
    return float(val), float(err)


@functools.lru_cache(maxsize=64)
def _bayes_mse_term(task: GaussianMixtureTask) -> tuple[float, float]:
    """E[hstar(Z)(1 - hstar(Z))], the irreducible part of the mse."""
    ell = logit(task.pi)

    def f(x: float) -> float:
        p = sigmoid(4.0 * x + ell)
        return p * (1.0 - p) * _density_x(task, x)

    return _quad(f, -X_WINDOW, X_WINDOW)


def _clipped_window(z_lo: float, z_hi: float) -> tuple[float, float]:
    return max(logit(z_lo), -X_WINDOW), min(logit(z_hi), X_WINDOW)


def _merge_by_value(values, masses, means):
    """Group bins with exactly equal output values; returns for each bin the
    conditional mean of Y given the merged level set, or None on zero mass."""
    groups: dict[float, list[int]] = {}
    for b, v in enumerate(values):
        groups.setdefault(v, []).append(b)
    level_mean = [None] * len(values)
    for v, members in groups.items():
        mass = sum(masses[b] for b in members)
        if mass <= 0.0:
            continue
        nu = sum(masses[b] * means[b] for b in members) / mass
        for b in members:
            level_mean[b] = nu
    return level_mean


def _piecewise_risk(task: GaussianMixtureTask, pw: PiecewiseRecalibrator) -> RiskReport:
    edges = pw.scheme.edges
    B = pw.scheme.B
    ell = logit(task.pi)
    masses = [interval_mass(task, edges[b], edges[b + 1]) for b in range(B)]
    means = [
        interval_mean(task, edges[b], edges[b + 1]) if masses[b] > 0.0 else 0.0
        for b in range(B)
    ]
    level_mean = _merge_by_value(pw.values, masses, means)

    r_cal = 0.0
    for b in range(B):
        if level_mean[b] is not None and masses[b] > 0.0:
            r_cal += masses[b] * (pw.values[b] - level_mean[b]) ** 2

    r_sha = 0.0
    r_tot = 0.0
    err_sum = 0.0
    for b in range(B):
        if masses[b] <= 0.0:
            continue
        x_lo, x_hi = _clipped_window(edges[b], edges[b + 1])
        v = pw.values[b]
        nu = level_mean[b]

        def f_sha(x: float) -> float:
            return (nu - sigmoid(4.0 * x + ell)) ** 2 * _density_x(task, x)

        def f_tot(x: float) -> float:
            return (v - sigmoid(4.0 * x + ell)) ** 2 * _density_x(task, x)

        s, e1 = _quad(f_sha, x_lo, x_hi)
        t, e2 = _quad(f_tot, x_lo, x_hi)
        r_sha += s
        r_tot += t
        err_sum += e1 + e2

    bayes, e3 = _bayes_mse_term(task)
    tolerance = max(err_sum + e3, 1e-14)
    return RiskReport(r_cal, r_sha, r_tot, r_tot + bayes, "quadrature", tolerance)


def _constant_risk(task: GaussianMixtureTask, c: float) -> RiskReport:
    ell = logit(task.pi)
    ey = task.pi  # E[Y], the conditional mean given the trivial sigma-algebra

    def f_sha(x: float) -> float:
        return (ey - sigmoid(4.0 * x + ell)) ** 2 * _density_x(task, x)

    def f_tot(x: float) -> float:
        return (c - sigmoid(4.0 * x + ell)) ** 2 * _density_x(task, x)

    r_cal = (c - ey) ** 2
    r_sha, e1 = _quad(f_sha, -X_WINDOW, X_WINDOW)
    r_tot, e2 = _quad(f_tot, -X_WINDOW, X_WINDOW)
    bayes, e3 = _bayes_mse_term(task)
    tolerance = max(e1 + e2 + e3, 1e-14)
    return RiskReport(r_cal, r_sha, r_tot, r_tot + bayes, "quadrature", tolerance)


def _injective_risk(task: GaussianMixtureTask, h: Recalibrator) -> RiskReport:
    ell = logit(task.pi)
    fn = h.fn if isinstance(h, MonotoneRecalibrator) else (lambda z: apply(h, z))

    def f(x: float) -> float:
        return (fn(sigmoid(x)) - sigmoid(4.0 * x + ell)) ** 2 * _density_x(task, x)

    r, e1 = _quad(f, -X_WINDOW, X_WINDOW)
    bayes, e2 = _bayes_mse_term(task)
    tolerance = max(e1 + e2, 1e-14)
    return RiskReport(r, 0.0, r, r + bayes, "quadrature", tolerance)


def population_risk(task: GaussianMixtureTask, h) -> RiskReport:
    """Exact population risks of a recalibrator under the task, by quadrature.

    Piecewise maps (including composites, through their flattened form)
    use per-bin integrals with closed-form bin masses and means; strictly
    increasing maps have zero sharpness risk by injectivity and need a
    single integral; the constant map conditions on nothing, so its
    conditional mean is E[Y]. Raises ``QuadratureFailureError`` if any
    integral cannot be resolved to within ``QUAD_TOL``.
    """
    if isinstance(h, Composite):
        return _piecewise_risk(task, h.flatten())
    if isinstance(h, PiecewiseRecalibrator):
        return _piecewise_risk(task, h)
    if isinstance(h, Constant):
        return _constant_risk(task, h.value)
    if isinstance(h, (ShiftCorrector, Identity, MonotoneRecalibrator)):
        return _injective_risk(task, h)
    raise TypeError(f"cannot evaluate risk of {type(h).__name__}")


def _mixture_quantiles(task: GaussianMixtureTask, t: np.ndarray) -> np.ndarray:
    """x-values with mixture CDF equal to t, by vectorized bisection."""
    lo = np.full(t.shape, -20.0)
    hi = np.full(t.shape, 20.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _mixture_cdf(task, mid) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def estimate_K(task: GaussianMixtureTask, grid_size: int) -> float:
    """Estimate the CDF-relative smoothness constant of the optimal map.

    K bounds hstar(z') - hstar(z) by K (F(z') - F(z)) with F the score
    CDF, so the estimator takes the largest difference quotient of hstar
    against F over adjacent score quantiles at levels j / grid_size, with
    the endpoints z = 0 and z = 1 included. Quantile spacing ties the
    grid's reach into the tails to its resolution: doubling grid_size
    refines the same partition, so the estimate is monotone nondecreasing
    under refinement, and for this task family it stabilizes quickly near
    the bulk supremum of the quotient.
    """
    G = int(grid_size)
    if G < 1000:
        raise ValueError("grid_size must be at least 1000")
    t = np.arange(1, G, dtype=np.float64) / G
    x = _mixture_quantiles(task, t)
    h = _sigmoid_array(4.0 * x + logit(task.pi))
    F = _mixture_cdf(task, x)
    h_full = np.concatenate(([0.0], h, [1.0]))
    f_full = np.concatenate(([0.0], F, [1.0]))
    quotients = np.diff(h_full) / np.diff(f_full)
    return float(np.max(quotients))


def empirical_risk_plugin(data: LabeledSample, h) -> RiskReport:
    """Plug-in risk estimates from data alone, no task oracle involved.

    Only piecewise maps (and composites, flattened) are supported. Bin
    masses and bin means are empirical frequencies, so when ``data`` is
    the sample the recalibrator was fitted on, the fitted values equal
    the bin means and the calibration risk is zero exactly: each level
    set's mean is pooled from integer label sums and counts, the same
    ratio the fit computed.

    The sharpness risk compares each bin's conditional mean against the
    optimal map at sub-bin resolution: every bin is sliced into
    ceil(sqrt(m)) equal-count runs of the sorted scores, each slice mean
    standing in for the optimal map there. The squared gaps carry an
    upward noise bias of Var(slice mean), so the unbiased binary-variance
    estimate mu(1-mu)/(m_s - 1) is subtracted per slice (clipped at zero
    overall). The same slice variances, with the matching m_s/(m_s - 1)
    correction, estimate the irreducible term that turns the total risk
    into the mse; both r_total and mse are assembled by addition so the
    report identities hold exactly.

    Cost: one stable argsort of the scores (tie order decides which slice
    a record lands in), then one ``np.add.reduceat`` of the sorted labels
    over the slices of every bin at once.
    """
    if isinstance(h, Composite):
        pw = h.flatten()
    elif isinstance(h, PiecewiseRecalibrator):
        pw = h
    else:
        raise TypeError("plug-in risks are defined for piecewise recalibrators")
    B = pw.scheme.B
    n = data.n
    order = np.argsort(data.z, kind="stable")
    # Bins are contiguous in sorted order; the boundary of bin b is the
    # first index strictly past edge u_b (right-closed bins).
    stops = np.searchsorted(data.z[order], pw.scheme.edges[1:-1], side="right")
    starts = np.concatenate(([0], stops))
    counts = np.diff(starts, append=n)
    if counts.min() == 0:
        empty = int(np.argmin(counts)) + 1
        raise EmptyBinError(f"bin {empty} of {B} received no evaluation points")

    # Slice j of bin b starts at sorted record starts[b] + floor(m j / k),
    # with m = counts[b] and k = ceil(sqrt(m)) slices; the float square
    # root is exact here, as any count is far below 2**52.
    k = np.ceil(np.sqrt(counts)).astype(np.int64)
    bin_of = np.repeat(np.arange(B), k)
    j = np.arange(bin_of.size) - np.repeat(np.cumsum(k) - k, k)
    m, kb = counts[bin_of], k[bin_of]
    offset = (m * j) // kb
    m_s = (m * (j + 1)) // kb - offset
    lo = starts[bin_of] + offset
    pos_s = np.add.reduceat(data.y[order], lo)
    pos = np.bincount(bin_of, weights=pos_s, minlength=B)

    values = np.asarray(pw.values)
    _, level = np.unique(values, return_inverse=True)
    level_mean = (np.bincount(level, weights=pos) / np.bincount(level, weights=counts))[level]
    r_cal = float(np.sum(counts / n * (values - level_mean) ** 2))

    mu_s = pos_s / m_s
    p_s = m_s / n
    # A one-record slice has mu_s (1 - mu_s) = 0; the clamp only avoids 0/0.
    var_hat = mu_s * (1.0 - mu_s) / np.maximum(m_s - 1, 1)
    r_sha = max(float(np.sum(p_s * (level_mean[bin_of] - mu_s) ** 2 - p_s * var_hat)), 0.0)
    bayes = float(np.sum(p_s * var_hat * m_s))
    r_tot = r_cal + r_sha
    return RiskReport(r_cal, r_sha, r_tot, r_tot + bayes, "monte_carlo", 1e-14)

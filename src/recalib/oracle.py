"""Analytic two-Gaussian simulation tasks and population risk evaluation.

The task family fixes the class-conditional score model X | Y=0 ~ N(-2, 1),
X | Y=1 ~ N(+2, 1) with the logistic link Z = sigmoid(X), and varies only
the positive-class prior pi. Under this family the posterior, the score
distribution, bin masses and bin means all have closed forms.

Risk conventions. For a recalibrator h and the optimal map
hstar(z) = E[Y | Z = z]:

    calibration risk  r_cal = E[(h(Z) - E[Y | h(Z)])^2]
    sharpness risk    r_sha = E[(E[Y | h(Z)] - hstar(Z))^2]
    total             r     = E[(h(Z) - hstar(Z))^2] = r_cal + r_sha
    mse               mse   = E[(h(Z) - Y)^2] = r + E[hstar(Z)(1 - hstar(Z))]

For piecewise-constant h the conditioning sigma-algebra is generated by
the bins, except that bins sharing the same output value are merged into
one level set, and each risk is closed-form arithmetic on the bin masses
and positive masses plus one cached task integral, E[hstar(Z)^2]. For
injective h the conditional mean E[Y | h(Z)] equals hstar(Z), so the
sharpness risk vanishes identically and the total risk is one quadrature.

Quadrature. Both integrals left, H = E[hstar(Z)^2] and the total risk of
an injective map, are taken in x = logit(z) over [-12, 12] (``X_WINDOW``)
by a nested composite trapezoid rule on numpy arrays (``_quad``). Their
integrands are Gaussian-weighted logistic terms, analytic in the strip
|Im x| < pi/4 (the nearest poles of sigmoid(4x + logit(pi))), and
negligible at the window's ends, and there the trapezoid rule converges
geometrically in the number of nodes (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 2014): a few
hundred nodes reach roundoff. The module needs ``scipy.special`` only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .core import (
    EmptyBinError,
    LabeledSample,
    PiecewiseRecalibrator,
    ShiftCorrector,
    ShiftWeights,
    _concurrently,
    _evaluate,
    _index,
    _piecewise,
    _probability,
    _score_array,
    _sorted_view,
    _tally,
)

__all__ = [
    "MU0",
    "MU1",
    "QuadratureFailureError",
    "GaussianMixtureTask",
    "RiskReport",
    "sigmoid",
    "logit",
    "posterior",
    "hstar",
    "exact_shift_weights",
    "sample",
    "population_risk",
    "estimate_K",
    "empirical_risk_plugin",
]

MU0 = -2.0
MU1 = 2.0
_MEANS = np.array([MU0, MU1])
_MEANS.flags.writeable = False
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Quadrature window in x-space. The mixture tail mass beyond |x| = 12 is
# below 1e-23 for any prior, far under the quadrature tolerance.
X_WINDOW = 12.0

# Largest achieved error a quadrature may report; beyond it _quad raises.
QUAD_TOL = 1e-10

# The trapezoid rule of _quad: its first grid, the error estimate at
# which it stops, and its cap on step halvings (the last grid has
# 240 * 2**12 = 983,040 intervals).
_QUAD_INTERVALS = 240
_QUAD_AGREE = 1e-13
_QUAD_HALVINGS = 12

# Elements per block of sample's in-place pass: 128 KiB of float64, so a
# block and its temporaries stay in a core's L2 cache.
_SAMPLE_BLOCK = 1 << 14


class QuadratureFailureError(RuntimeError):
    """The trapezoid rule did not settle within ``QUAD_TOL`` at its node cap."""


def sigmoid(x, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic map 1 / (1 + exp(-x)) over an array in one pass, and
    over a scalar as a one-element array: with e = exp(-|x|), the map is
    1 / (1 + e) for x >= 0 and e / (1 + e) below, both without overflow.

    The numerator is max(e, x >= 0): since 0 <= e <= 1, that is 1 where
    x >= 0 and e elsewhere, and a NaN in x stays NaN. It gives the same
    bits as selecting by the sign mask, without a branch per element.
    The tails follow the formula: relatively accurate down to x = -708.4,
    subnormal below that, and exactly 1.0 from x = 36.74.

    ``out`` may be x itself, for a map in place; the only other float
    buffer is e.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        return sigmoid(x[None])[0]
    e = np.abs(x)
    positive = x >= 0.0
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, positive, out=out)
    e += 1.0
    out /= e
    return out


def logit(z):
    """Inverse of ``sigmoid`` on [0, 1], with logit(0) = -inf and
    logit(1) = +inf; z may be a scalar or an array."""
    z = _score_array(z)
    with np.errstate(divide="ignore"):
        return np.log(z) - np.log1p(-z)


@dataclass(frozen=True)
class GaussianMixtureTask:
    """The simulation distribution with positive-class prior pi.

    Y ~ Bernoulli(pi), X | Y=k ~ N(mu_k, 1) with mu_0 = -2 and mu_1 = +2,
    and the score is Z = sigmoid(X). The model score is therefore
    systematically miscalibrated unless pi makes sigmoid a posterior.
    """

    pi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi", _probability(self.pi, "pi"))


@dataclass(frozen=True)
class RiskReport:
    """Population (or plug-in) risks of one recalibrator under one task.

    ``tolerance`` is the absolute numerical error budget of the report:
    the summed achieved errors of the quadratures the report uses (each
    the trapezoid rule's halving estimate, see ``_quad``), at least
    1e-14, or an accumulated-roundoff allowance on the plug-in path. The
    decomposition r_total = r_cal + r_sha holds within 10x that budget,
    and mse is never below r_total.
    """

    r_cal: float
    r_sha: float
    r_total: float
    mse: float
    tolerance: float

    def __post_init__(self) -> None:
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


def posterior(task: GaussianMixtureTask, x):
    """P[Y = 1 | X = x] = sigmoid(4x + logit(pi)), for a scalar or an array x.

    The unit-variance Gaussians give likelihood ratio
    phi(x - 2) / phi(x + 2) = exp(4x), so the posterior log-odds are
    linear in x with slope 4 and intercept logit(pi).
    """
    # The intercept stays libm's log, not numpy's: the two differ in the last
    # bit for about 6% of priors, and estimate_K is pinned bit for bit to a
    # reference that takes libm's logit of pi.
    ell = math.log(task.pi) - math.log1p(-task.pi)
    return sigmoid(4.0 * np.asarray(x, dtype=np.float64) + ell)


def hstar(task: GaussianMixtureTask, z):
    """The optimal recalibration map E[Y | Z = z] = posterior(logit(z)), for
    a scalar or an array z.

    The endpoints take the limiting values hstar(0) = 0 and hstar(1) = 1.
    """
    return posterior(task, logit(z))


def exact_shift_weights(pi_source: float, pi_target: float) -> ShiftWeights:
    """Population importance weights w_k = Q[Y = k] / P[Y = k] between priors."""
    pi_source, pi_target = (_probability(pi_source, "pi_source"),
                            _probability(pi_target, "pi_target"))
    return ShiftWeights(
        w=((1.0 - pi_target) / (1.0 - pi_source), pi_target / pi_source),
        provenance="exact",
    )


def sample(task: GaussianMixtureTask, n: int, seed) -> LabeledSample:
    """n independent draws (z_i, y_i) from the task.

    ``seed`` is an int, a non-empty sequence of ints (a list or tuple) or
    a numpy SeedSequence, and feeds a PCG64 stream. Each int is read by
    the size rule with floor 0; None or a bool raises TypeError, and an
    empty sequence ValueError, as numpy would read it as seed 0. Each
    ``simulate`` cell draws ``sample(task, n, (base_seed, tag, *cell
    fields))``. numpy drops trailing zeros within the entropy's first four
    words, so ``(5, 0)`` draws what ``5`` draws: each study keys its cells
    by tuples of one length, with its own tag in word 1. The draw order is
    fixed: n uniforms decide the labels, then n uniforms map through the
    inverse normal CDF to x, then z = sigmoid(x). The same seed gives the
    same bits with the same numpy and scipy build on the same CPU
    features: numpy's float64 ``exp`` picks a SIMD kernel at run time, and
    on x86 its AVX-512 kernel differs from libm's ``exp`` in the last bit
    on some inputs.

    Both uniform streams go through one float64 buffer, which becomes the
    sample's z: the labels are read off the first stream before the
    second, drawn in one call, overwrites it. Each half (the first a whole
    number of blocks) is then mapped block by block, in place: ``ndtri``,
    the label means (a two-entry table; addition commutes, so the bits are
    those of mean + ndtri(u)) and the logistic map. From 2**17 points on
    two or more CPUs ``core._concurrently``'s helper thread maps the first
    half while the caller maps the second, with the bits of a serial map.
    A block's passes stay in cache and its temporaries are block-sized, so
    besides the labels the draw holds one n-sized float array. The labels
    are int8, one byte each, written as booleans into a buffer the draw
    owns. Both arrays pass to ``LabeledSample`` without a copy.

    Cost: 35-50 ms at n = 1e6 on one core of a 2-vCPU Xeon VM, depending
    on its clock phase, of which ``ndtri`` takes 18-23 ms; that is the
    floor the fixed stream leaves, as a faster normal sampler would change
    the bits. Two cores take about 30 ms. A draw at n = 1e7 raises peak
    resident memory by about 86 MiB, the nine bytes per point of the two
    arrays it returns (162 MiB with int64 labels).
    """
    n = _index(n, "n")
    if not isinstance(seed, np.random.SeedSequence):
        entropy = seed if isinstance(seed, (list, tuple)) else (seed,)
        if not entropy:
            raise ValueError("seed must hold at least one int, got an empty sequence")
        seed = np.random.SeedSequence(tuple(_index(v, "seed", least=0) for v in entropy))
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.random(out=np.empty(n))
    y = np.empty(n, np.int8)
    np.less(x, task.pi, out=y.view(np.bool_))
    rng.random(out=x)
    mid = n // 2 // _SAMPLE_BLOCK * _SAMPLE_BLOCK

    def mapped(start, stop):
        for i in range(start, stop, _SAMPLE_BLOCK):
            block = x[i:i + _SAMPLE_BLOCK]  # mid is a multiple of the block
            ndtri(block, out=block)
            block += _MEANS.take(y[i:i + _SAMPLE_BLOCK])
            sigmoid(block, out=block)

    _concurrently(lambda: mapped(0, mid), lambda: mapped(mid, n), n)
    return LabeledSample._adopt(x, y)


def _mixture_cdf(task: GaussianMixtureTask, x) -> np.ndarray:
    return task.pi * ndtr(x - MU1) + (1.0 - task.pi) * ndtr(x - MU0)


def _mixture_density(task: GaussianMixtureTask, x: np.ndarray) -> np.ndarray:
    return (task.pi * np.exp(-0.5 * (x - MU1) ** 2)
            + (1.0 - task.pi) * np.exp(-0.5 * (x - MU0) ** 2)) / _SQRT_2PI


def _bin_moments(task: GaussianMixtureTask, edges) -> tuple[np.ndarray, np.ndarray]:
    """Masses P[Z in bin] and positive masses P[Z in bin, Y = 1] of the bins
    (edges[b], edges[b + 1]], through the component CDFs in x-space."""
    d1, d0 = np.diff(ndtr(logit(edges) - np.array([[MU1], [MU0]])), axis=1)
    pos = task.pi * d1
    return pos + (1.0 - task.pi) * d0, pos


def _quad(f: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
    """Nested composite trapezoid rule for f over the oracle's one window,
    [-X_WINDOW, X_WINDOW]; returns (value, abserr).

    f takes a float64 array of nodes and returns its values there. The
    rule starts on 240 equal intervals; each refinement halves the step,
    so it reuses every earlier node and evaluates f only at the new
    midpoints. abserr is the larger of the last two differences between
    successive sums (after the first halving, the one difference). The
    rule stops once abserr is at most 1e-13, or after 12 halvings
    (983,041 nodes in all).

    For the oracle's integrands, analytic in a strip around the real
    axis and negligible at the window's ends, the error falls
    geometrically with the node count, so the finer sum is far more
    accurate than the difference: the first halving settles it, 481
    nodes in all. A kink in the integrand leaves an error of order h^2
    whose constant depends on where the kink falls in the grid, so one
    difference can vanish by chance while the error does not; two in a
    row bound it (the error was at most a third of abserr for 5,000
    random kinks of a Gaussian-weighted ramp). Raises
    ``QuadratureFailureError`` if abserr ends above ``QUAD_TOL`` or is not
    finite.
    """
    n = _QUAD_INTERVALS
    step = 2.0 * X_WINDOW / n
    y = f(np.linspace(-X_WINDOW, X_WINDOW, n + 1))
    total = step * (float(np.sum(y)) - 0.5 * float(y[0] + y[-1]))
    prev = 0.0
    for _ in range(_QUAD_HALVINGS):
        step *= 0.5
        new = 0.5 * total + step * float(np.sum(f(-X_WINDOW + step * np.arange(1, 2 * n, 2))))
        diff = abs(new - total)
        err = max(diff, prev)  # a NaN diff stays NaN
        total, n, prev = new, 2 * n, diff
        if not err > _QUAD_AGREE:  # also stops on a NaN, which fails below
            break
    if not err <= QUAD_TOL:
        raise QuadratureFailureError(
            f"quadrature on [{-X_WINDOW:.3f}, {X_WINDOW:.3f}] achieved only {err:.2e} absolute error"
        )
    return total, err


@functools.lru_cache(maxsize=64)
def _hstar_sq_moment(task: GaussianMixtureTask) -> tuple[float, float]:
    """H = E[hstar(Z)^2]; the irreducible mse term E[hstar (1 - hstar)] is pi - H."""
    return _quad(lambda x: posterior(task, x) ** 2 * _mixture_density(task, x))


def _level_means(values: np.ndarray, pos, mass) -> np.ndarray:
    """Per bin, the mean of Y over its level set: bins with exactly equal
    values pool their positive mass and mass. A level set of zero mass
    gets 0, which leaves every risk term it enters at zero."""
    _, level = np.unique(values, return_inverse=True)
    pos_l = np.bincount(level, weights=pos)
    mass_l = np.bincount(level, weights=mass)
    nu = np.divide(pos_l, mass_l, out=np.zeros_like(pos_l), where=mass_l > 0.0)
    return nu[level]


def _piecewise_risk(task: GaussianMixtureTask, pw: PiecewiseRecalibrator) -> RiskReport:
    mass, pos = _bin_moments(task, pw.scheme.edge_array)
    v = pw.value_array
    nu = _level_means(v, pos, mass)
    H, err = _hstar_sq_moment(task)
    r_tot = H + float(np.sum(v * (v * mass - 2.0 * pos)))
    r_sha = H + float(np.sum(nu * (nu * mass - 2.0 * pos)))
    r_cal = float(np.sum(mass * (v - nu) ** 2))
    return RiskReport(r_cal, r_sha, r_tot, r_tot + (task.pi - H), max(err, 1e-14))


def _injective_risk(task: GaussianMixtureTask,
                    fn: Callable[[np.ndarray], np.ndarray]) -> RiskReport:
    def f(x: np.ndarray) -> np.ndarray:
        z = sigmoid(x)
        hz = fn(z)
        if np.shape(hz) != z.shape:
            raise TypeError(f"the map gave shape {np.shape(hz)} for nodes of shape {z.shape}: "
                            "it must map the node array")
        return (hz - posterior(task, x)) ** 2 * _mixture_density(task, x)

    r, e1 = _quad(f)
    H, e2 = _hstar_sq_moment(task)
    return RiskReport(r, 0.0, r, r + (task.pi - H), max(e1 + e2, 1e-14))


def population_risk(task: GaussianMixtureTask, h) -> RiskReport:
    """Exact population risks of a recalibrator or analytic map under the task.

    Piecewise maps (including composites, through their flattened form)
    take bin masses m_b, positive masses a_b = P[Z in bin b, Y = 1] and
    the cached task constant H = E[hstar(Z)^2]. As the integral of
    (c - hstar)^2 over a bin is c (c m_b - 2 a_b) plus that bin's share
    of H, r_total = H + sum_b v_b (v_b m_b - 2 a_b), r_sha is the same
    with the level-set means nu_b in place of the values v_b,
    r_cal = sum_b m_b (v_b - nu_b)^2 and mse = r_total + pi - H. Strictly
    increasing maps have zero sharpness risk by injectivity and need a
    single integral. A constant map is the one-bin piecewise map, whose
    conditional mean is E[Y], and the raw score's risk is that of
    ``lambda z: z``.

    An analytic map is a plain callable from the float64 score array to
    an array of its shape, such as ``lambda z: apply_batch(c, hstar(task,
    z))``; it must map [0, 1] strictly increasingly into [0, 1], as
    injectivity is what makes the sharpness risk vanish. It is called once
    per node array, as is ``_evaluate`` for a shift map (bit for bit what
    ``apply`` gives), and a result not of the nodes' shape raises
    ``TypeError``, as does anything that is neither a map nor callable.

    H and the injective-map integral are taken by ``_quad``'s trapezoid
    rule in x = logit(z). For smooth maps this takes 481 nodes and lands
    within about 1e-16 of 40-digit references; a map with a kink needs up
    to 983,041 nodes, and the report's ``tolerance`` then carries the
    halving error estimate. Raises ``QuadratureFailureError`` if that
    estimate stays above ``QUAD_TOL``.
    """
    if (pw := _piecewise(h)) is not None:
        return _piecewise_risk(task, pw)
    if isinstance(h, ShiftCorrector):
        h = functools.partial(_evaluate, h)
    if not callable(h):
        raise TypeError(f"cannot evaluate risk of {type(h).__name__}")
    return _injective_risk(task, h)


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


def _approx_mixture_quantiles(task: GaussianMixtureTask, t: np.ndarray) -> np.ndarray:
    """x-values with mixture CDF close to t: linear interpolation in a
    2**15 + 1-point CDF table on [-20, 20], then one Newton step kept
    inside the bisection bracket.

    The table's step is 40 / 2**15, so interpolation lands close enough
    for one step, whose error is quadratic in the distance, to reach the
    roundoff floor of the CDF near 1: against the 60-step bisection, for
    priors 1e-4 to 0.9999 and grid sizes 1000 to 3e5, the largest error
    measured 9.5e-12. The table costs 2**15 CDF evaluations, fewer than a
    second step at the 1e5 levels the studies and the CLI ask for.
    """
    table = np.linspace(-20.0, 20.0, (1 << 15) + 1)
    x = np.interp(t, _mixture_cdf(task, table), table)
    x -= (_mixture_cdf(task, x) - t) / _mixture_density(task, x)
    return np.clip(x, -20.0, 20.0, out=x)


# Relative margin below the largest approximate quotient within which
# estimate_K recomputes quotients exactly.
_K_MARGIN = 1e-6


def estimate_K(task: GaussianMixtureTask, grid_size: int = 100_000) -> float:
    """Estimate the CDF-relative smoothness constant of the optimal map.

    K bounds hstar(z') - hstar(z) by K (F(z') - F(z)) with F the score
    CDF, so the estimator takes the largest difference quotient of hstar
    against F over adjacent score quantiles at levels j / grid_size, with
    the endpoints z = 0 and z = 1 included. Quantile spacing ties the
    grid's reach into the tails to its resolution: doubling grid_size
    refines the same partition, so the estimate is monotone nondecreasing
    under refinement, and for this task family it stabilizes quickly near
    the bulk supremum of the quotient.

    The result is bit for bit the maximum over quantiles found by a
    60-step bisection of the mixture CDF on [-20, 20] at every level; the
    frozen K constants of the tests and the bytes of ``simulate opt-b``
    (which records K and the B* it chooses) depend on that. Bisecting all
    grid_size - 1 levels costs 60 CDF evaluations per level, so the
    levels are first located approximately (interpolation in a 2**15 +
    1-point CDF table, then one Newton step: within 9.5e-12 of the bisected
    quantiles), with each level standing in for the CDF at its quantile.
    Only the quotients within a relative 1e-6 of the approximate maximum
    are recomputed from bisected endpoints, a handful of levels. At
    grid_size = 1e5 this takes about 0.01 s instead of 0.3 s (2-vCPU
    machine), and each (task, grid_size) is computed once per process.
    """
    return _estimate_K(task, _index(grid_size, "grid_size", least=1000))


@functools.lru_cache(maxsize=64)
def _estimate_K(task: GaussianMixtureTask, G: int) -> float:
    t = np.arange(1, G, dtype=np.float64) / G
    # The curve (F, hstar) at the levels' quantiles, padded with the score
    # range's ends (0, 0) and (1, 1). At the approximate quantiles the
    # levels themselves stand in for F.
    F = np.concatenate(([0.0], t, [1.0]))
    h = np.concatenate(([0.0], posterior(task, _approx_mixture_quantiles(task, t)), [1.0]))
    q = np.diff(h) / np.diff(F)
    # A quotient is the slope of a secant of the curve u -> hstar(F^-1(u));
    # moving one endpoint by eps along that curve moves the slope by about
    # eps |dq/du| / 2, where dq/du is how fast the local slope changes. The
    # Newton quantiles sit within roundoff of the bisected ones, and F at
    # the bisected ones within 1e-10 / G of the levels, so that shift is
    # orders of magnitude below the margin (at most 1.6e-10 of the
    # maximum, measured for priors 1e-4 to 0.9999 and grids up to 3e5),
    # and the true maximum is among the candidates. A NaN maximum makes
    # every index a candidate, which falls back to bisecting the whole
    # grid.
    cand = np.flatnonzero(~(q < (1.0 - _K_MARGIN) * np.max(q)))
    # Quotient i spans points i and i + 1 of the padded curve, whose
    # interior point j lies at level t[j - 1].
    ends = np.union1d(cand, cand + 1)
    ends = ends[(ends > 0) & (ends < G)]
    x = _mixture_quantiles(task, t[ends - 1])
    F[ends], h[ends] = _mixture_cdf(task, x), posterior(task, x)
    return float(np.max((h[cand + 1] - h[cand]) / (F[cand + 1] - F[cand])))


def empirical_risk_plugin(data: LabeledSample, h) -> RiskReport:
    """Plug-in risk estimates from data alone, no task oracle involved.

    Only piecewise maps (and composites, flattened) are supported. Bin
    masses and bin means are empirical frequencies, so when ``data`` is
    the sample the recalibrator was fitted on, the fitted values equal
    the bin means and the calibration risk is zero exactly: each level
    set's mean is pooled from integer label sums and counts, the same
    ratio the fit computed.

    The sharpness risk compares each bin's conditional mean against the
    optimal map at sub-bin resolution: a bin of m records is cut into
    k = ceil(sqrt(m)) slices, each slice mean standing in for the optimal
    map there. A slice is read like a bin, as a right-closed run of the
    sorted scores ending at the bin's score of rank floor(m (j + 1) / k)
    for slice j. Tied scores share one slice and a slice that an earlier
    one swallows whole is dropped, so the report does not depend on the
    order of the records; distinct scores give equal-count slices. The
    squared gaps carry an upward noise bias of Var(slice mean), so the
    unbiased binary-variance estimate mu(1-mu)/(m_s - 1) is subtracted per
    slice (clipped at zero overall). The same slice variances, with the
    matching m_s/(m_s - 1) correction, estimate the irreducible term that
    turns the total risk into the mse; both r_total and mse are assembled
    by addition so the report identities hold exactly.

    Cost: the sample's ``_sorted_view`` (two sorts, freed on return), then
    ``core._tally``'s binary searches: O(B log n) for each bin's count and
    positives and O(S log n) for the S slices, on any sample.
    """
    if (pw := _piecewise(h)) is None:
        raise TypeError("plug-in risks are defined for piecewise recalibrators")
    B = pw.scheme.B
    n = data.n
    zs, zs_pos = _sorted_view(data)
    # Bins are contiguous in sorted order; bin b starts at sorted record starts[b].
    counts = _tally(zs, pw.scheme.edge_array[1:])
    starts = np.cumsum(counts) - counts
    if counts.min() == 0:
        empty = int(np.argmin(counts)) + 1
        raise EmptyBinError(f"bin {empty} of {B} received no evaluation points")

    # Slice j of bin b ends at sorted record starts[b] + floor(m (j + 1) / k) - 1,
    # with m = counts[b] and k = ceil(sqrt(m)) slices; the float square
    # root is exact here, as any count is far below 2**52.
    k = np.ceil(np.sqrt(counts)).astype(np.int64)
    bin_of = np.repeat(np.arange(B), k)
    j = np.arange(bin_of.size) - np.repeat(np.cumsum(k) - k, k)
    upper = zs[starts[bin_of] + (counts[bin_of] * (j + 1)) // k[bin_of] - 1]
    m_s, pos_s = _tally(zs, upper), _tally(zs_pos, upper)
    kept = m_s > 0
    bin_of, m_s, pos_s = bin_of[kept], m_s[kept], pos_s[kept]
    pos = _tally(zs_pos, pw.scheme.edge_array[1:])

    values = pw.value_array
    level_mean = _level_means(values, pos, counts)
    r_cal = float(np.sum(counts / n * (values - level_mean) ** 2))

    mu_s = pos_s / m_s
    p_s = m_s / n
    # A one-record slice has mu_s (1 - mu_s) = 0; the clamp only avoids 0/0.
    var_hat = mu_s * (1.0 - mu_s) / np.maximum(m_s - 1, 1)
    r_sha = max(float(np.sum(p_s * (level_mean[bin_of] - mu_s) ** 2 - p_s * var_hat)), 0.0)
    bayes = float(np.sum(p_s * var_hat * m_s))
    r_tot = r_cal + r_sha
    return RiskReport(r_cal, r_sha, r_tot, r_tot + bayes, 1e-14)

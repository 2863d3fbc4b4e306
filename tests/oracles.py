"""Independent reference implementations used to freeze test constants.

Nothing here imports recalib. Bound formulas are recomputed with mpmath
at 40 decimal digits, Gaussian-mixture population quantities by mpmath
quadrature over the real line, and the fit oracle by a sort-and-slice
pass that never touches searchsorted. ``bincount_fit_ref`` and
``plugin_loop_ref`` keep earlier, loop-based implementations of the fit
and of the plug-in risk as references for their vectorised successors,
``piecewise_quad_ref`` the earlier per-bin scipy quadrature of
piecewise population risks as a reference for their closed form, and
``optimal_bins_scan_ref`` the earlier exhaustive bin-count scan as a
reference for its bounded search, ``sigmoid_array_masked_ref`` the
earlier two-mask logistic map as a reference for its one-pass form, and
``estimate_K_bisect_ref`` and ``plugin_argsort_ref`` the earlier
full-grid bisection of the smoothness estimate and the argsort plug-in
risk as bitwise references for their faster successors, and
``bin_indices_searchsorted_ref`` the earlier binary-search bin lookup
as the bitwise reference for its grid-table successor, and
``sample_where_ref`` the earlier masked-select sampler as the bitwise
reference for the oracle's table-read sampler. ``hstar_sq_ref`` and
``injective_risk_ref`` check the oracle's trapezoid quadrature.
``read_columns_rowwise_ref`` keeps the CLI's earlier row-by-row CSV
reader as the reference for its column-wise successor, and
``risk_grid_csv_ref``, ``label_shift_csv_ref`` and ``opt_b_csv_ref``
the study CSVs' earlier line-building loops as the bytewise references
for their rows written through ``fileio.write_csv``.
Running this file as a script
prints every frozen constant used in the test suite; the literals in
the tests were pasted from that output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
import sys

import click
import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import ndtr, ndtri

mp.mp.dps = 40


# ---------------------------------------------------------------- bounds

def cal_bound_ref(n: int, B: int, delta: float) -> mp.mpf:
    """(sqrt(log(4B/delta) / (2(m-1))) + 1/m)^2 with m = floor(n/B)."""
    m = n // B
    eps = mp.sqrt(mp.log(4 * B / mp.mpf(delta)) / (2 * (m - 1))) + mp.mpf(1) / m
    return eps ** 2


def zeta_ref(B: int, n: int, delta: float, K: float) -> mp.mpf:
    return (4 * mp.mpf(B) / n) * mp.log(4 * B / mp.mpf(delta)) + 8 * mp.mpf(K) ** 2 / B ** 2


def optimal_bins_scan_ref(n: int, delta: float, K: float,
                          B_max: int | None = None) -> tuple[int, float]:
    """The exhaustive float64 scan of the bin-count objective over
    B in [2, min(floor(n / 2), B_max)], first minimum on ties: the
    earlier ``optimal_bins``, kept as the reference for its bounded search."""
    top = n // 2 if B_max is None else min(n // 2, B_max)
    Bs = np.arange(2, top + 1, dtype=np.float64)
    vals = (4.0 * Bs / n) * np.log(4.0 * Bs / delta) + 8.0 * K * K / (Bs * Bs)
    i = int(np.argmin(vals))
    return int(Bs[i]), float(vals[i])


def gate_threshold_ref(B: int, delta: float, c: float) -> mp.mpf:
    return mp.mpf(c) * B * mp.log(2 * B / mp.mpf(delta))


def chernoff_ref(p_min: float, beta: float, delta: float) -> int:
    raw = 27 / ((mp.mpf(beta) - 1) ** 2 * mp.mpf(p_min)) * mp.log(8 / mp.mpf(delta))
    return int(mp.ceil(raw))


def shift_apriori_ref(n_P: int, n_Q: int, B: int, delta: float, K: float,
                      p_min: float, q_min: float, w_min: float, w_max: float) -> mp.mpf:
    delta = mp.mpf(delta)
    m = n_P // B
    cal = (mp.sqrt(mp.log(8 * B / delta) / (2 * (m - 1))) + mp.mpf(1) / m) ** 2
    sha = 8 * mp.mpf(K) ** 2 / B ** 2
    scale = 2 * mp.mpf(w_max) ** 3 / mp.mpf(w_min) ** 2
    tail = 54 * max(1 / (mp.mpf(p_min) * n_P), 1 / (mp.mpf(q_min) * n_Q)) * mp.log(16 / delta)
    return scale * (cal + sha) + tail


def shift_gates_ref(n_P: int, n_Q: int, B: int, delta: float,
                    p_min: float, q_min: float, c: float) -> tuple[bool, bool]:
    delta = mp.mpf(delta)
    thresh_P = max(mp.mpf(c), 27 / mp.mpf(p_min)) * B * mp.log(4 * B / delta)
    thresh_Q = (27 / mp.mpf(q_min)) * mp.log(16 / delta)
    return n_P >= thresh_P, n_Q >= thresh_Q


# -------------------------------------------------- Gaussian mixture task

def _phi(x):
    return mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)


def density_ref(pi, x):
    pi = mp.mpf(pi)
    return pi * _phi(x - 2) + (1 - pi) * _phi(x + 2)


def posterior_ref(pi, x):
    pi = mp.mpf(pi)
    num = pi * _phi(x - 2)
    return num / (num + (1 - pi) * _phi(x + 2))


def mix_cdf_ref(pi, x):
    pi = mp.mpf(pi)
    return pi * mp.ncdf(x - 2) + (1 - pi) * mp.ncdf(x + 2)


def _logit(z):
    z = mp.mpf(z)
    if z == 0:
        return mp.mpf("-inf")
    if z == 1:
        return mp.mpf("+inf")
    return mp.log(z / (1 - z))


def interval_mass_ref(pi, z_lo, z_hi):
    return mix_cdf_ref(pi, _logit(z_hi)) - mix_cdf_ref(pi, _logit(z_lo))


def interval_mean_ref(pi, z_lo, z_hi):
    pi = mp.mpf(pi)
    hits = pi * (mp.ncdf(_logit(z_hi) - 2) - mp.ncdf(_logit(z_lo) - 2))
    return hits / interval_mass_ref(pi, z_lo, z_hi)


def _expect(pi, f):
    """E[f(X)] under the mixture, by quadrature over the whole line."""
    return mp.quad(lambda x: f(x) * density_ref(pi, x), [-mp.inf, -2, 0, 2, mp.inf])


def mean_z_ref(pi):
    return _expect(pi, lambda x: 1 / (1 + mp.exp(-x)))


def bayes_term_ref(pi):
    """E[h*(Z) (1 - h*(Z))], the irreducible part of the MSE."""
    return _expect(pi, lambda x: posterior_ref(pi, x) * (1 - posterior_ref(pi, x)))


def var_hstar_ref(pi):
    """Var(h*(Z)) = Var(E[Y | Z]), the sharpness lost by a constant map."""
    pi = mp.mpf(pi)
    return _expect(pi, lambda x: (posterior_ref(pi, x) - pi) ** 2)


def hstar_sq_ref(pi):
    """H = E[h*(Z)^2], the task integral behind every population risk."""
    return _expect(pi, lambda x: posterior_ref(pi, x) ** 2)


def injective_risk_ref(pi, fn, kinks=()):
    """E[(fn(Z) - h*(Z))^2] for an injective map fn, written in mpmath.

    The quadrature splits the line at the mixture modes and at the
    x-positions ``kinks`` where fn is not smooth.
    """
    points = sorted({mp.mpf(-2), mp.mpf(0), mp.mpf(2), *map(mp.mpf, kinks)})
    return mp.quad(lambda x: (fn(1 / (1 + mp.exp(-x))) - posterior_ref(pi, x)) ** 2
                   * density_ref(pi, x), [-mp.inf, *points, mp.inf])


def shift_map_ref(pi_source: float, pi_target: float):
    """The exact label-shift corrector z -> w1 z / (w1 z + w0 (1 - z)),
    with the float64 weights that the library computes."""
    w0, w1 = (1.0 - pi_target) / (1.0 - pi_source), pi_target / pi_source
    return lambda z: w1 * z / (w1 * z + w0 * (1 - z))


def kinked_map(z):
    """A strictly increasing map of [0, 1] with a kink at z = 1/3, that is
    at x = -log 2; it works on floats and on mpmath numbers."""
    return min(2 * z, (1 + z) / 2)


def k_bulk_ref():
    """sup over x of posterior'(x) / density(x) for the balanced task.

    Both the posterior slope and the mixture density are symmetric about
    x = 0 and their ratio is maximized there (over the bulk; the ratio
    grows again only at tail quantiles beyond any grid of size < 1e13),
    giving sigma'(0) * 4 / density(0) = 1 / phi(2).
    """
    return 1 / _phi(mp.mpf(2))


def piecewise_risk_ref(pi, edges, values):
    """Quadrature risks for a piecewise map, all in mpmath.

    Bins with exactly equal values are merged before conditioning. The
    return is (r_cal, r_sha, r_total, mse).
    """
    pi = mp.mpf(pi)
    B = len(values)
    masses = [interval_mass_ref(pi, edges[b], edges[b + 1]) for b in range(B)]
    hits = [mp.mpf(pi) * (mp.ncdf(_logit(edges[b + 1]) - 2) - mp.ncdf(_logit(edges[b]) - 2))
            for b in range(B)]
    level: dict[float, int] = {}
    group_mass: list[mp.mpf] = []
    group_hits: list[mp.mpf] = []
    for b in range(B):
        key = float(values[b])
        if key not in level:
            level[key] = len(group_mass)
            group_mass.append(mp.mpf(0))
            group_hits.append(mp.mpf(0))
        g = level[key]
        group_mass[g] += masses[b]
        group_hits[g] += hits[b]
    r_cal = mp.mpf(0)
    for key, g in level.items():
        if group_mass[g] > 0:
            nu = group_hits[g] / group_mass[g]
            r_cal += group_mass[g] * (mp.mpf(key) - nu) ** 2
    r_sha = mp.mpf(0)
    r_tot = mp.mpf(0)
    for b in range(B):
        g = level[float(values[b])]
        if group_mass[g] > 0:
            nu = group_hits[g] / group_mass[g]
        else:
            nu = pi
        lo, hi = _logit(edges[b]), _logit(edges[b + 1])
        lo = max(lo, mp.mpf(-12))
        hi = min(hi, mp.mpf(12))
        if lo < hi:
            r_sha += mp.quad(
                lambda x, nu=nu: (nu - posterior_ref(pi, x)) ** 2 * density_ref(pi, x),
                [lo, hi])
            r_tot += mp.quad(
                lambda x, v=mp.mpf(float(values[b])): (v - posterior_ref(pi, x)) ** 2
                * density_ref(pi, x),
                [lo, hi])
    return r_cal, r_sha, r_tot, r_tot + bayes_term_ref(pi)


def mix_quantile_ref(pi, t):
    """The x with mixture CDF equal to t: bisection, then Newton polish."""
    t = mp.mpf(t)
    lo, hi = mp.mpf(-40), mp.mpf(40)
    for _ in range(60):
        mid = (lo + hi) / 2
        if mix_cdf_ref(pi, mid) < t:
            lo = mid
        else:
            hi = mid
    return mp.findroot(lambda x: mix_cdf_ref(pi, x) - t, (lo + hi) / 2,
                       df=lambda x: density_ref(pi, x), solver="newton")


def quantile_sha_ref(pi, B: int):
    """Sharpness risk of B bins cut at the population score quantiles.

    This is the noise-free counterpart of a uniform-mass fit: the edges
    sit at exact mixture quantiles j / B, every bin has its own value (no
    level-set merging), and each bin conditions on its own mean of the
    optimal map, so only the binning itself costs sharpness.
    """
    pi = mp.mpf(pi)
    xs = [mp.ninf] + [mix_quantile_ref(pi, mp.mpf(b) / B) for b in range(1, B)] + [mp.inf]
    r_sha = mp.mpf(0)
    for lo, hi in zip(xs[:-1], xs[1:]):
        mass = mix_cdf_ref(pi, hi) - mix_cdf_ref(pi, lo)
        nu = pi * (mp.ncdf(hi - 2) - mp.ncdf(lo - 2)) / mass
        r_sha += mp.quad(lambda x: (nu - posterior_ref(pi, x)) ** 2 * density_ref(pi, x),
                         [lo, hi])
    return r_sha


def loglog_slope_ref(xs, ys):
    """Least-squares slope of log y on log x."""
    lx = [mp.log(x) for x in xs]
    ly = [mp.log(y) for y in ys]
    mx = mp.fsum(lx) / len(lx)
    my = mp.fsum(ly) / len(ly)
    sxy = mp.fsum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return sxy / mp.fsum((a - mx) ** 2 for a in lx)


# ------------------------------------------------------- fit brute force

def sort_slice_fit(z, y, B: int):
    """Sort the sample by score and slice at floor(n b / B).

    Returns (edges, values, counts) for distinct scores; this is the
    definitional route with no interval-membership step at all, so any
    agreement with the searchsorted implementation is informative.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y)
    order = np.argsort(z, kind="stable")
    zs, ys = z[order], y[order]
    n = z.size
    cuts = [0] + [(n * b) // B for b in range(1, B)] + [n]
    edges = [0.0] + [float(zs[c - 1]) for c in cuts[1:-1]] + [1.0]
    values = []
    counts = []
    for b in range(B):
        chunk = ys[cuts[b]:cuts[b + 1]]
        counts.append(int(chunk.size))
        values.append(float(chunk.sum()) / chunk.size)
    return tuple(edges), tuple(values), tuple(counts)


def bincount_fit_ref(z, y, B: int):
    """The fit by per-point bin lookup: sort for the edges, then bin the
    unsorted scores with searchsorted and total them with two bincounts.

    Returns (edges, values, counts) without any degeneracy check, so
    coincident edges show as repeated entries and an empty bin as a zero
    count with a NaN value.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.size
    zs = np.sort(z)
    cut = (n * np.arange(1, B)) // B
    edges = np.concatenate(([0.0], zs[cut - 1], [1.0]))
    idx = np.maximum(np.searchsorted(edges, z, side="left"), 1) - 1
    counts = np.bincount(idx, minlength=B)
    sums = np.bincount(idx, weights=np.asarray(y, dtype=np.float64), minlength=B)
    with np.errstate(invalid="ignore"):
        values = sums / counts
    return tuple(edges.tolist()), tuple(values.tolist()), tuple(counts.tolist())


def bin_indices_searchsorted_ref(edges, z):
    """1-based bins of scores z (an array or a ``np.float64``) under
    right-closed bins with z = 0 in bin 1, by binary search: the earlier
    ``core._bin_indices``, kept as the bitwise reference for its grid
    lookup."""
    return np.maximum(np.asarray(edges, dtype=np.float64).searchsorted(z, side="left"), 1)


def _merge_by_value_ref(values, masses, means):
    """Per bin, the mass-weighted mean over the bins sharing its value;
    None where that level set has zero mass."""
    groups = {}
    for b, v in enumerate(values):
        groups.setdefault(v, []).append(b)
    level_mean = [None] * len(values)
    for members in groups.values():
        mass = sum(masses[b] for b in members)
        if mass <= 0.0:
            continue
        nu = sum(masses[b] * means[b] for b in members) / mass
        for b in members:
            level_mean[b] = nu
    return level_mean


def _logit_float(z: float) -> float:
    if z == 0.0:
        return -math.inf
    if z == 1.0:
        return math.inf
    return math.log(z) - math.log1p(-z)


def _sigmoid_float(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def sigmoid_array_masked_ref(x: np.ndarray) -> np.ndarray:
    """The logistic map over an array, one branch per sign mask, saturated
    to exactly 0 and 1 for |x| > 36."""
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    out[x > 36.0] = 1.0
    out[x < -36.0] = 0.0
    return out


def sample_where_ref(pi: float, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """(z, y) of n draws from the two-Gaussian task with prior pi: the
    earlier ``oracle.sample``, which picks each mean (+-2) by a label mask
    and maps x to z by ``sigmoid_array_masked_ref``. Same PCG64 stream and
    draw order: n uniforms for the labels, then n for the normals."""
    rng = np.random.Generator(np.random.PCG64(seed))
    y = (rng.random(n) < pi).astype(np.int64)
    x = np.where(y == 1, 2.0, -2.0) + ndtri(rng.random(n))
    return sigmoid_array_masked_ref(x), y


def piecewise_quad_ref(pi: float, edges, values):
    """Population risks (r_cal, r_sha, r_total, mse) of a piecewise map by
    two adaptive scipy quadratures per bin of positive mass, each over the
    bin's x-window clipped to [-12, 12]. Bin masses and means come from
    ndtr differences, bins with exactly equal values are merged before
    conditioning, and the irreducible term E[h*(1 - h*)] is one more
    quadrature over [-12, 12]. Float64 throughout, for comparison with the
    closed form at roundoff level.
    """
    ell = math.log(pi) - math.log1p(-pi)

    def density(x):
        return (pi * math.exp(-0.5 * (x - 2.0) ** 2)
                + (1.0 - pi) * math.exp(-0.5 * (x + 2.0) ** 2)) / math.sqrt(2.0 * math.pi)

    def post(x):
        return _sigmoid_float(4.0 * x + ell)

    def quad(f, lo, hi):
        lo, hi = max(lo, -12.0), min(hi, 12.0)
        if lo >= hi:
            return 0.0
        return integrate.quad(f, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)[0]

    xs = [_logit_float(float(u)) for u in edges]
    B = len(values)
    hits = [pi * (ndtr(xs[b + 1] - 2.0) - ndtr(xs[b] - 2.0)) for b in range(B)]
    masses = [hits[b] + (1.0 - pi) * (ndtr(xs[b + 1] + 2.0) - ndtr(xs[b] + 2.0))
              for b in range(B)]
    means = [hits[b] / masses[b] if masses[b] > 0.0 else 0.0 for b in range(B)]
    level_mean = _merge_by_value_ref(values, masses, means)
    r_cal = r_sha = r_tot = 0.0
    for b in range(B):
        if masses[b] <= 0.0:
            continue
        v, nu = values[b], level_mean[b]
        r_cal += masses[b] * (v - nu) ** 2
        r_sha += quad(lambda x: (nu - post(x)) ** 2 * density(x), xs[b], xs[b + 1])
        r_tot += quad(lambda x: (v - post(x)) ** 2 * density(x), xs[b], xs[b + 1])
    bayes = quad(lambda x: post(x) * (1.0 - post(x)) * density(x), -12.0, 12.0)
    return r_cal, r_sha, r_tot, r_tot + bayes


def plugin_loop_ref(z, y, edges, values):
    """The plug-in risks (r_cal, r_sha, r_total, mse) by a loop over bins
    and over the ceil(sqrt(m)) slices of each bin, with level sets merged
    through mass-weighted means. Every bin must receive a record.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.size
    order = np.argsort(z, kind="stable")
    z_sorted = z[order]
    y_sorted = np.asarray(y)[order].astype(np.float64)
    bounds = np.searchsorted(z_sorted, np.asarray(edges)[1:-1], side="right")
    starts = np.concatenate(([0], bounds)).astype(np.int64)
    stops = np.concatenate((bounds, [n])).astype(np.int64)
    counts = stops - starts
    B = len(values)
    masses = counts / n
    means = np.array([y_sorted[starts[b]:stops[b]].mean() for b in range(B)])
    level_mean = _merge_by_value_ref(values, masses.tolist(), means.tolist())

    r_cal = 0.0
    r_sha = 0.0
    bayes = 0.0
    for b in range(B):
        r_cal += masses[b] * (values[b] - level_mean[b]) ** 2
        m = int(counts[b])
        n_slices = math.isqrt(m - 1) + 1
        cuts = starts[b] + (m * np.arange(n_slices + 1)) // n_slices
        for s in range(n_slices):
            chunk = y_sorted[cuts[s]:cuts[s + 1]]
            m_s = chunk.size
            mu_s = chunk.mean()
            p_s = m_s / n
            r_sha += p_s * (level_mean[b] - mu_s) ** 2
            if m_s > 1:
                var_hat = mu_s * (1.0 - mu_s) / (m_s - 1)
                r_sha -= p_s * var_hat
                bayes += p_s * var_hat * m_s
    r_sha = max(r_sha, 0.0)
    r_tot = r_cal + r_sha
    return float(r_cal), float(r_sha), float(r_tot), float(r_tot + bayes)


def estimate_K_bisect_ref(pi: float, G: int) -> float:
    """The earlier ``estimate_K``: all G - 1 grid quantiles of the mixture
    by a 60-step bisection on [-20, 20], then the largest difference
    quotient of hstar against the CDF with (0, 0) and (1, 1) appended."""
    t = np.arange(1, G, dtype=np.float64) / G

    def cdf(x):
        return pi * ndtr(x - 2.0) + (1.0 - pi) * ndtr(x + 2.0)

    lo = np.full(t.shape, -20.0)
    hi = np.full(t.shape, 20.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    h = sigmoid_array_masked_ref(4.0 * x + _logit_float(pi))
    h_full = np.concatenate(([0.0], h, [1.0]))
    f_full = np.concatenate(([0.0], cdf(x), [1.0]))
    return float(np.max(np.diff(h_full) / np.diff(f_full)))


def plugin_argsort_ref(z, y, edges, values):
    """The earlier vectorised plug-in risks (r_cal, r_sha, r_total, mse):
    one stable argsort of the scores, the slices of every bin at once and
    one ``np.add.reduceat`` of the sorted labels; level-set means pooled
    from integer label sums and counts. Every bin must receive a record."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    n = z.size
    B = len(values)
    order = np.argsort(z, kind="stable")
    stops = np.searchsorted(z[order], np.asarray(edges, dtype=np.float64)[1:-1], side="right")
    starts = np.concatenate(([0], stops))
    counts = np.diff(starts, append=n)
    k = np.ceil(np.sqrt(counts)).astype(np.int64)
    bin_of = np.repeat(np.arange(B), k)
    j = np.arange(bin_of.size) - np.repeat(np.cumsum(k) - k, k)
    m, kb = counts[bin_of], k[bin_of]
    offset = (m * j) // kb
    m_s = (m * (j + 1)) // kb - offset
    pos_s = np.add.reduceat(y[order], starts[bin_of] + offset)
    pos = np.bincount(bin_of, weights=pos_s, minlength=B)

    values = np.asarray(values, dtype=np.float64)
    _, level = np.unique(values, return_inverse=True)
    pos_l = np.bincount(level, weights=pos)
    mass_l = np.bincount(level, weights=counts)
    level_mean = np.divide(pos_l, mass_l, out=np.zeros_like(pos_l), where=mass_l > 0.0)[level]
    r_cal = float(np.sum(counts / n * (values - level_mean) ** 2))

    mu_s = pos_s / m_s
    p_s = m_s / n
    var_hat = mu_s * (1.0 - mu_s) / np.maximum(m_s - 1, 1)
    r_sha = max(float(np.sum(p_s * (level_mean[bin_of] - mu_s) ** 2 - p_s * var_hat)), 0.0)
    bayes = float(np.sum(p_s * var_hat * m_s))
    r_tot = r_cal + r_sha
    return r_cal, r_sha, r_tot, r_tot + bayes


# ------------------------------------------------------------- CLI readers

def _cli_fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _parse_score_ref(path: str, row: int, text: str) -> float:
    # An ASCII number padded with spaces and tabs only, without digit-group
    # underscores; float() would read other padding, underscores and
    # non-ASCII digits.
    match = re.fullmatch(r"[ \t]*([^\s_]*)[ \t]*", text)
    try:
        value = float(match[1] if match and match[1].isascii() else "no")
    except ValueError:
        _cli_fail(f"{path}: row {row}, column z: {text!r} is not a number")
    if not 0.0 <= value <= 1.0:
        _cli_fail(f"{path}: row {row}, column z: {value!r} outside [0.0, 1.0]")
    return value


def _parse_label_ref(path: str, row: int, text: str) -> int:
    match = re.fullmatch(r"[ \t]*([01])[ \t]*", text)
    if match is None:
        _cli_fail(f"{path}: row {row}, column y: {text!r} is not 0 or 1")
    return int(match[1])


def read_columns_rowwise_ref(path: str, header: tuple[str, ...], empty_ok: bool = False):
    """The CLI's earlier CSV reader: csv.reader over the whole file, one
    parse call per field, and exit 2 at the first damaged row.

    It has the interface of the CLI's ``_read_columns`` (the columns as
    float64 scores and int8 labels, and the file's SHA-256), so a test can
    put it in that reader's place. The earlier reader crashed on a file that
    is not UTF-8 and on a field over csv.field_size_limit(); this copy
    refuses both, decoding the whole file before it parses a row.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        _cli_fail(f"{path}: not UTF-8: byte {raw[e.start]:#04x} at offset {e.start}")
    parse = {"z": _parse_score_ref, "y": _parse_label_ref}
    columns = [[] for _ in header]
    row = 1
    try:
        for fields in csv.reader(io.StringIO(text, newline="")):
            if row == 1:
                if tuple(s.strip(" \t") for s in fields) != header:
                    _cli_fail(f"{path}: row 1: expected header {','.join(header)}, "
                              f"got {','.join(map(repr, fields))}")
            elif len(fields) != len(header):
                _cli_fail(f"{path}: row {row}: expected {len(header)} fields, got {len(fields)}")
            else:
                for column, name, field in zip(columns, header, fields):
                    column.append(parse[name](path, row, field))
            row += 1
    except csv.Error as e:
        _cli_fail(f"{path}: row {row}: {e}")
    if row == 1:
        _cli_fail(f"{path}: empty file, expected header {','.join(header)}")
    if not columns[0] and not empty_ok:
        _cli_fail(f"{path}: no data rows")
    dtypes = {"z": np.float64, "y": np.int8}
    return ([np.array(column, dtypes[name]) for column, name in zip(columns, header)],
            hashlib.sha256(raw).hexdigest())


# --------------------------------------------------------- study CSV writers

def fmt_float(x: float) -> str:
    return repr(float(x))


def risk_grid_csv_ref(cells) -> str:
    """The text the earlier ``write_risk_grid_csv`` wrote."""
    lines = ["n,B,seed,r_cal,r_sha,r,mse,cal_bound,sha_bound,risk_bound,gates_ok"]
    for cell in cells:
        bound = cell.bound
        if bound is None:
            lines.append(f"{cell.n},{cell.B},-1,,,,,,,,0")
            continue
        gate = "1" if bound.conditions_met else "0"
        for k, rep in enumerate(cell.reports):
            lines.append(",".join([
                str(cell.n), str(cell.B), str(k),
                fmt_float(rep.r_cal), fmt_float(rep.r_sha),
                fmt_float(rep.r_total), fmt_float(rep.mse),
                fmt_float(bound.cal_bound), fmt_float(bound.sha_bound),
                fmt_float(bound.risk_bound), gate,
            ]))
    return "\n".join(lines) + "\n"


def label_shift_csv_ref(result) -> str:
    """The text the earlier ``write_label_shift_csv`` wrote."""
    lines = ["method,seed,r_cal,r_sha,r,mse"]
    for row in result.rows:
        for k, rep in enumerate(row.reports):
            lines.append(",".join([
                row.method, str(k),
                fmt_float(rep.r_cal), fmt_float(rep.r_sha),
                fmt_float(rep.r_total), fmt_float(rep.mse),
            ]))
    return "\n".join(lines) + "\n"


def opt_b_csv_ref(result) -> str:
    """The text the earlier ``write_opt_b_csv`` wrote."""
    lines = ["n,B_star_exp,B_star_theory,zeta_min"]
    for row in result.rows:
        lines.append(",".join([
            str(row.n), str(row.B_star_exp), str(row.B_star_theory),
            fmt_float(row.zeta_min),
        ]))
    return "\n".join(lines) + "\n"


def _print_frozen() -> None:
    print("# bounds")
    print("CAL_BOUND_1000_10_01 =", mp.nstr(cal_bound_ref(1000, 10, 0.1), 17))
    print("GATE_THRESH_10_01 =", mp.nstr(gate_threshold_ref(10, 0.1, 2420.0), 17))
    for b in (75, 76, 77):
        print(f"ZETA_{b}_1E6 =", mp.nstr(zeta_ref(b, 10 ** 6, 0.1, 1.0), 17))
    print("CHERNOFF_01_2_01 =", chernoff_ref(0.1, 2.0, 0.1))
    print("CHERNOFF_05_2_01 =", chernoff_ref(0.5, 2.0, 0.1))
    print("SHIFT_APRIORI_EXAMPLE =", mp.nstr(
        shift_apriori_ref(10 ** 5, 10 ** 3, 46, 0.1, 1.0, 0.1, 0.1, 0.2, 1.8), 17))
    print("SHIFT_GATES_EXAMPLE =", shift_gates_ref(10 ** 5, 10 ** 3, 46, 0.1, 0.1, 0.1, 2420.0))
    print()
    print("# gaussian mixture")
    print("SIGMOID_4 =", mp.nstr(mp.mpf(1) / (1 + mp.exp(-4)), 17))
    print("MEAN_Z_05 =", mp.nstr(mean_z_ref(0.5), 17))
    print("MEAN_Z_03 =", mp.nstr(mean_z_ref(0.3), 17))
    print("BAYES_05 =", mp.nstr(bayes_term_ref(0.5), 17))
    print("BAYES_01 =", mp.nstr(bayes_term_ref(0.1), 17))
    print("VAR_HSTAR_05 =", mp.nstr(var_hstar_ref(0.5), 17))
    print("MASS_03_02_07 =", mp.nstr(interval_mass_ref(0.3, 0.2, 0.7), 17))
    print("MEAN_03_02_07 =", mp.nstr(interval_mean_ref(0.3, 0.2, 0.7), 17))
    print("K_BULK =", mp.nstr(k_bulk_ref(), 17))
    print("H_05 =", mp.nstr(hstar_sq_ref(0.5), 17))
    print("H_01 =", mp.nstr(hstar_sq_ref(0.1), 17))
    print()
    print("# injective risks: identity and the exact shift corrector from pi = 0.5")
    for q in (0.1, 0.5):
        tag = str(q).replace(".", "")
        print(f"INJ_IDENTITY_{tag} =", mp.nstr(injective_risk_ref(q, lambda z: z), 17))
        print(f"INJ_SHIFT_{tag} =", mp.nstr(injective_risk_ref(q, shift_map_ref(0.5, q)), 17))
    print("INJ_KINKED_05 =", mp.nstr(injective_risk_ref(0.5, kinked_map, [-mp.log(2)]), 17))
    print()
    print("# a fixed 3-bin piecewise map under pi=0.5 (edges .25/.6, values .2/.5/.9)")
    r_cal, r_sha, r_tot, mse = piecewise_risk_ref(0.5, (0.0, 0.25, 0.6, 1.0), (0.2, 0.5, 0.9))
    for name, v in (("R_CAL", r_cal), ("R_SHA", r_sha), ("R_TOT", r_tot), ("MSE", mse)):
        print(f"PW3_{name} =", mp.nstr(v, 17))
    print()
    print("# same map with values .2/.5/.2 (merged conditioning across bins 1 and 3)")
    r_cal, r_sha, r_tot, mse = piecewise_risk_ref(0.5, (0.0, 0.25, 0.6, 1.0), (0.2, 0.5, 0.2))
    for name, v in (("R_CAL", r_cal), ("R_SHA", r_sha), ("R_TOT", r_tot), ("MSE", mse)):
        print(f"PW3M_{name} =", mp.nstr(v, 17))

    print()
    print("# noise-free sharpness risk at the population-quantile edges, pi=0.5")
    sha = {B: quantile_sha_ref(0.5, B) for B in (6, 12, 24, 48, 64, 96, 128, 192)}
    print("SHA_NOISE_FREE = {")
    for B in (48, 64, 96, 128, 192):
        print(f"    {B}: {mp.nstr(sha[B], 17)},")
    print("}")
    old_grid = (6, 12, 24, 48, 96)
    print("# slope over B in [6, 96] (comment only):",
          mp.nstr(loglog_slope_ref(old_grid, [sha[B] for B in old_grid]), 5))


if __name__ == "__main__":
    _print_frozen()

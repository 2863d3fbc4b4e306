"""Domain types and estimation procedures for binned probability recalibration.

This module implements the estimation side of the toolkit: uniform-mass
binning of scores, piecewise-constant recalibrator fitting, label-shift
weight estimation, the odds-reweighting shift corrector, and composition
of the two stages. Population-level evaluation lives in
:mod:`recalib.oracle`, finite-sample bounds in :mod:`recalib.bounds`.

All types are immutable after construction and every operation is a pure
function of its inputs, so values can be shared freely across threads or
worker processes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

__all__ = [
    "ClassAbsentError",
    "DegenerateBinsError",
    "EmptyBinError",
    "LabeledSample",
    "BinningScheme",
    "PiecewiseRecalibrator",
    "ShiftWeights",
    "ShiftCorrector",
    "Composite",
    "Constant",
    "Identity",
    "Recalibrator",
    "umb_fit",
    "bin_index",
    "fit_recalibrator",
    "apply",
    "apply_batch",
    "estimate_weights",
    "shift_correct_multiclass",
    "compose",
]


class DegenerateBinsError(ValueError):
    """Tied order statistics collapsed two uniform-mass bin edges into one."""


class EmptyBinError(ValueError):
    """A bin received no sample points under interval membership."""


class ClassAbsentError(ValueError):
    """A class label needed for weight estimation has zero frequency."""


def _frozen_float_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LabeledSample:
    """A calibration data set of (score, binary label) pairs.

    The arrays are parallel: record i is (z[i], y[i]) with z[i] in [0, 1]
    and y[i] in {0, 1}. Arrays are copied and locked at construction.
    """

    z: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        z = _frozen_float_array(self.z, "z")
        y = np.array(self.y, copy=True)
        if y.ndim != 1 or y.shape != z.shape:
            raise ValueError("z and y must be one-dimensional and the same length")
        if z.size < 1:
            raise ValueError("a labeled sample needs at least one record")
        if not np.all((z >= 0.0) & (z <= 1.0)):
            raise ValueError("scores must lie in [0, 1]; no clamping is applied")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        y = y.astype(np.int64)
        y.flags.writeable = False
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return int(self.z.size)

    @cached_property
    def sorted_view(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted scores, sorted scores of the positive records), read-only.

        Computed on first use and kept with the sample, so every fit of the
        same sample shares one pair of sorts. The sample is immutable, which
        makes the cache safe; it is not a dataclass field and takes no part
        in ``==`` or ``repr``.
        """
        zs = np.sort(self.z)
        # The gather is a fresh copy, so sort it in place: a second buffer
        # measurably raised peak RSS at n = 1e6.
        zs_pos = self.z[self.y == 1]
        zs_pos.sort()
        zs.flags.writeable = False
        zs_pos.flags.writeable = False
        return zs, zs_pos


@dataclass(frozen=True)
class BinningScheme:
    """Bin edges 0 = u_0 < u_1 < ... < u_B = 1 over the score range.

    Bin 1 is the closed interval [u_0, u_1]; bin b >= 2 is the half-open
    interval (u_{b-1}, u_b]. Together the bins partition [0, 1], so every
    score belongs to exactly one bin.
    """

    edges: tuple[float, ...]

    def __post_init__(self) -> None:
        edges = tuple(float(u) for u in self.edges)
        if len(edges) < 2:
            raise ValueError("a scheme needs at least two edges (one bin)")
        if edges[0] != 0.0 or edges[-1] != 1.0:
            raise ValueError(f"edges must start at 0 and end at 1, got {edges[0]} and {edges[-1]}")
        for i in range(len(edges) - 1):
            if edges[i + 1] == edges[i]:
                raise DegenerateBinsError(
                    f"bin edges u_{i} and u_{i + 1} coincide at {edges[i]!r}; the scores "
                    "contain ties at a quantile boundary. Jitter the scores or use fewer bins."
                )
            if edges[i + 1] < edges[i]:
                raise ValueError("edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)

    @property
    def B(self) -> int:
        return len(self.edges) - 1


@dataclass(frozen=True)
class PiecewiseRecalibrator:
    """A piecewise-constant recalibration map over a binning scheme.

    ``values[b - 1]`` is the corrected probability emitted for scores in
    bin b, and ``counts[b - 1]`` is the number of fitting points the bin
    received (every bin must be nonempty).
    """

    scheme: BinningScheme
    values: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        counts = tuple(int(c) for c in self.counts)
        if len(values) != self.scheme.B or len(counts) != self.scheme.B:
            raise ValueError("values and counts must have one entry per bin")
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("bin values must lie in [0, 1]")
        if any(c < 1 for c in counts):
            raise EmptyBinError("every bin must contain at least one fitting point")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class ShiftWeights:
    """Per-class importance weights w_k between two label distributions.

    ``provenance`` records whether the weights are population quantities
    ("exact") or plug-in ratios of empirical class frequencies
    ("plug-in"). Plug-in weights carry the frequencies they came from and
    must satisfy w_k == q_hat_k / p_hat_k bit for bit.
    """

    w: tuple[float, ...]
    provenance: str
    p_hat: tuple[float, ...] | None = None
    q_hat: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        w = tuple(float(x) for x in self.w)
        if len(w) < 2:
            raise ValueError("at least two class weights are required")
        if any(not np.isfinite(x) or x <= 0.0 for x in w):
            raise ValueError("class weights must be finite and strictly positive")
        if self.provenance not in ("exact", "plug-in"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance == "plug-in":
            if self.p_hat is None or self.q_hat is None:
                raise ValueError("plug-in weights must carry their source frequencies")
            p = tuple(float(x) for x in self.p_hat)
            q = tuple(float(x) for x in self.q_hat)
            if len(p) != len(w) or len(q) != len(w):
                raise ValueError("frequency vectors must match the number of classes")
            for k in range(len(w)):
                if w[k] != q[k] / p[k]:
                    raise ValueError(f"w[{k}] must equal q_hat[{k}] / p_hat[{k}] exactly")
            object.__setattr__(self, "p_hat", p)
            object.__setattr__(self, "q_hat", q)
        object.__setattr__(self, "w", w)

    @property
    def n_classes(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class ShiftCorrector:
    """The odds-reweighting map g(z) = w_1 z / (w_1 z + w_0 (1 - z)).

    Defined for binary weights only. The map is strictly increasing and
    fixes the endpoints, g(0) = 0 and g(1) = 1, which ``apply`` pins
    exactly rather than leaving to floating point.
    """

    weights: ShiftWeights

    def __post_init__(self) -> None:
        if self.weights.n_classes != 2:
            raise ValueError("the shift corrector is defined for binary weights")


@dataclass(frozen=True)
class Composite:
    """A shift corrector applied on top of a piecewise recalibrator."""

    outer: ShiftCorrector
    inner: PiecewiseRecalibrator

    def flatten(self) -> PiecewiseRecalibrator:
        """The composite as a single piecewise map: bin edges are preserved
        exactly and each bin value v becomes outer(v)."""
        values = tuple(apply(self.outer, v) for v in self.inner.values)
        return PiecewiseRecalibrator(self.inner.scheme, values, self.inner.counts)


@dataclass(frozen=True)
class Constant(object):
    """The recalibrator that ignores its input and emits a fixed probability."""

    value: float

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.value) <= 1.0:
            raise ValueError("the constant must lie in [0, 1]")
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Identity:
    """The recalibrator that returns its input unchanged."""


Recalibrator = Union[PiecewiseRecalibrator, ShiftCorrector, Composite, Constant, Identity]


def _uniform_mass_bins(zs: np.ndarray, B: int) -> tuple[BinningScheme, np.ndarray]:
    """Uniform-mass edges over sorted scores ``zs`` and the count per bin.

    Counts follow the right-closed membership rule, so tied scores all
    fall on the same side of an edge. Raises ``DegenerateBinsError`` when
    ties make two edges coincide or leave a bin empty.
    """
    n = int(zs.size)
    if B < 1 or B > n:
        raise ValueError(f"the bin count must satisfy 1 <= B <= n, got B={B} with n={n}")
    cut = (n * np.arange(1, B)) // B
    scheme = BinningScheme((0.0, *zs[cut - 1].tolist(), 1.0))
    # For distinct scores every bin holds at least floor(n / B) >= 1 points,
    # so an empty bin here means ties pushed mass across a quantile edge,
    # the same continuity failure as coincident edges.
    counts = np.diff(np.searchsorted(zs, scheme.edges[1:], side="right"), prepend=0)
    if counts.min() == 0:
        empty = int(np.argmin(counts)) + 1
        raise DegenerateBinsError(
            f"bin {empty} of {B} receives no sample points; the scores contain "
            "ties at a quantile boundary. Jitter the scores or use fewer bins."
        )
    return scheme, counts


def umb_fit(scores: Sequence[float] | np.ndarray, B: int) -> BinningScheme:
    """Fit uniform-mass bin edges to a score sample.

    Interior edge b (for b = 1, ..., B - 1) is the order statistic
    z_(floor(n b / B)) of the sorted scores; the outer edges are pinned to
    0 and 1. Raises ``DegenerateBinsError`` when ties in the sample make
    two edges coincide, and ``ValueError`` when B is not in [1, n] or a
    score falls outside [0, 1].
    """
    z = np.asarray(scores, dtype=np.float64)
    if z.size == 0 or not np.all((z >= 0.0) & (z <= 1.0)):
        raise ValueError("scores must lie in [0, 1]; no clamping is applied")
    return _uniform_mass_bins(np.sort(z), int(B))[0]


def bin_index(scheme: BinningScheme, z: float) -> int:
    """The 1-based index of the bin containing score z.

    Scores equal to an interior edge u_b belong to bin b (bins are closed
    on the right), and z = 0 belongs to bin 1.
    """
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"score {z!r} outside [0, 1]")
    return max(bisect_left(scheme.edges, z), 1)


def _bin_indices(edges: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized ``bin_index`` over an array of scores already validated."""
    idx = np.searchsorted(edges, z, side="left")
    return np.maximum(idx, 1)


def fit_recalibrator(data: LabeledSample, B: int) -> PiecewiseRecalibrator:
    """Fit a piecewise-constant recalibrator by uniform-mass binning.

    Edges are those of ``umb_fit`` on the scores; each bin's value is the
    mean label among the scores it contains. Label sums and counts are
    integers, so the bin means are exact integer ratios in floating point
    and agree bit for bit with a sort-and-slice evaluation on tie-free
    scores.

    Cost: the first fit of a sample pays for ``data.sorted_view`` (two
    sorts); every fit then takes O(B log n), reading edges, counts and
    positive counts off the sorted scores by binary search.
    """
    zs, zs_pos = data.sorted_view
    scheme, counts = _uniform_mass_bins(zs, int(B))
    pos = np.diff(np.searchsorted(zs_pos, scheme.edges[1:], side="right"), prepend=0)
    values = pos / counts
    return PiecewiseRecalibrator(scheme, values.tolist(), counts.tolist())


def apply(h: Recalibrator, z: float) -> float:
    """Evaluate a recalibrator at a single score z in [0, 1]."""
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"score {z!r} outside [0, 1]")
    if isinstance(h, PiecewiseRecalibrator):
        return h.values[bin_index(h.scheme, z) - 1]
    if isinstance(h, ShiftCorrector):
        if z == 0.0:
            return 0.0
        if z == 1.0:
            return 1.0
        w0, w1 = h.weights.w
        return w1 * z / (w1 * z + w0 * (1.0 - z))
    if isinstance(h, Composite):
        return apply(h.outer, apply(h.inner, z))
    if isinstance(h, Constant):
        return h.value
    if isinstance(h, Identity):
        return z
    raise TypeError(f"not a recalibrator: {type(h).__name__}")


def apply_batch(h: Recalibrator, z: Sequence[float] | np.ndarray) -> np.ndarray:
    """Evaluate a recalibrator over an array of scores.

    Agrees with ``apply`` bit for bit at every point (the shift formula
    already lands on exact 0.0 and 1.0 at the endpoints). Exists because
    Monte Carlo evaluation at 1e7 points cannot afford a Python-level
    loop.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.size and not np.all((z >= 0.0) & (z <= 1.0)):
        raise ValueError("scores must lie in [0, 1]; no clamping is applied")
    if isinstance(h, PiecewiseRecalibrator):
        values = np.asarray(h.values)
        return values[_bin_indices(np.asarray(h.scheme.edges), z) - 1]
    if isinstance(h, ShiftCorrector):
        w0, w1 = h.weights.w
        num = w1 * z
        return num / (num + w0 * (1.0 - z))
    if isinstance(h, Composite):
        return apply_batch(h.outer, apply_batch(h.inner, z))
    if isinstance(h, Constant):
        return np.full(z.shape, h.value)
    if isinstance(h, Identity):
        return z.copy()
    raise TypeError(f"not a recalibrator: {type(h).__name__}")


def estimate_weights(labels_P: Sequence[int] | np.ndarray,
                     labels_Q: Sequence[int] | np.ndarray) -> ShiftWeights:
    """Plug-in class weight estimates w_k = q_hat_k / p_hat_k.

    ``labels_P`` and ``labels_Q`` are binary label draws from the source
    and target distributions. Frequencies are raw relative counts with no
    smoothing. Raises ``ClassAbsentError`` when either class is missing
    from either sample, since the weights assume both classes occur with
    positive probability under both distributions.
    """
    out = []
    for name, labels in (("source", labels_P), ("target", labels_Q)):
        y = np.asarray(labels)
        if y.size == 0:
            raise ValueError(f"the {name} label sample is empty")
        if not np.isin(y, (0, 1)).all():
            raise ValueError(f"the {name} labels must be 0 or 1")
        ones = int(np.count_nonzero(y))
        freq = (float(y.size - ones) / y.size, float(ones) / y.size)
        for k in (0, 1):
            if freq[k] == 0.0:
                raise ClassAbsentError(
                    f"class {k} has zero frequency in the {name} labels; weight "
                    "estimation requires both classes present under both distributions"
                )
        out.append(freq)
    p_hat, q_hat = out
    w = (q_hat[0] / p_hat[0], q_hat[1] / p_hat[1])
    return ShiftWeights(w=w, provenance="plug-in", p_hat=p_hat, q_hat=q_hat)


def shift_correct_multiclass(w: Sequence[float], alpha: Sequence[float]) -> tuple[float, ...]:
    """Reweight a probability vector: output_k = w_k alpha_k / sum_j w_j alpha_j.

    For two classes with alpha = (1 - z, z) the second coordinate equals
    the binary shift corrector applied to z.
    """
    w = tuple(float(x) for x in w)
    a = tuple(float(x) for x in alpha)
    if len(w) != len(a):
        raise ValueError(f"got {len(w)} weights for {len(a)} classes")
    if any(not np.isfinite(x) or x <= 0.0 for x in w):
        raise ValueError("class weights must be finite and strictly positive")
    if any(x < 0.0 for x in a) or abs(sum(a) - 1.0) > 1e-12:
        raise ValueError("alpha must lie on the probability simplex (tolerance 1e-12)")
    num = [wk * ak for wk, ak in zip(w, a)]
    s = sum(num)
    return tuple(x / s for x in num)


def compose(g: ShiftCorrector, h: PiecewiseRecalibrator) -> Composite:
    """The two-stage recalibrator z -> g(h(z)).

    The result is itself piecewise constant; ``Composite.flatten`` gives
    that form with the inner edges preserved exactly.
    """
    if not isinstance(g, ShiftCorrector):
        raise TypeError("the outer map must be a ShiftCorrector")
    if not isinstance(h, PiecewiseRecalibrator):
        raise TypeError("the inner map must be a PiecewiseRecalibrator")
    return Composite(outer=g, inner=h)

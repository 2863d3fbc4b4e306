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

import numbers
import operator
import sys
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
    "Recalibrator",
    "umb_fit",
    "fit_recalibrator",
    "apply",
    "apply_batch",
    "estimate_weights",
    "compose",
]


class DegenerateBinsError(ValueError):
    """Tied order statistics collapsed two uniform-mass bin edges into one."""


class EmptyBinError(ValueError):
    """A bin received no sample points under interval membership."""


class ClassAbsentError(ValueError):
    """A class label needed for weight estimation has zero frequency."""


# Cap on the bin-lookup grid of a BinningScheme: 8 MiB of indices, reached
# only above 2**18 bins.
_MAX_CELLS = 1 << 20


def _reals(values, name: str, integer: bool = False) -> tuple:
    """``values``, an iterable other than a string, as a tuple of floats,
    or of ints if ``integer``. Each distinct element type, not each
    element, must be a real number (an integer if ``integer``) and not a
    bool: float() reads "01" as 0 and 1, and int() truncates 2.5. An
    integer too large for a float raises OverflowError naming ``name``."""
    if isinstance(values, (str, bytes, bytearray)) or not hasattr(values, "__iter__"):
        raise TypeError(f"{name} must be a sequence of numbers, not {type(values).__name__}")
    values = tuple(values)
    kind = numbers.Integral if integer else numbers.Real
    for t in set(map(type, values)):
        if issubclass(t, bool) or not issubclass(t, kind):
            raise TypeError(f"{name} must be {kind.__name__.lower()} numbers, not {t.__name__}")
    try:
        return tuple(map(operator.index if integer else float, values))
    except OverflowError:
        raise OverflowError(f"{name} is too large for a float") from None


def _index(value, name: str) -> int:
    """One size or count by the rule of ``_reals``: a bool or a non-integer
    raises TypeError instead of reading as 1 or being truncated."""
    return _reals((value,), name, integer=True)[0]


def _score_array(values, frozen: bool = False) -> np.ndarray:
    """``values`` as a float64 array of scores in [0, 1], a read-only copy
    if ``frozen``. Raises TypeError unless numpy reads them as numbers, not
    strings or bools, and ValueError for a score outside [0, 1]."""
    z = np.asarray(values)
    if z.dtype.kind not in "fiu":
        raise TypeError(f"scores must be a numeric array, not dtype {z.dtype}")
    z = z.astype(np.float64, copy=frozen)
    if not _within(z, 0.0, 1.0):
        raise ValueError("scores must lie in [0, 1]; no clamping is applied")
    if frozen:
        z.flags.writeable = False
    return z


def _within(a: np.ndarray, lo, hi) -> bool:
    """Whether every entry of a lies in [lo, hi]: two reductions and no
    mask array. A NaN fails both comparisons, and an empty array passes."""
    return a.size == 0 or bool(a.min() >= lo and a.max() <= hi)


def _binary(y: np.ndarray) -> bool:
    if y.dtype.kind in "biu":
        return _within(y, 0, 1)
    # Two comparisons, several times cheaper than np.isin; NaN, 0.5 and
    # strings fail both, while 1.0 passes.
    return bool(np.all((y == 0) | (y == 1)))


@dataclass(frozen=True)
class LabeledSample:
    """A calibration data set of (score, binary label) pairs.

    The arrays are parallel: record i is (z[i], y[i]) with z[i] in [0, 1]
    and y[i] in {0, 1}. Arrays are copied and locked at construction: z
    as float64 and y as int8, one byte per label. Sums and cumulative sums
    of y widen to int64 by themselves, but a dot product such as ``y @ y``
    stays in int8 and wraps, so cast y first. The sample holds these two
    arrays and nothing else: each fit sorts the scores anew and frees them.
    """

    z: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        z = _score_array(self.z, frozen=True)
        y = np.asarray(self.y)
        if z.ndim != 1 or y.shape != z.shape:
            raise ValueError("z and y must be one-dimensional and the same length")
        if z.size < 1:
            raise ValueError("a labeled sample needs at least one record")
        if not _binary(y):
            raise ValueError("labels must be 0 or 1")
        y = y.astype(np.int8)  # the one copy the sample keeps
        y.flags.writeable = False
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)

    @classmethod
    def _adopt(cls, z: np.ndarray, y: np.ndarray) -> LabeledSample:
        """A sample that takes ownership of z (float64) and y (int8, 0 or 1),
        locking them instead of copying and checking them.

        For ``oracle.sample`` only, whose arrays are fresh, unshared and valid
        by construction: the public constructor's copy and checks would cost
        a second n-sized buffer and two more passes per draw. A caller's
        arrays must go through the public constructor, which keeps its own
        copy, since the caller may still write to them.
        """
        z.flags.writeable = False
        y.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)
        return self

    @property
    def n(self) -> int:
        return int(self.z.size)


@dataclass(frozen=True)
class BinningScheme:
    """Bin edges 0 = u_0 < u_1 < ... < u_B = 1 over the score range.

    Bin 1 is the closed interval [u_0, u_1]; bin b >= 2 is the half-open
    interval (u_{b-1}, u_b]. Together the bins partition [0, 1], so every
    score belongs to exactly one bin.
    """

    edges: tuple[float, ...]

    def __post_init__(self) -> None:
        edges = _reals(self.edges, "edges")
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
            if not edges[i + 1] > edges[i]:
                raise ValueError("edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)

    @property
    def B(self) -> int:
        return len(self.edges) - 1

    @cached_property
    def edge_array(self) -> np.ndarray:
        """``edges`` as a read-only float64 array, built on first use and
        kept, so evaluation does not convert the tuple on every call. Not a
        dataclass field: it takes no part in ``==`` or ``repr``."""
        return _score_array(self.edges, frozen=True)

    @cached_property
    def _cells(self) -> tuple[float, np.ndarray, bool]:
        """The grid ``_bin_indices`` reads, as (M, start, crowded).

        M is the smallest power of two >= 4B, capped at ``_MAX_CELLS``;
        cell c is [c/M, (c+1)/M) for c = 0, ..., M. With
        lo[c] = edges.searchsorted(c / M, "left"), ``start[c]`` is
        max(lo[c], 1) where the cell holds at most one edge and -1 where it
        holds two or more, and ``crowded`` says whether any cell does.
        Built on first evaluation and kept, read-only, like ``edge_array``.
        """
        edges = self.edge_array
        M = min(1 << (4 * self.B - 1).bit_length(), _MAX_CELLS)
        lo = edges.searchsorted(np.arange(M + 1) / M, side="left")
        start = np.maximum(lo, 1)
        crowded = np.diff(lo, append=self.B + 1) >= 2
        start[crowded] = -1
        start.flags.writeable = False
        return float(M), start, bool(crowded.any())


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
        values = _reals(self.values, "values")
        counts = _reals(self.counts, "counts", integer=True)
        if len(values) != self.scheme.B or len(counts) != self.scheme.B:
            raise ValueError("values and counts must have one entry per bin")
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("bin values must lie in [0, 1]")
        if any(c < 1 for c in counts):
            raise EmptyBinError("every bin must contain at least one fitting point")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)

    @cached_property
    def value_array(self) -> np.ndarray:
        """``values`` as a read-only float64 array, cached like
        ``BinningScheme.edge_array``."""
        return _score_array(self.values, frozen=True)


@dataclass(frozen=True)
class ShiftWeights:
    """Importance weights (w_0, w_1) between two binary label distributions.

    ``provenance`` records whether the weights are population quantities
    ("exact") or plug-in ratios of empirical class frequencies
    ("plug-in"). Plug-in weights carry the frequencies they came from and
    must satisfy w_k == q_hat_k / p_hat_k bit for bit; exact weights carry
    none.
    """

    w: tuple[float, float]
    provenance: str
    p_hat: tuple[float, float] | None = None
    q_hat: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        w = _reals(self.w, "w")
        if len(w) != 2:
            raise ValueError(f"exactly two class weights are required, got {len(w)}")
        # Below the smallest normal float, w_1 z and w_0 (1 - z) lose their
        # precision or underflow to 0, and the corrector can map z to 0/0.
        if any(not np.isfinite(x) or x < sys.float_info.min for x in w):
            raise ValueError(f"class weights must be finite and at least {sys.float_info.min!r}")
        if self.provenance not in ("exact", "plug-in"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance == "plug-in":
            if self.p_hat is None or self.q_hat is None:
                raise ValueError("plug-in weights must carry their source frequencies")
            p = _reals(self.p_hat, "p_hat")
            q = _reals(self.q_hat, "q_hat")
            if len(p) != 2 or len(q) != 2:
                raise ValueError("frequency vectors must have one entry per class")
            if any(not 0.0 < x <= 1.0 for x in p + q):
                raise ValueError("class frequencies must lie in (0, 1]")
            for k in (0, 1):
                if w[k] != q[k] / p[k]:
                    raise ValueError(f"w[{k}] must equal q_hat[{k}] / p_hat[{k}] exactly")
            object.__setattr__(self, "p_hat", p)
            object.__setattr__(self, "q_hat", q)
        elif self.p_hat is not None or self.q_hat is not None:
            raise ValueError("exact weights carry no class frequencies")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class ShiftCorrector:
    """The odds-reweighting map g(z) = w_1 z / (w_1 z + w_0 (1 - z)).

    The map is strictly increasing and fixes the endpoints, g(0) = 0 and
    g(1) = 1, and the formula lands on both exactly in floating point.
    """

    weights: ShiftWeights


@dataclass(frozen=True)
class Composite:
    """A shift corrector applied on top of a piecewise recalibrator."""

    outer: ShiftCorrector
    inner: PiecewiseRecalibrator

    def __post_init__(self) -> None:
        if not isinstance(self.outer, ShiftCorrector):
            raise TypeError("the outer map must be a ShiftCorrector")
        if not isinstance(self.inner, PiecewiseRecalibrator):
            raise TypeError("the inner map must be a PiecewiseRecalibrator")

    def flatten(self) -> PiecewiseRecalibrator:
        """The composite as a single piecewise map: bin edges are preserved
        exactly and each bin value v becomes outer(v). Computed on the first
        call and kept with the composite; every later call returns the same
        object."""
        return self._flat

    @cached_property
    def _flat(self) -> PiecewiseRecalibrator:
        # Not a dataclass field, so it takes no part in ``==`` or ``repr``.
        values = _evaluate(self.outer, self.inner.value_array).tolist()
        return PiecewiseRecalibrator(self.inner.scheme, values, self.inner.counts)


Recalibrator = Union[PiecewiseRecalibrator, ShiftCorrector, Composite]


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
    counts = np.diff(np.searchsorted(zs, scheme.edge_array[1:], side="right"), prepend=0)
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
    two edges coincide, ``ValueError`` when B is not in [1, n] or a score
    falls outside [0, 1], and ``TypeError`` when the scores are not numbers.
    """
    return _uniform_mass_bins(np.sort(_score_array(scores)), _index(B, "B"))[0]


def _bin_indices(scheme: BinningScheme, z: np.ndarray) -> np.ndarray:
    """1-based bin indices of a float64 array of validated scores. Bins are
    closed on the right, so a score equal to an interior edge u_b lies in
    bin b, and z = 0 lies in bin 1: the result equals
    ``np.maximum(edges.searchsorted(z, side="left"), 1)`` exactly.

    The lookup reads the grid ``scheme._cells``. M is a power of two, so
    z * M only shifts the exponent and is exact: truncating it gives the
    cell c with c/M <= z < (c+1)/M for every z in [0, 1], including -0.0,
    subnormals and 1.0 (cell M). Exactly lo[c] edges lie below c/M, so
    where the cell holds at most one edge the answer is lo[c], plus one if
    edge lo[c] lies below z: one table read and one comparison, with
    ``edges[B] == 1.0`` bounding the read. Starting from max(lo[c], 1)
    instead folds in the clamp, since lo[c] = 0 only in cell 0, whose one
    edge is then u_0 = 0. A cell holding two or more edges stores -1,
    which the comparison leaves negative (edges[-1] is 1.0, never below
    z); its scores take a binary search on that subset only.

    Cost: O(1) per score plus O(M log B) once per scheme for the grid,
    against O(log B) per score for a binary search: about 13 ms at
    n = 1e6 and B = 501 on a 2-vCPU Xeon VM, against 95 ms.
    """
    M, start, crowded = scheme._cells
    edges = scheme.edge_array
    idx = start[(z * M).astype(np.intp)]
    idx += edges[idx] < z
    if crowded:
        multi = idx < 0
        idx[multi] = np.maximum(edges.searchsorted(z[multi], side="left"), 1)
    return idx


def _sorted_view(data: LabeledSample) -> tuple[np.ndarray, np.ndarray]:
    """(sorted scores, sorted scores of the positive records), read-only.

    Two sorts, 8 + 8 pi bytes per point (pi the share of positives), built
    with no n-sized scratch. Nothing keeps the view: a caller that fits one
    sample at several bin counts builds it once and passes it to
    ``_fit_view`` for each.
    """
    zs = np.sort(data.z)
    # Gather the positives block by block into one buffer and sort it in
    # place: a second buffer measurably raised peak RSS at n = 1e6, and a
    # whole-array ``compress`` holds an n_pos int64 index (a block's is
    # 512 KB). ``compress`` rather than a boolean index, which branches on
    # each random label: 2.3 ms against 10.4 ms at n = 1e6. The labels
    # are 0/1 bytes, so they read as a mask without a copy.
    mask, step = data.y.view(np.bool_), 1 << 16
    zs_pos = np.empty(np.count_nonzero(mask))
    filled = 0
    for start in range(0, data.n, step):
        block = np.compress(mask[start:start + step], data.z[start:start + step])
        zs_pos[filled:filled + block.size] = block
        filled += block.size
    zs_pos.sort()
    zs.flags.writeable = False
    zs_pos.flags.writeable = False
    return zs, zs_pos


def fit_recalibrator(data: LabeledSample, B: int) -> PiecewiseRecalibrator:
    """Fit a piecewise-constant recalibrator by uniform-mass binning.

    Edges are those of ``umb_fit`` on the scores; each bin's value is the
    mean label among the scores it contains. Label sums and counts are
    integers, so the bin means are exact integer ratios in floating point
    and agree bit for bit with a sort-and-slice evaluation on tie-free
    scores.

    Cost: ``_sorted_view`` (two sorts), which is freed on return, then
    O(B log n), reading edges, counts and positive counts off the sorted
    scores by binary search.
    """
    return _fit_view(_sorted_view(data), B)


def _fit_view(view: tuple[np.ndarray, np.ndarray], B: int) -> PiecewiseRecalibrator:
    """``fit_recalibrator`` on a sample's ``_sorted_view``: O(B log n)."""
    zs, zs_pos = view
    scheme, counts = _uniform_mass_bins(zs, _index(B, "B"))
    pos = np.diff(np.searchsorted(zs_pos, scheme.edge_array[1:], side="right"), prepend=0)
    values = pos / counts
    return PiecewiseRecalibrator(scheme, values.tolist(), counts.tolist())


def _evaluate(h: Recalibrator, z: np.ndarray) -> np.ndarray:
    """Evaluate h on a float64 array of validated scores."""
    if isinstance(h, PiecewiseRecalibrator):
        return h.value_array[_bin_indices(h.scheme, z) - 1]
    if isinstance(h, ShiftCorrector):
        w0, w1 = h.weights.w
        num = w1 * z
        return num / (num + w0 * (1.0 - z))
    if isinstance(h, Composite):
        return _evaluate(h.flatten(), z)
    raise TypeError(f"not a recalibrator: {type(h).__name__}")


def apply(h: Recalibrator, z: float) -> float:
    """Evaluate a recalibrator at a single score z in [0, 1]: the one-element
    case of ``apply_batch``, so the two agree bit for bit. Each call builds
    a one-element array; evaluate many scores with ``apply_batch``."""
    return float(apply_batch(h, _reals((z,), "z"))[0])


def apply_batch(h: Recalibrator, z: Sequence[float] | np.ndarray) -> np.ndarray:
    """Evaluate a recalibrator over an array of scores. ``apply`` is its
    one-element case. Exists because Monte Carlo evaluation at 1e7 points
    cannot afford a Python-level loop.

    Cost: O(n) for a piecewise map or composite, one grid read per score
    (see ``_bin_indices``) plus the range check and the value gather; a
    composite is evaluated through its cached ``flatten``.
    """
    z = _score_array(z)
    return _evaluate(h, z) if z.ndim else _evaluate(h, z[None])[0]


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
        if not _binary(y):
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


def compose(g: ShiftCorrector, h: PiecewiseRecalibrator) -> Composite:
    """The two-stage recalibrator z -> g(h(z)); ``Composite`` checks the types.

    The result is itself piecewise constant; ``Composite.flatten`` gives
    that form with the inner edges preserved exactly.
    """
    return Composite(outer=g, inner=h)

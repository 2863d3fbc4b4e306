"""Binning, fitting, shift correction, and the recalibrator algebra."""

import dataclasses
import os
import threading
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recalib.core import (
    BinningScheme,
    ClassAbsentError,
    Composite,
    DegenerateBinsError,
    EmptyBinError,
    LabeledSample,
    PiecewiseRecalibrator,
    ShiftCorrector,
    ShiftWeights,
    _bin_indices,
    _concurrently,
    _sorted_view,
    apply,
    apply_batch,
    compose,
    estimate_weights,
    fit_recalibrator,
    umb_fit,
)
from recalib.bounds import approx_epsilon, balance_alpha
from recalib.experiments import ExperimentConfig
from recalib.oracle import GaussianMixtureTask, sample

from oracles import bin_indices_searchsorted_ref, bincount_fit_ref, sort_slice_fit


def distinct_scores(n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        z = rng.random(n)
        if np.unique(z).size == n:
            return z


# ---------------------------------------------------------------- umb_fit

def test_umb_fit_four_point_example():
    scheme = umb_fit([0.1, 0.2, 0.3, 0.4], 2)
    assert scheme.edges == (0.0, 0.2, 1.0)
    assert scheme.B == 2


def test_umb_fit_single_bin_is_forced_unit_interval():
    scheme = umb_fit([0.7, 0.1, 0.9], 1)
    assert scheme.edges == (0.0, 1.0)


def test_umb_fit_tied_scores_degenerate():
    with pytest.raises(DegenerateBinsError):
        umb_fit([0.5, 0.5, 0.5, 0.5], 2)


def test_umb_fit_rejects_bad_arity():
    with pytest.raises(ValueError):
        umb_fit([0.1, 0.2], 3)
    with pytest.raises(ValueError):
        umb_fit([0.1, 0.2], 0)


def test_umb_fit_rejects_out_of_range_scores():
    with pytest.raises(ValueError):
        umb_fit([0.1, 1.5], 1)
    with pytest.raises(ValueError):
        umb_fit([-0.2, 0.5], 1)


# ----------------------------------------------------------- bin membership

def bins_of(scheme: BinningScheme, z) -> np.ndarray:
    """1-based bins of the scores z, read through ``apply_batch`` on a map
    whose value in bin b is (b - 1) / B, distinct per bin."""
    values = np.arange(scheme.B) / scheme.B
    h = PiecewiseRecalibrator(scheme, values.tolist(), (1,) * scheme.B)
    return np.searchsorted(values, apply_batch(h, z)) + 1


def test_bin_index_right_closed_edges():
    scheme = BinningScheme((0.0, 0.2, 1.0))
    assert bins_of(scheme, [0.2, 0.200001, 1.0, 0.0]).tolist() == [1, 2, 2, 1]


def test_bin_index_rejects_out_of_range():
    scheme = BinningScheme((0.0, 0.2, 1.0))
    with pytest.raises(ValueError):
        bins_of(scheme, [1.0000001])
    with pytest.raises(ValueError):
        bins_of(scheme, [-0.1])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    B=st.integers(1, 40),
    z=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_bin_index_partitions_unit_interval(seed, n, B, z):
    B = min(B, n)
    scheme = umb_fit(distinct_scores(n, seed), B)
    b = int(bins_of(scheme, [z])[0])
    assert 1 <= b <= scheme.B
    # Membership of the returned bin, and of no other bin.
    edges = scheme.edges
    members = [
        (edges[i] <= z <= edges[i + 1]) if i == 0 else (edges[i] < z <= edges[i + 1])
        for i in range(scheme.B)
    ]
    assert members[b - 1]
    assert sum(members) == 1


def edge_family(family: str, B: int, seed: int) -> BinningScheme:
    """A scheme of at most B bins whose interior edges are drawn uniform,
    clustered near 0 or near 1, packed into a 1e-13 window (narrower than
    any lookup cell, so cells hold many edges), or on the grid k / M with
    M the smallest power of two >= 4B."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(B - 1)
    M = 1 << (4 * B - 1).bit_length()
    inner = {
        "uniform": u,
        "near0": u ** 8,
        "near1": 1.0 - u ** 8,
        "packed": rng.random() + 1e-13 * u,
        "grid": np.floor(u * M) / M,
    }[family]
    inner = np.unique(inner[(inner > 0.0) & (inner < 1.0)])
    return BinningScheme((0.0, *inner.tolist(), 1.0))


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["uniform", "near0", "near1", "packed", "grid"]),
    B=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="uniform", B=1, seed=0)
@example(family="uniform", B=2, seed=0)
@example(family="packed", B=2, seed=0)
@example(family="grid", B=2, seed=0)
def test_bin_lookup_matches_searchsorted(family, B, seed):
    scheme = edge_family(family, B, seed)
    e = scheme.edge_array
    z = np.concatenate((e, np.nextafter(e, -1.0), np.nextafter(e, 2.0), [0.0, -0.0, 1.0, 5e-324]))
    z = z[(z >= 0.0) & (z <= 1.0)]
    want = bin_indices_searchsorted_ref(e, z)
    assert np.array_equal(_bin_indices(scheme, z), want)
    assert [_bin_indices(scheme, z[i:i + 1])[0] for i in range(z.size)] == want.tolist()


def test_bin_lookup_grid_is_capped():
    # Above 2**18 bins the grid stops growing, so more cells hold several
    # edges; the lookup must still equal the binary search.
    scheme = edge_family("uniform", 2**18 + 2**16, 7)
    assert scheme._cells[0] == 2.0**20
    e = scheme.edge_array
    z = np.concatenate((e, np.nextafter(e[1:], -1.0), np.nextafter(e[:-1], 2.0)))
    assert np.array_equal(_bin_indices(scheme, z), bin_indices_searchsorted_ref(e, z))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 200), B=st.integers(1, 50))
def test_count_balance_on_distinct_scores(seed, n, B):
    B = min(B, n)
    z = distinct_scores(n, seed)
    scheme = umb_fit(z, B)
    counts = np.bincount(bins_of(scheme, z) - 1, minlength=scheme.B)
    expected = [(n * b) // B - (n * (b - 1)) // B for b in range(1, B)]
    expected.append(n - (n * (B - 1)) // B)
    assert counts.tolist() == expected
    assert max(counts) - min(counts) <= 1


# -------------------------------------------------------- fit_recalibrator

def test_fit_four_point_example():
    data = LabeledSample(z=[0.1, 0.2, 0.3, 0.4], y=[0, 1, 0, 1])
    h = fit_recalibrator(data, 2)
    assert h.values == (0.5, 0.5)
    assert h.counts == (2, 2)
    assert h.scheme.edges == (0.0, 0.2, 1.0)


def test_fit_single_bin_is_global_mean():
    h = fit_recalibrator(LabeledSample(z=[0.1, 0.9], y=[0, 1]), 1)
    assert h.values == (0.5,)
    assert h.counts == (2,)


def test_fit_matches_sort_and_slice_oracle_n50():
    rng = np.random.Generator(np.random.PCG64(7))
    z = distinct_scores(50, 11)
    y = (rng.random(50) < 0.4).astype(int)
    h = fit_recalibrator(LabeledSample(z=z, y=y), 5)
    edges, values, counts = sort_slice_fit(z, y, 5)
    assert h.scheme.edges == edges
    assert h.values == values
    assert h.counts == counts


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50), B=st.integers(1, 50))
def test_fit_equals_sort_and_slice_everywhere(seed, n, B):
    B = min(B, n)
    rng = np.random.Generator(np.random.PCG64(seed))
    z = distinct_scores(n, seed)
    y = (rng.random(n) < 0.5).astype(int)
    h = fit_recalibrator(LabeledSample(z=z, y=y), B)
    edges, values, counts = sort_slice_fit(z, y, B)
    assert h.scheme.edges == edges
    assert h.values == values
    assert h.counts == counts


def test_fit_boundary_ties_fail_loudly():
    # Edges land on 0.2 and 0.4; the right-closed rule then pulls every
    # point into the first two bins, leaving the third empty. That is a
    # tie artifact, so construction refuses rather than silently merging.
    data = LabeledSample(z=[0.2, 0.2, 0.2, 0.4, 0.4, 0.4], y=[0, 1, 0, 1, 0, 1])
    with pytest.raises(DegenerateBinsError):
        fit_recalibrator(data, 3)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), decimals=st.integers(1, 2),
       data=st.data())
def test_fit_on_tied_scores_equals_bincount_reference(seed, n, decimals, data):
    # Right-closed counts read off the sorted scores are the per-point bin
    # counts, so an empty bin is always caught as DegenerateBinsError by the
    # edge step and EmptyBinError cannot escape the fit.
    B = data.draw(st.integers(1, n), label="B")
    rng = np.random.Generator(np.random.PCG64(seed))
    z = np.round(rng.random(n), decimals)
    y = (rng.random(n) < 0.5).astype(int)
    edges, values, counts = bincount_fit_ref(z, y, B)
    degenerate = len(set(edges)) < len(edges) or min(counts) == 0
    try:
        h = fit_recalibrator(LabeledSample(z=z, y=y), B)
    except DegenerateBinsError:
        assert degenerate
        return
    assert not degenerate
    assert (h.scheme.edges, h.values, h.counts) == (edges, values, counts)


def test_sorted_view_matches_np_sort(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # views of 2**17 points use the helper
    data = LabeledSample(z=distinct_scores(200, 4), y=(distinct_scores(200, 5) < 0.3).astype(int))
    first = fit_recalibrator(data, 7)
    zs, zs_pos = _sorted_view(data)
    assert fit_recalibrator(data, 7) == first
    assert zs.tolist() == sorted(data.z.tolist())
    assert zs_pos.tolist() == sorted(data.z[data.y == 1].tolist())

    rng = np.random.Generator(np.random.PCG64(9))
    labels = (rng.random(5_000) < 0.4).astype(int)
    signed_zeros = np.array([0.0, -0.0, 0.5, -0.0, 1.0, 0.0, -0.0])
    samples = [
        sample(GaussianMixtureTask(0.5), 100_000, seed=3),
        LabeledSample(z=np.round(rng.random(5_000), 3), y=labels),  # ties
        LabeledSample(z=signed_zeros, y=[1, 1, 0, 0, 1, 0, 1]),
        LabeledSample(z=distinct_scores(50, 6), y=np.zeros(50, dtype=int)),  # no positives
        LabeledSample(z=distinct_scores(50, 7), y=np.ones(50, dtype=int)),
        LabeledSample(z=[0.25], y=[1]),
    ]
    # Around the gather's 65,536-record blocks.
    for n in (65_535, 65_536, 65_537, 2 * 65_536 + 10):
        z = distinct_scores(n, n)
        samples.append(LabeledSample(z=z, y=(z < 0.4).astype(int)))
    z = distinct_scores(2 * 65_536 + 10, 8)
    last_block = np.zeros(z.size, dtype=int)
    last_block[-10::3] = 1  # positives only in the last, partial block
    ends = np.zeros(z.size, dtype=int)
    ends[[0, -1]] = 1  # positives at index 0 and n - 1 only
    samples += [LabeledSample(z=z, y=last_block), LabeledSample(z=z, y=ends)]
    z = np.round(rng.random((1 << 17) + 3), 3)  # ties, sorted on the helper thread
    z[::7] = -0.0
    z[3::11] = 0.0
    samples.append(LabeledSample(z=z, y=rng.random(z.size) < 0.5))
    for data in samples:
        zs, zs_pos = _sorted_view(data)
        assert np.array_equal(zs.view(np.uint64), np.sort(data.z).view(np.uint64))
        want = np.sort(data.z[data.y == 1])
        assert np.array_equal(zs_pos.view(np.uint64), want.view(np.uint64))


def test_concurrently_joins_one_helper_under_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    n, before, caller = 1 << 17, threading.active_count(), threading.get_ident()
    helper, own = _concurrently(threading.get_ident, threading.get_ident, n)
    assert own == caller != helper
    assert threading.active_count() == before

    def divide():
        return np.ones(1) / np.zeros(1)

    # A new thread starts from numpy's default errstate, which warns.
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        _concurrently(divide, list, n)
    assert threading.active_count() == before
    with np.errstate(divide="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isinf(_concurrently(divide, list, n)[0]).all()

    def refuse():
        raise ValueError("refused")

    for sides in ((refuse, list), (list, refuse)):
        with pytest.raises(ValueError, match="refused"):
            _concurrently(*sides, n)
        assert threading.active_count() == before


@pytest.mark.parametrize("cpus, n", [(1, 1 << 17), (None, 1 << 17), (2, (1 << 17) - 1)])
def test_concurrently_stays_serial_on_one_cpu_or_few_points(monkeypatch, cpus, n):
    def no_thread(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(threading, "Thread", no_thread)
    order = []
    assert _concurrently(lambda: order.append(1) or 1, lambda: order.append(2) or 2, n) == (1, 2)
    assert order == [1, 2]
    fit_recalibrator(sample(GaussianMixtureTask(0.5), n, seed=1), 7)


def test_sorted_view_holds_no_index_scratch():
    # The whole-array gather built an int64 index of every positive first:
    # a peak of 16 bytes per point at pi = 0.5, against the 12 it keeps.
    n = 1 << 20
    data = sample(GaussianMixtureTask(0.5), n, seed=4)
    tracemalloc.start()
    try:
        _sorted_view(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * n


def test_fit_keeps_no_sorted_copy():
    # A sorted view kept with the sample would hold 12 bytes per point at
    # pi = 0.5 for as long as the sample lives; a fit frees its own.
    n = 1 << 20
    data = sample(GaussianMixtureTask(0.5), n, seed=4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fit_recalibrator(data, 64)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < n, grown
    assert vars(data).keys() == {"z", "y"}

    a = LabeledSample(z=[0.3], y=[1])
    b = LabeledSample(z=[0.3], y=[1])
    text = repr(a)
    fit_recalibrator(a, 1)
    assert [f.name for f in dataclasses.fields(LabeledSample)] == ["z", "y"]
    assert repr(a) == text
    assert a == b and b == a


def test_cached_arrays_are_read_only_and_stay_out_of_fields_eq_and_repr():
    h = PiecewiseRecalibrator(BinningScheme((0.0, 0.25, 1.0)), (0.2, 0.7), (3, 4))
    twin = PiecewiseRecalibrator(BinningScheme((0.0, 0.25, 1.0)), (0.2, 0.7), (3, 4))
    text = repr(h)
    assert apply(h, 0.25) == 0.2  # builds both arrays
    for arr, want in ((h.scheme.edge_array, h.scheme.edges), (h.value_array, h.values)):
        assert arr.dtype == np.float64 and arr.tolist() == list(want)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.5
    assert h.scheme.edge_array is h.scheme.edge_array and h.value_array is h.value_array
    assert [f.name for f in dataclasses.fields(BinningScheme)] == ["edges"]
    assert [f.name for f in dataclasses.fields(PiecewiseRecalibrator)] == [
        "scheme", "values", "counts"]
    assert repr(h) == text
    assert h == twin and twin == h and hash(h) == hash(twin)


def test_fit_ignores_later_mutation_of_caller_arrays():
    z = distinct_scores(300, 6)
    y = (distinct_scores(300, 7) < 0.5).astype(int)
    want = sort_slice_fit(z, y, 9)
    data = LabeledSample(z=z, y=y)
    z[:] = 0.5  # before the first fit computes the sorted view
    y[:] = 1
    h = fit_recalibrator(data, 9)
    z[::2] = 0.25  # after it
    assert (h.scheme.edges, h.values, h.counts) == want
    assert fit_recalibrator(data, 9) == h


# ------------------------------------------------------------------ apply

def test_shift_corrector_hand_values():
    g = ShiftCorrector(ShiftWeights((1.8, 0.2), "exact"))
    assert apply(g, 0.5) == 0.1
    assert apply(g, 0.9) == pytest.approx(0.5, abs=1e-12)


def test_identity_weights_fix_every_score():
    g = ShiftCorrector(ShiftWeights((1.0, 1.0), "exact"))
    assert apply(g, 0.37) == 0.37


def test_shift_corrector_pins_endpoints_exactly():
    g = ShiftCorrector(ShiftWeights((1.8, 0.2), "exact"))
    assert apply(g, 0.0) == 0.0
    assert apply(g, 1.0) == 1.0


def test_apply_dispatch_and_validation():
    one_bin = PiecewiseRecalibrator(BinningScheme((0.0, 1.0)), (0.3,), (1,))
    unit = ShiftCorrector(ShiftWeights((1.0, 1.0), "exact"))
    assert apply(one_bin, 0.9) == 0.3
    assert apply(unit, 0.5) == 0.5
    with pytest.raises(ValueError):
        apply(one_bin, 1.2)
    with pytest.raises(TypeError):
        apply(object(), 0.5)


def test_shift_corrector_strictly_increasing():
    g = ShiftCorrector(ShiftWeights((1.8, 0.2), "exact"))
    grid = np.linspace(0.0, 1.0, 201)
    out = [apply(g, z) for z in grid]
    assert all(a < b for a, b in zip(out, out[1:]))


def test_shift_corrector_composition_multiplies_weights():
    g1 = ShiftCorrector(ShiftWeights((1.8, 0.2), "exact"))
    g2 = ShiftCorrector(ShiftWeights((0.7, 1.9), "exact"))
    g12 = ShiftCorrector(ShiftWeights((1.8 * 0.7, 0.2 * 1.9), "exact"))
    for z in np.linspace(0.0, 1.0, 101):
        assert apply(g1, apply(g2, z)) == pytest.approx(apply(g12, z), abs=1e-12)


def test_shift_corrector_lipschitz_constant():
    rng = np.random.Generator(np.random.PCG64(5))
    for w in ((1.8, 0.2), (0.5, 2.0), (1.0, 1.0), (3.0, 2.5)):
        g = ShiftCorrector(ShiftWeights(w, "exact"))
        L = max(w[1] / w[0], w[0] / w[1])
        a = rng.random(10_000)
        b = rng.random(10_000)
        ga = apply_batch(g, a)
        gb = apply_batch(g, b)
        assert np.all(np.abs(ga - gb) <= L * np.abs(a - b) + 1e-12)


# ------------------------------------------------------------- apply_batch

def test_apply_batch_agrees_bitwise_with_apply():
    small = LabeledSample(z=distinct_scores(60, 2), y=(distinct_scores(60, 3) < 0.5).astype(int))
    large = LabeledSample(z=distinct_scores(5000, 4), y=(distinct_scores(5000, 5) < 0.5).astype(int))
    g = ShiftCorrector(ShiftWeights((1.8, 0.2), "exact"))
    one_bin = PiecewiseRecalibrator(BinningScheme((0.0, 1.0)), (0.25,), (1,))
    grid = np.concatenate(([0.0, 1.0], np.linspace(0.0, 1.0, 513)))
    pw_large = fit_recalibrator(large, 501)
    # 2,000 points: every fitted edge plus fresh scores.
    held = np.concatenate((pw_large.scheme.edge_array, distinct_scores(1498, 6)))
    for pw, zs in ((fit_recalibrator(small, 6), grid), (pw_large, held)):
        for h in (pw, g, compose(g, pw), one_bin):
            batch = apply_batch(h, zs)
            scalar = np.array([apply(h, z) for z in zs])
            assert batch.tolist() == scalar.tolist()


def test_apply_batch_on_a_zero_d_array():
    # A 0-d input gives a numpy scalar, also where the score's grid cell
    # holds several edges and takes the binary search.
    pw = PiecewiseRecalibrator(BinningScheme((0.0, 1e-4, 2e-4, 1.0)), (0.1, 0.2, 0.3), (1, 1, 1))
    assert pw.scheme._cells[2]
    g = ShiftCorrector(ShiftWeights((1.8, 0.2), "exact"))
    for h in (pw, g, compose(g, pw)):
        for z in (0.0, 1.5e-4, 0.5, 1.0):
            got = apply_batch(h, np.float64(z))
            assert np.ndim(got) == 0 and got == apply(h, z)


def test_apply_batch_validation():
    unit = ShiftCorrector(ShiftWeights((1.0, 1.0), "exact"))
    for bad in ([0.5, 1.5], [-0.1, 0.5], [0.5, float("nan")], [float("nan")]):
        with pytest.raises(ValueError):
            apply_batch(unit, bad)
    assert apply_batch(unit, []).size == 0
    with pytest.raises(TypeError):
        apply_batch(object(), [0.5])


# -------------------------------------------------------- estimate_weights

def test_estimate_weights_hand_example():
    labels_P = [0] * 500 + [1] * 500
    labels_Q = [0] * 90 + [1] * 10
    w = estimate_weights(labels_P, labels_Q)
    assert w.w == (1.8, 0.2)
    assert w.provenance == "plug-in"
    assert w.p_hat == (0.5, 0.5)
    assert w.q_hat == (0.9, 0.1)


def test_estimate_weights_identical_distributions():
    labels = [0, 1, 0, 1, 1, 0]
    w = estimate_weights(labels, labels)
    assert w.w == (1.0, 1.0)


def test_estimate_weights_class_absent():
    with pytest.raises(ClassAbsentError):
        estimate_weights([1, 1, 1], [0, 1])
    with pytest.raises(ClassAbsentError):
        estimate_weights([0, 1], [0, 0, 0])


def test_estimate_weights_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_weights([], [0, 1])
    with pytest.raises(ValueError):
        estimate_weights([0, 2], [0, 1])
    # Before, a 2-D array's labels were counted flat: w = (1.0, 1.0).
    for source, target, name in (([[0, 1]], [1, 0], "source"), ([0, 1], [[1, 0]], "target")):
        with pytest.raises(ValueError, match=f"^the {name} labels must be a nonempty one-dim"):
            estimate_weights(source, target)


# ---------------------------------------------------------------- compose

def test_compose_identity_weights_equals_inner():
    data = LabeledSample(z=distinct_scores(40, 9), y=(distinct_scores(40, 10) < 0.5).astype(int))
    h = fit_recalibrator(data, 5)
    comp = compose(ShiftCorrector(ShiftWeights((1.0, 1.0), "exact")), h)
    for z in np.linspace(0.0, 1.0, 101):
        assert apply(comp, z) == apply(h, z)


def test_compose_flatten_values_and_edges():
    data = LabeledSample(z=[0.1, 0.2, 0.3, 0.4], y=[0, 1, 0, 1])
    h = fit_recalibrator(data, 2)
    comp = compose(ShiftCorrector(ShiftWeights((1.8, 0.2), "exact")), h)
    flat = comp.flatten()
    assert flat.values == (0.1, 0.1)
    assert flat.scheme.edges == h.scheme.edges
    assert flat.counts == h.counts
    grid = np.linspace(0.0, 1.0, 101)
    assert apply_batch(flat, grid).tolist() == apply_batch(comp, grid).tolist()


def test_compose_rejects_wrong_component_types():
    data = LabeledSample(z=[0.1, 0.2, 0.3, 0.4], y=[0, 1, 0, 1])
    h = fit_recalibrator(data, 2)
    g = ShiftCorrector(ShiftWeights((1.8, 0.2), "exact"))
    with pytest.raises(TypeError):
        compose(h, h)
    with pytest.raises(TypeError):
        compose(g, g)
    # The check lives in Composite itself, so every construction path has it.
    with pytest.raises(TypeError):
        Composite(outer=h, inner=g)
    with pytest.raises(TypeError):
        Composite(outer=g, inner=g)


# -------------------------------------------------------- type validation

def test_labeled_sample_validation():
    with pytest.raises(ValueError):
        LabeledSample(z=[0.5, 1.2], y=[0, 1])
    with pytest.raises(ValueError):
        LabeledSample(z=[0.5, 0.6], y=[0, 2])
    with pytest.raises(ValueError):
        LabeledSample(z=[0.5], y=[0, 1])
    with pytest.raises(ValueError):
        LabeledSample(z=[], y=[])
    for bad in (0.5, float("nan"), "1"):
        with pytest.raises(ValueError):
            LabeledSample(z=[0.5, 0.6], y=[0, bad])
        with pytest.raises(ValueError):
            estimate_weights([0, 1, bad], [0, 1])
    for bad in ([0.5, float("nan")], [float("nan"), float("nan")]):
        with pytest.raises(ValueError):
            LabeledSample(z=bad, y=[0, 1])
    for bad in (np.array([0, -1], np.int8), np.array([0, 2], np.uint8),
                np.array([1, -1]), np.array([0, 256], np.int16)):
        with pytest.raises(ValueError):
            LabeledSample(z=[0.5, 0.6], y=bad)
        with pytest.raises(ValueError):
            estimate_weights(bad, [0, 1])
    for labels in ([True, False], np.array([True, False]), np.array([1, 0], np.uint8),
                   np.array([1, 0], np.int8), [1.0, 0.0], [1, 0.0]):
        s = LabeledSample(z=[0.5, 0.6], y=labels)
        assert s.y.dtype == np.int8 and s.y.tolist() == [1, 0], labels
    y = np.array([0, 1])
    s = LabeledSample(z=[0.5, 0.6], y=y)
    assert s.n == 2
    y[0] = 7  # the sample holds its own copy
    assert s.y.tolist() == [0, 1]
    with pytest.raises(ValueError):
        s.z[0] = 0.9  # arrays are frozen


HALVES = PiecewiseRecalibrator(BinningScheme((0.0, 0.5, 1.0)), (0.25, 0.75), (1, 1))
UNIT = BinningScheme((0.0, 1.0))


NUMBER_CASES = {
    # float() read these strings and bools as numbers, and int() truncated
    # fractional counts.
    "string-edges-values-bool-count":
        (lambda: PiecewiseRecalibrator(BinningScheme("01"), "0", [True]), TypeError),
    "string-w": (lambda: ShiftWeights(w="12", provenance="exact"), TypeError),
    "string-q_hat": (lambda: ShiftWeights((1.6, 0.4), "plug-in", p_hat=(0.5, 0.5),
                                          q_hat=("0.8", 0.2)), TypeError),
    "np-true-count": (lambda: PiecewiseRecalibrator(UNIT, (0.5,), (np.True_,)), TypeError),
    "true-count": (lambda: PiecewiseRecalibrator(UNIT, (0.5,), (True,)), TypeError),
    "np-false-value": (lambda: PiecewiseRecalibrator(UNIT, (np.bool_(False),), (1,)), TypeError),
    "string-array-edges": (lambda: BinningScheme(np.array(["0", "1"])), TypeError),
    "bytes-edges": (lambda: BinningScheme(b"\x00\x01"), TypeError),
    "nested-edges": (lambda: BinningScheme([[0.0], [1.0]]), TypeError),
    "count-2.5": (lambda: PiecewiseRecalibrator(UNIT, (0.5,), (2.5,)), TypeError),
    "count-3.0": (lambda: PiecewiseRecalibrator(UNIT, (0.5,), (3.0,)), TypeError),
    "string-bin-mass": (lambda: balance_alpha(["1"]), TypeError),
    "bool-bin-mean": (lambda: approx_epsilon(HALVES, [0.25, True]), TypeError),
    # Scores: numpy reads these as strings or bools, not as numbers.
    "string-sample-scores": (lambda: LabeledSample(z=["0.5", "1"], y=[1, 0]), TypeError),
    "bool-sample-scores":
        (lambda: LabeledSample(z=np.array([True, False]), y=[1, 0]), TypeError),
    "string-apply_batch": (lambda: apply_batch(HALVES, "0.7"), TypeError),
    "string-apply": (lambda: apply(HALVES, "0.7"), TypeError),
    "np-true-apply": (lambda: apply(HALVES, np.True_), TypeError),
    "string-umb_fit": (lambda: umb_fit(["0.1", "0.9", "0.5"], 2), TypeError),
    # The task read these priors through float(), the config kept a
    # Decimal delta, a truthy string turned the desk-scale caps off, and a
    # dict of method names iterated as its keys. (A str delta already
    # raised, by accident, in the range comparison.)
    "string-task-pi": (lambda: GaussianMixtureTask("0.3"), TypeError),
    "decimal-task-pi": (lambda: GaussianMixtureTask(Decimal("0.3")), TypeError),
    "string-config-delta": (lambda: ExperimentConfig(delta="0.1"), TypeError),
    "decimal-config-delta": (lambda: ExperimentConfig(delta=Decimal("0.1")), TypeError),
    "string-full_scale": (lambda: ExperimentConfig(full_scale="no"), TypeError),
    "string-full_scale-over-cap":
        (lambda: ExperimentConfig(full_scale="no", n_grid=(2_000_000,)), TypeError),
    "dict-methods": (lambda: ExperimentConfig(methods={"Source": 1}), TypeError),
    # Subnormal weights are real numbers, but the corrector's products
    # underflow: at (5e-324, 5e-324) it mapped 0.5 to nan.
    "subnormal-w": (lambda: ShiftWeights((5e-324, 5e-324), "exact"), ValueError),
    "subnormal-w1": (lambda: ShiftWeights((1.0, 1e-320), "exact"), ValueError),
    # Generators and numpy real scalars are still numbers.
    "generator-edges": (lambda: BinningScheme(u for u in (0.0, 0.5, 1.0)), HALVES.scheme),
    "numpy-scalars": (lambda: PiecewiseRecalibrator(
        BinningScheme((np.float64(0.0), np.float32(0.5), np.int64(1))),
        (np.float64(0.25), np.float16(0.75)), (np.int64(1), np.uint8(1))), HALVES),
    "numpy-scalar-w": (lambda: ShiftWeights(iter((np.float32(0.5), 2)), "exact"),
                       ShiftWeights((0.5, 2.0), "exact")),
    "numpy-scalar-apply": (lambda: apply(HALVES, np.float32(0.75)), 0.75),
    "smallest-normal-w": (lambda: ShiftWeights((2.2250738585072014e-308, 1), "exact"),
                          ShiftWeights((2.2250738585072014e-308, 1.0), "exact")),
}


@pytest.mark.parametrize("build, expected", NUMBER_CASES.values(), ids=NUMBER_CASES.keys())
def test_number_fields_take_real_numbers_only(build, expected):
    if expected in (TypeError, ValueError):
        with pytest.raises(expected):
            build()
    else:
        # repr tells the float 1.0 from the int 1 and from np.float64(1.0).
        assert repr(build()) == repr(expected)


def test_binning_scheme_validation():
    with pytest.raises(ValueError):
        BinningScheme((0.0,))
    with pytest.raises(ValueError):
        BinningScheme((0.1, 1.0))
    with pytest.raises(ValueError):
        BinningScheme((0.0, 0.9))
    with pytest.raises(DegenerateBinsError):
        BinningScheme((0.0, 0.5, 0.5, 1.0))
    with pytest.raises(ValueError):
        BinningScheme((0.0, 0.6, 0.4, 1.0))


def test_piecewise_recalibrator_validation():
    scheme = BinningScheme((0.0, 0.5, 1.0))
    with pytest.raises(ValueError):
        PiecewiseRecalibrator(scheme, (0.5,), (1, 1))
    with pytest.raises(ValueError):
        PiecewiseRecalibrator(scheme, (0.5, 1.5), (1, 1))
    with pytest.raises(EmptyBinError):
        PiecewiseRecalibrator(scheme, (0.5, 0.5), (1, 0))


def test_shift_weights_validation():
    with pytest.raises(ValueError):
        ShiftWeights((1.0,), "exact")
    with pytest.raises(ValueError):
        ShiftWeights((1.0, 0.0), "exact")
    with pytest.raises(ValueError):
        ShiftWeights((1.0, 1.0), "measured")
    with pytest.raises(ValueError):
        ShiftWeights((1.0, 1.0), "plug-in")  # missing frequencies
    with pytest.raises(ValueError):
        ShiftWeights((1.7, 0.2), "plug-in", p_hat=(0.5, 0.5), q_hat=(0.9, 0.1))
    with pytest.raises(ValueError):
        ShiftWeights((1.0, 1.0, 1.0), "exact")  # binary weights only
    with pytest.raises(ValueError):
        ShiftWeights((1.8, 0.2), "plug-in", p_hat=(0.5, 0.5, 0.0), q_hat=(0.9, 0.1))
    for p_hat, q_hat in (((0.5, 0.5), (0.9, 0.1)), (("a", "b"), None), (None, (0.9, 0.1))):
        with pytest.raises(ValueError, match="exact weights carry no class frequencies"):
            ShiftWeights((1.8, 0.2), "exact", p_hat=p_hat, q_hat=q_hat)
    ShiftWeights((1.8, 0.2), "plug-in", p_hat=(0.5, 0.5), q_hat=(0.9, 0.1))


def test_shift_corrector_needs_binary_weights():
    with pytest.raises(ValueError):
        ShiftCorrector(ShiftWeights((1.0, 1.0, 1.0), "exact"))


def test_composite_flatten_preserves_scheme_object():
    data = LabeledSample(z=[0.1, 0.2, 0.3, 0.4], y=[0, 1, 0, 1])
    h = fit_recalibrator(data, 2)
    comp = Composite(ShiftCorrector(ShiftWeights((1.0, 1.0), "exact")), h)
    assert comp.flatten().scheme is h.scheme

"""Binning, fitting, shift correction, and the recalibrator algebra."""

import dataclasses

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
    apply,
    apply_batch,
    compose,
    estimate_weights,
    fit_recalibrator,
    umb_fit,
)
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
    assert [_bin_indices(scheme, v) for v in z] == want.tolist()


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


def test_sorted_view_is_cached_and_read_only():
    data = LabeledSample(z=distinct_scores(200, 4), y=(distinct_scores(200, 5) < 0.3).astype(int))
    first = fit_recalibrator(data, 7)
    zs, zs_pos = data.sorted_view
    assert fit_recalibrator(data, 7) == first
    assert data.sorted_view[0] is zs and data.sorted_view[1] is zs_pos
    assert zs.tolist() == sorted(data.z.tolist())
    assert zs_pos.tolist() == sorted(data.z[data.y == 1].tolist())
    for arr in (zs, zs_pos):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.5

    rng = np.random.Generator(np.random.PCG64(9))
    labels = (rng.random(5_000) < 0.4).astype(int)
    signed_zeros = np.array([0.0, -0.0, 0.5, -0.0, 1.0, 0.0, -0.0])
    samples = [
        sample(GaussianMixtureTask(0.5), 100_000, seed=3),
        LabeledSample(z=np.round(rng.random(5_000), 3), y=labels),  # ties
        LabeledSample(z=signed_zeros, y=[1, 1, 0, 0, 1, 0, 1]),
        LabeledSample(z=distinct_scores(50, 6), y=np.zeros(50, dtype=int)),  # no positives
        LabeledSample(z=distinct_scores(50, 7), y=np.ones(50, dtype=int)),
    ]
    for data in samples:
        zs, zs_pos = data.sorted_view
        assert np.array_equal(zs.view(np.uint64), np.sort(data.z).view(np.uint64))
        want = np.sort(data.z[data.y == 1])
        assert np.array_equal(zs_pos.view(np.uint64), want.view(np.uint64))
        assert not zs.flags.writeable and not zs_pos.flags.writeable


def test_sorted_view_stays_out_of_fields_eq_and_repr():
    a = LabeledSample(z=[0.3], y=[1])
    b = LabeledSample(z=[0.3], y=[1])
    text = repr(a)
    a.sorted_view
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
    ShiftWeights((1.8, 0.2), "plug-in", p_hat=(0.5, 0.5), q_hat=(0.9, 0.1))


def test_shift_corrector_needs_binary_weights():
    with pytest.raises(ValueError):
        ShiftCorrector(ShiftWeights((1.0, 1.0, 1.0), "exact"))


def test_composite_flatten_preserves_scheme_object():
    data = LabeledSample(z=[0.1, 0.2, 0.3, 0.4], y=[0, 1, 0, 1])
    h = fit_recalibrator(data, 2)
    comp = Composite(ShiftCorrector(ShiftWeights((1.0, 1.0), "exact")), h)
    assert comp.flatten().scheme is h.scheme

"""Binning, fitting, shift correction, and the recalibrator algebra."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recalib.core import (
    BinningScheme,
    ClassAbsentError,
    Composite,
    Constant,
    DegenerateBinsError,
    EmptyBinError,
    Identity,
    LabeledSample,
    PiecewiseRecalibrator,
    ShiftCorrector,
    ShiftWeights,
    apply,
    apply_batch,
    bin_index,
    compose,
    estimate_weights,
    fit_recalibrator,
    shift_correct_multiclass,
    umb_fit,
)

from oracles import bincount_fit_ref, sort_slice_fit


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


# -------------------------------------------------------------- bin_index

def test_bin_index_right_closed_edges():
    scheme = BinningScheme((0.0, 0.2, 1.0))
    assert bin_index(scheme, 0.2) == 1
    assert bin_index(scheme, 0.200001) == 2
    assert bin_index(scheme, 1.0) == 2
    assert bin_index(scheme, 0.0) == 1


def test_bin_index_rejects_out_of_range():
    scheme = BinningScheme((0.0, 0.2, 1.0))
    with pytest.raises(ValueError):
        bin_index(scheme, 1.0000001)
    with pytest.raises(ValueError):
        bin_index(scheme, -0.1)


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
    b = bin_index(scheme, z)
    assert 1 <= b <= scheme.B
    # Membership of the returned bin, and of no other bin.
    edges = scheme.edges
    members = [
        (edges[i] <= z <= edges[i + 1]) if i == 0 else (edges[i] < z <= edges[i + 1])
        for i in range(scheme.B)
    ]
    assert members[b - 1]
    assert sum(members) == 1


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 200), B=st.integers(1, 50))
def test_count_balance_on_distinct_scores(seed, n, B):
    B = min(B, n)
    z = distinct_scores(n, seed)
    scheme = umb_fit(z, B)
    counts = np.zeros(scheme.B, dtype=int)
    for v in z:
        counts[bin_index(scheme, v) - 1] += 1
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


def test_sorted_view_stays_out_of_fields_eq_and_repr():
    a = LabeledSample(z=[0.3], y=[1])
    b = LabeledSample(z=[0.3], y=[1])
    text = repr(a)
    a.sorted_view
    assert [f.name for f in dataclasses.fields(LabeledSample)] == ["z", "y"]
    assert repr(a) == text
    assert a == b and b == a


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
    assert apply(Constant(0.3), 0.9) == 0.3
    assert apply(Identity(), 0.42) == 0.42
    with pytest.raises(ValueError):
        apply(Identity(), 1.2)
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
    data = LabeledSample(z=distinct_scores(60, 2), y=(distinct_scores(60, 3) < 0.5).astype(int))
    pw = fit_recalibrator(data, 6)
    g = ShiftCorrector(ShiftWeights((1.8, 0.2), "exact"))
    grid = np.concatenate(([0.0, 1.0], np.linspace(0.0, 1.0, 513)))
    for h in (pw, g, compose(g, pw), Constant(0.25), Identity()):
        batch = apply_batch(h, grid)
        scalar = np.array([apply(h, z) for z in grid])
        assert batch.tolist() == scalar.tolist()


def test_apply_batch_validation():
    with pytest.raises(ValueError):
        apply_batch(Identity(), [0.5, 1.5])
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


# -------------------------------------------- shift_correct_multiclass

def test_multiclass_uniform_weights_fix_alpha():
    assert shift_correct_multiclass((1, 1, 1), (0.2, 0.3, 0.5)) == (0.2, 0.3, 0.5)


def test_multiclass_binary_hand_value():
    assert shift_correct_multiclass((1.8, 0.2), (0.5, 0.5)) == (0.9, 0.1)


def test_multiclass_simplex_vertex_is_fixed():
    assert shift_correct_multiclass((2, 3, 5), (1, 0, 0)) == (1.0, 0.0, 0.0)


def test_multiclass_agrees_with_binary_corrector():
    g = ShiftCorrector(ShiftWeights((1.8, 0.2), "exact"))
    for z in np.linspace(0.0, 1.0, 101):
        out = shift_correct_multiclass((1.8, 0.2), (1.0 - z, z))
        assert out[1] == pytest.approx(apply(g, z), abs=1e-14)
        assert out[0] + out[1] == pytest.approx(1.0, abs=1e-14)


def test_multiclass_validation():
    with pytest.raises(ValueError):
        shift_correct_multiclass((1, 1), (0.3, 0.3))  # off the simplex
    with pytest.raises(ValueError):
        shift_correct_multiclass((1, -1), (0.5, 0.5))
    with pytest.raises(ValueError):
        shift_correct_multiclass((1, 1, 1), (0.5, 0.5))
    with pytest.raises(ValueError):
        shift_correct_multiclass((1, 1), (-0.1, 1.1))


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
    s = LabeledSample(z=[0.5, 0.6], y=[0, 1])
    assert s.n == 2
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
    w = ShiftWeights((1.8, 0.2), "plug-in", p_hat=(0.5, 0.5), q_hat=(0.9, 0.1))
    assert w.n_classes == 2


def test_shift_corrector_needs_binary_weights():
    with pytest.raises(ValueError):
        ShiftCorrector(ShiftWeights((1.0, 1.0, 1.0), "exact"))


def test_constant_validation():
    with pytest.raises(ValueError):
        Constant(1.2)
    with pytest.raises(ValueError):
        Constant(-0.1)


def test_composite_flatten_preserves_scheme_object():
    data = LabeledSample(z=[0.1, 0.2, 0.3, 0.4], y=[0, 1, 0, 1])
    h = fit_recalibrator(data, 2)
    comp = Composite(ShiftCorrector(ShiftWeights((1.0, 1.0), "exact")), h)
    assert comp.flatten().scheme is h.scheme

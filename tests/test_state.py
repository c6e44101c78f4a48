from __future__ import annotations

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import make_layout, random_state, random_unitary
from qnearest import (
    StateVector,
    apply_controlled,
    comparison_gate,
    hadamard,
    init_basis_state,
    inner_product,
    marginal_probabilities,
    pauli_x,
    rx,
)
from qnearest.errors import InvalidInputError, NormDriftError

dims_lists = st.lists(st.integers(2, 4), min_size=1, max_size=4)


def test_single_qubit_ground_state():
    state = init_basis_state(make_layout(2), (0,))
    assert np.array_equal(state.amplitudes, [1, 0])


def test_basis_index_is_row_major():
    state = init_basis_state(make_layout(2, 2), (1, 0))
    assert np.array_equal(state.amplitudes, [0, 0, 1, 0])


def test_four_site_ancilla_start_state():
    layout = make_layout(2, 2, 2, 2)
    state = init_basis_state(layout, (0, 0, 0, 0))
    assert state.amplitudes[0] == 1
    assert np.count_nonzero(state.amplitudes) == 1


def test_basis_state_rejects_bad_digits():
    layout = make_layout(2, 3)
    with pytest.raises(InvalidInputError):
        init_basis_state(layout, (2, 0))
    with pytest.raises(InvalidInputError):
        init_basis_state(layout, (0,))


def test_site_dimension_must_be_at_least_two():
    with pytest.raises(InvalidInputError):
        make_layout(2, 1)


@given(dims_lists, st.integers(0, 10_000))
def test_flatten_unflatten_roundtrip(dims, pick):
    layout = make_layout(*dims)
    assert layout.total_dimension == math.prod(dims)
    index = pick % layout.total_dimension
    assert layout.flatten(layout.unflatten(index)) == index


@given(dims_lists)
def test_strides_match_row_major_definition(dims):
    layout = make_layout(*dims)
    for i in range(len(dims)):
        assert layout.strides[i] == math.prod(dims[i + 1 :])


def test_identity_application_is_a_no_op():
    layout = make_layout(2, 2)
    state = init_basis_state(layout, (0, 1))
    out = apply_controlled(state, (), 0, np.eye(2))
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_controlled_flip_touches_only_matching_branch():
    # (|000>|0> + |000>|1>)/sqrt(2), flip copy bit 2 where the last site is 1
    layout = make_layout(2, 2, 2, 2)
    amps = np.zeros(16, dtype=complex)
    amps[layout.flatten((0, 0, 0, 0))] = 2 ** -0.5
    amps[layout.flatten((0, 0, 0, 1))] = 2 ** -0.5
    state = StateVector.from_amplitudes(layout, amps)
    out = apply_controlled(state, ((3, 1),), 2, pauli_x(2).matrix)
    expected = np.zeros(16, dtype=complex)
    expected[layout.flatten((0, 0, 0, 0))] = 2 ** -0.5
    expected[layout.flatten((0, 0, 1, 1))] = 2 ** -0.5
    assert np.allclose(out.amplitudes, expected, atol=1e-15)


def _operator_of(layout, apply_fn):
    cols = []
    for i in range(layout.total_dimension):
        amps = np.zeros(layout.total_dimension, dtype=complex)
        amps[i] = 1.0
        cols.append(apply_fn(StateVector.from_amplitudes(layout, amps)).amplitudes)
    return np.array(cols).T


@pytest.mark.parametrize("theta", [math.pi / 2, math.pi / 4, 1.234])
def test_two_valued_controlled_rotations_realize_the_comparison_gate(theta):
    # rx(+theta) on (ref, copy) = (1, 0) plus rx(-theta) on (0, 1) equals the
    # 8x8 comparison gate on a ref x copy x target register.
    layout = make_layout(2, 2, 2)

    def both(state):
        state = apply_controlled(state, ((0, 1), (1, 0)), 2, rx(theta).matrix)
        return apply_controlled(state, ((0, 0), (1, 1)), 2, rx(-theta).matrix)

    assert np.allclose(_operator_of(layout, both), comparison_gate(theta).matrix, atol=1e-14)


@given(st.lists(st.integers(2, 3), min_size=1, max_size=4), st.integers(0, 2 ** 32 - 1))
def test_kernel_matches_a_dense_reconstruction(dims, seed):
    # independent oracle: build the whole operator column by column straight
    # from the definition and compare against the strided kernel
    rng = np.random.default_rng(seed)
    layout = make_layout(*dims)
    target = int(rng.integers(len(dims)))
    free = [s for s in range(len(dims)) if s != target]
    controls = tuple(
        (s, int(rng.integers(dims[s])))
        for s in rng.choice(free, size=int(rng.integers(len(free) + 1)), replace=False)
    )
    mat = random_unitary(rng, dims[target])

    dense = np.zeros((layout.total_dimension, layout.total_dimension), dtype=complex)
    for col in range(layout.total_dimension):
        digits = list(layout.unflatten(col))
        if all(digits[s] == v for s, v in controls):
            for row_digit in range(dims[target]):
                image = digits.copy()
                image[target] = row_digit
                dense[layout.flatten(image), col] = mat[row_digit, digits[target]]
        else:
            dense[col, col] = 1.0

    state = StateVector.from_amplitudes(layout, random_state(rng, layout.total_dimension))
    out = apply_controlled(state, controls, target, mat)
    assert np.max(np.abs(out.amplitudes - dense @ state.amplitudes)) <= 1e-12


def test_non_unitary_matrix_is_rejected():
    state = init_basis_state(make_layout(2), (0,))
    with pytest.raises(InvalidInputError):
        apply_controlled(state, (), 0, np.array([[1, 0], [0, 2]]))


@pytest.mark.parametrize(
    "controls",
    [(), ((0, 1),)],
    ids=["no-controls", "zero-amplitude-block"],
)
def test_nan_matrix_is_rejected_as_invalid_input(controls):
    # |00> has no amplitude where site 0 reads 1, so the kernel's norm check
    # alone would not see that block; the matrix must fail before the kernel
    state = init_basis_state(make_layout(2, 2), (0, 0))
    with pytest.raises(InvalidInputError):
        apply_controlled(state, controls, 1, np.array([[math.nan, 0], [0, 1]]))


def test_control_overlapping_target_is_rejected():
    state = init_basis_state(make_layout(2, 2), (0, 0))
    with pytest.raises(InvalidInputError):
        apply_controlled(state, ((0, 1),), 0, pauli_x(2).matrix)
    with pytest.raises(InvalidInputError):
        apply_controlled(state, ((1, 0), (1, 1)), 0, pauli_x(2).matrix)


@given(dims_lists, st.integers(0, 3), st.integers(0, 10_000))
def test_shift_gate_increments_target_digit(dims, site_pick, digit_pick):
    layout = make_layout(*dims)
    site = site_pick % len(dims)
    digits = list(layout.unflatten(digit_pick % layout.total_dimension))
    state = init_basis_state(layout, digits)
    out = apply_controlled(state, (), site, pauli_x(dims[site]).matrix)
    digits[site] = (digits[site] + 1) % dims[site]
    assert np.allclose(out.amplitudes, init_basis_state(layout, digits).amplitudes, atol=1e-15)


@given(dims_lists, st.integers(0, 2 ** 32 - 1))
def test_application_is_linear(dims, seed):
    layout = make_layout(*dims)
    rng = np.random.default_rng(seed)
    a = random_state(rng, layout.total_dimension)
    b = random_state(rng, layout.total_dimension)
    alpha = complex(rng.standard_normal(), rng.standard_normal())
    beta = complex(rng.standard_normal(), rng.standard_normal())
    combo = alpha * a + beta * b
    norm = np.linalg.norm(combo)
    if norm < 1e-6:
        return
    site = int(rng.integers(len(dims)))
    mat = random_unitary(rng, dims[site])
    out_combo = apply_controlled(
        StateVector.from_amplitudes(layout, combo / norm), (), site, mat
    )
    out_a = apply_controlled(StateVector.from_amplitudes(layout, a), (), site, mat)
    out_b = apply_controlled(StateVector.from_amplitudes(layout, b), (), site, mat)
    recombined = (alpha * out_a.amplitudes + beta * out_b.amplitudes) / norm
    assert np.max(np.abs(out_combo.amplitudes - recombined)) <= 1e-12


@given(st.integers(0, 2 ** 32 - 1))
def test_commuting_controlled_gates_commute(seed):
    rng = np.random.default_rng(seed)
    layout = make_layout(2, 3, 2, 2)
    start = StateVector.from_amplitudes(layout, random_state(rng, layout.total_dimension))
    first = ((0, int(rng.integers(2))),), 3, rx(float(rng.uniform(-3, 3))).matrix
    second = ((1, int(rng.integers(3))),), 3, rx(float(rng.uniform(-3, 3))).matrix
    one = apply_controlled(apply_controlled(start, *first), *second)
    two = apply_controlled(apply_controlled(start, *second), *first)
    assert np.max(np.abs(one.amplitudes - two.amplitudes)) <= 1e-12


@given(st.integers(0, 2 ** 32 - 1))
def test_negative_control_equals_x_sandwich(seed):
    rng = np.random.default_rng(seed)
    layout = make_layout(2, 2)
    start = StateVector.from_amplitudes(layout, random_state(rng, 4))
    mat = random_unitary(rng, 2)
    direct = apply_controlled(start, ((0, 0),), 1, mat)
    flip = pauli_x(2).matrix
    sandwich = apply_controlled(start, (), 0, flip)
    sandwich = apply_controlled(sandwich, ((0, 1),), 1, mat)
    sandwich = apply_controlled(sandwich, (), 0, flip)
    assert np.max(np.abs(direct.amplitudes - sandwich.amplitudes)) <= 1e-12


@settings(max_examples=25)
@given(st.integers(0, 2 ** 32 - 1))
def test_norm_survives_random_gate_sequences(seed):
    rng = np.random.default_rng(seed)
    layout = make_layout(2, 2, 3, 2)
    state = StateVector.from_amplitudes(layout, random_state(rng, layout.total_dimension))
    for _ in range(50):
        target = int(rng.integers(4))
        free = [s for s in range(4) if s != target]
        controls = tuple(
            (s, int(rng.integers(layout.dims[s])))
            for s in rng.choice(free, size=int(rng.integers(3)), replace=False)
        )
        state = apply_controlled(state, controls, target, random_unitary(rng, layout.dims[target]))
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-10


def test_unnormalized_amplitudes_are_rejected():
    layout = make_layout(2)
    with pytest.raises(NormDriftError):
        StateVector.from_amplitudes(layout, [1.0, 1.0])


def test_amplitudes_are_frozen():
    state = init_basis_state(make_layout(2), (0,))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_marginal_of_basis_state():
    layout = make_layout(2, 2, 2, 2)
    state = init_basis_state(layout, (0, 0, 0, 0))
    assert marginal_probabilities(state, (3,)) == {(0,): 1.0, (1,): 0.0}


def test_marginal_of_entangled_pair():
    # (|010>|0> + |110>|1>)/sqrt(2): the last site is an even coin
    layout = make_layout(2, 2, 2, 2)
    amps = np.zeros(16, dtype=complex)
    amps[layout.flatten((0, 1, 0, 0))] = 2 ** -0.5
    amps[layout.flatten((1, 1, 0, 1))] = 2 ** -0.5
    state = StateVector.from_amplitudes(layout, amps)
    marg = marginal_probabilities(state, (3,))
    assert marg[(0,)] == pytest.approx(0.5, abs=1e-12)
    assert marg[(1,)] == pytest.approx(0.5, abs=1e-12)


@given(dims_lists, st.integers(0, 2 ** 32 - 1))
def test_marginals_sum_to_one(dims, seed):
    rng = np.random.default_rng(seed)
    layout = make_layout(*dims)
    state = StateVector.from_amplitudes(layout, random_state(rng, layout.total_dimension))
    subset = tuple(range(0, len(dims), 2))
    total = sum(marginal_probabilities(state, subset).values())
    assert abs(total - 1.0) <= 1e-10


def test_marginal_respects_caller_site_order():
    layout = make_layout(2, 3)
    state = init_basis_state(layout, (1, 2))
    assert marginal_probabilities(state, (1, 0))[(2, 1)] == 1.0


def test_marginal_rejects_bad_subsets():
    state = init_basis_state(make_layout(2, 2), (0, 0))
    with pytest.raises(InvalidInputError):
        marginal_probabilities(state, ())
    with pytest.raises(InvalidInputError):
        marginal_probabilities(state, (5,))
    with pytest.raises(InvalidInputError):
        marginal_probabilities(state, (0, 0))


def test_inner_product_of_state_with_itself():
    rng = np.random.default_rng(11)
    layout = make_layout(2, 3)
    state = StateVector.from_amplitudes(layout, random_state(rng, 6))
    assert inner_product(state, state) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_examples():
    layout = make_layout(2)
    zero = init_basis_state(layout, (0,))
    one = init_basis_state(layout, (1,))
    plus = apply_controlled(zero, (), 0, hadamard().matrix)
    assert inner_product(zero, one) == 0.0
    assert inner_product(zero, plus) == pytest.approx(2 ** -0.5, abs=1e-12)


def test_inner_product_is_conjugate_linear_in_first_argument():
    layout = make_layout(2)
    zero = init_basis_state(layout, (0,))
    phased = StateVector.from_amplitudes(layout, [1j, 0.0])
    assert inner_product(phased, zero) == pytest.approx(-1j)
    assert inner_product(zero, phased) == pytest.approx(1j)


def test_inner_product_requires_matching_layouts():
    with pytest.raises(InvalidInputError):
        inner_product(
            init_basis_state(make_layout(2), (0,)),
            init_basis_state(make_layout(2, 2), (0, 0)),
        )

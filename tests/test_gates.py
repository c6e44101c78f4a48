from __future__ import annotations

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from qnearest import Gate, comparison_gate, fourier, hadamard, pauli_x, rx
from qnearest.errors import InvalidInputError

angles = st.floats(-4 * math.pi, 4 * math.pi)


def unitarity_defect(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix @ matrix.conj().T - np.eye(matrix.shape[0]))))


def test_rx_zero_is_identity():
    assert np.allclose(rx(0.0).matrix, np.eye(2), atol=1e-15)


def test_rx_pi_swaps_with_phase():
    assert np.allclose(rx(math.pi).matrix, [[0, -1j], [-1j, 0]], atol=1e-15)


def test_rx_half_pi_splits_probability_evenly():
    out = rx(math.pi / 2).matrix @ np.array([1, 0])
    assert abs(out[1]) ** 2 == pytest.approx(0.5, abs=1e-12)


@given(angles)
def test_rx_negation_is_adjoint(theta):
    assert np.allclose(rx(-theta).matrix, rx(theta).matrix.conj().T, atol=1e-12)


@given(angles, angles)
def test_rx_angles_add(alpha, beta):
    composed = rx(alpha).matrix @ rx(beta).matrix
    assert np.max(np.abs(composed - rx(alpha + beta).matrix)) <= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rx_rejects_non_finite_angles(bad):
    with pytest.raises(InvalidInputError):
        rx(bad)
    with pytest.raises(InvalidInputError):
        comparison_gate(bad)


def test_hadamard_makes_even_superposition():
    out = hadamard().matrix @ np.array([1, 0])
    assert np.allclose(out, [2 ** -0.5, 2 ** -0.5], atol=1e-15)


def test_hadamard_is_self_inverse():
    h = hadamard().matrix
    assert np.allclose(h @ h, np.eye(2), atol=1e-15)


def test_fourier_two_is_hadamard():
    assert np.max(np.abs(fourier(2).matrix - hadamard().matrix)) <= 1e-12


def test_pauli_x_flips_a_qubit():
    assert np.allclose(pauli_x(2).matrix @ [1, 0], [0, 1])
    assert np.allclose(pauli_x(2).matrix @ pauli_x(2).matrix, np.eye(2))


def test_shift_wraps_cyclically():
    out = pauli_x(3).matrix @ np.array([0, 0, 1])
    assert np.allclose(out, [1, 0, 0])


def test_fourier_column_zero_is_uniform():
    out = fourier(3).matrix @ np.array([1, 0, 0])
    assert np.allclose(out, np.full(3, 3 ** -0.5), atol=1e-14)


@pytest.mark.parametrize("ctor", [pauli_x, fourier])
def test_dimension_below_two_is_rejected(ctor):
    with pytest.raises(InvalidInputError):
        ctor(1)


@pytest.mark.parametrize("d", range(2, 9))
def test_shift_and_fourier_are_unitary(d):
    assert unitarity_defect(pauli_x(d).matrix) <= 1e-12
    assert unitarity_defect(fourier(d).matrix) <= 1e-12


@given(angles)
def test_rotations_are_unitary(theta):
    assert unitarity_defect(rx(theta).matrix) <= 1e-12
    assert unitarity_defect(comparison_gate(theta).matrix) <= 1e-12


def test_gate_constructor_rejects_non_unitary_matrices():
    with pytest.raises(InvalidInputError):
        Gate(2, np.array([[1, 1], [0, 1]]), "bad")
    with pytest.raises(InvalidInputError):
        Gate(3, np.eye(2), "wrong-shape")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the product
def test_gate_constructor_rejects_non_finite_entries(bad):
    # the unitarity defect is NaN here, which a plain `defect > tolerance` passes
    with pytest.raises(InvalidInputError):
        Gate(2, np.array([[bad, 0], [0, 1]]), "x")


@given(angles)
def test_comparison_gate_leaves_agreeing_bits_alone(theta):
    mat = comparison_gate(theta).matrix
    for row in (0, 1, 6, 7):
        expected = np.zeros(8)
        expected[row] = 1
        assert np.allclose(mat[row], expected, atol=1e-15)
        assert np.allclose(mat[:, row], expected, atol=1e-15)


def test_comparison_gate_half_pi_blocks():
    mat = comparison_gate(math.pi / 2).matrix
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    assert np.allclose(mat[4:6, 4:6], [[c, -1j * s], [-1j * s, c]], atol=1e-15)
    assert np.allclose(mat[2:4, 2:4], [[c, 1j * s], [1j * s, c]], atol=1e-15)


@given(angles)
def test_comparison_gate_blocks_are_opposite_rotations(theta):
    mat = comparison_gate(theta).matrix
    assert np.allclose(mat[2:4, 2:4], rx(-theta).matrix, atol=1e-15)
    assert np.allclose(mat[4:6, 4:6], rx(theta).matrix, atol=1e-15)
    assert np.allclose(mat[2:4, 2:4] @ mat[4:6, 4:6], np.eye(2), atol=1e-12)


@given(angles)
def test_comparison_gate_inverts_with_negated_angle(theta):
    product = comparison_gate(theta).matrix @ comparison_gate(-theta).matrix
    assert np.max(np.abs(product - np.eye(8))) <= 1e-12

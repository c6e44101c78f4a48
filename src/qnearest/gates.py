"""Explicit gate matrices used by the search circuits.

Each constructor returns a :class:`Gate` carrying the full matrix so tests
can audit entries directly instead of trusting composed behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

GATE_UNITARY_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class Gate:
    dimension: int
    matrix: np.ndarray
    label: str

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.shape != (self.dimension, self.dimension):
            raise InvalidInputError(
                f"gate {self.label!r}: matrix shape {mat.shape} does not match "
                f"dimension {self.dimension}"
            )
        defect = float(np.max(np.abs(mat @ mat.conj().T - np.eye(self.dimension))))
        if not defect <= GATE_UNITARY_TOLERANCE:  # also true for NaN
            raise InvalidInputError(f"gate {self.label!r} is not unitary (defect {defect:.3e})")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def _require_finite(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise InvalidInputError(f"angle must be finite, got {theta}")
    return theta


def rx(theta: float) -> Gate:
    """X-axis rotation: diagonal cos(theta/2), off-diagonal -i sin(theta/2)."""
    theta = _require_finite(theta)
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return Gate(2, np.array([[c, -1j * s], [-1j * s, c]]), f"RX({theta:.12g})")


def hadamard() -> Gate:
    r = 1.0 / math.sqrt(2.0)
    return Gate(2, np.array([[r, r], [r, -r]]), "H")


def pauli_x(dimension: int = 2) -> Gate:
    """Bit flip for dimension 2; the cyclic shift |k> -> |k+1 mod d> above."""
    if dimension < 2:
        raise InvalidInputError(f"dimension must be >= 2, got {dimension}")
    mat = np.zeros((dimension, dimension), dtype=np.complex128)
    for k in range(dimension):
        mat[(k + 1) % dimension, k] = 1.0
    return Gate(dimension, mat, "X" if dimension == 2 else f"X{dimension}")


def fourier(dimension: int) -> Gate:
    """Discrete Fourier gate; sends |0> to the uniform superposition."""
    if dimension < 2:
        raise InvalidInputError(f"dimension must be >= 2, got {dimension}")
    j = np.arange(dimension)
    mat = np.exp(2j * np.pi * np.outer(j, j) / dimension) / math.sqrt(dimension)
    return Gate(dimension, mat, f"F{dimension}")


def comparison_gate(theta: float) -> Gate:
    """Signed comparison rotation on (reference bit, copy bit, target qubit).

    Basis order is reference x copy x target. The gate is the identity when
    the two bits agree, rx(+theta) on the (1, 0) block and rx(-theta) on the
    (0, 1) block, so equal-magnitude differences of either sign rotate the
    target by the same amount in opposite directions.
    """
    theta = _require_finite(theta)
    mat = np.eye(8, dtype=np.complex128)
    mat[2:4, 2:4] = rx(-theta).matrix
    mat[4:6, 4:6] = rx(theta).matrix
    return Gate(8, mat, f"CMP({theta:.12g})")

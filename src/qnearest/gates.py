"""Explicit gate matrices used by the search circuits.

Each constructor returns a :class:`Gate` carrying the full matrix so tests
can audit entries directly instead of trusting composed behavior.

:func:`rx`, :func:`hadamard`, :func:`pauli_x` and :func:`fourier` are
memoized: equal arguments return the same :class:`Gate`, built and checked
once. A ``Gate`` is frozen and its matrix read-only, so one instance is
safely shared by every circuit and caller, and what the kernel reads off
its matrix (:attr:`Gate.permutation`) is worked out once per instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapacityError, InvalidInputError, _integer, _numbers

GATE_UNITARY_TOLERANCE = 1e-12
# pauli_x and fourier build a dense d x d matrix, so d^2 may not pass this
MAX_MATRIX_ENTRIES = 1 << 26
# Memo bounds. Rotations are 2x2 and a search uses up to 2n distinct angles.
# Shift and Fourier gates hold a d x d matrix, so only a few of each are
# kept: enough for a process cycling over a few element counts.
ROTATION_MEMO_SIZE = 256
MATRIX_MEMO_SIZE = 4


@dataclass(frozen=True, eq=False)
class Gate:
    dimension: int
    matrix: np.ndarray
    label: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimension",
                           _integer(self.dimension, f"gate {self.label!r}: dimension"))
        try:
            mat = _numbers(self.matrix, np.complex128)
        except (TypeError, ValueError) as err:  # strings, or ragged rows
            raise InvalidInputError(f"gate {self.label!r}: malformed matrix: {err}") from None
        if mat.shape != (self.dimension, self.dimension):
            raise InvalidInputError(
                f"gate {self.label!r}: matrix shape {mat.shape} does not match "
                f"dimension {self.dimension}"
            )
        defect = float(np.max(np.abs(mat @ mat.conj().T - np.eye(self.dimension))))
        if not defect <= GATE_UNITARY_TOLERANCE:  # also true for NaN
            raise InvalidInputError(f"gate {self.label!r} is not unitary (defect {defect:.3e})")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @cached_property
    def permutation(self) -> np.ndarray | None:
        """``move`` if the matrix is a permutation matrix (one nonzero entry
        in each row and column, each exactly 1), else None; computed on
        first read.

        Column k sends digit k to digit ``k + move[k]``. A permutation with
        other phases is None: the kernel runs it as any other matrix.
        """
        matrix, d = self.matrix, self.dimension
        # a unitary whose d nonzero entries are all exactly 1 is a permutation matrix
        if np.count_nonzero(matrix) != d or np.count_nonzero(matrix == 1) != d:
            return None
        cols, rows = np.nonzero(matrix.T)  # in column-major order, so ``cols`` is 0, 1, ...
        move = rows - cols
        move.flags.writeable = False
        return move


def _require_finite(theta: float) -> float:
    try:
        theta = float(theta)
    except (TypeError, ValueError):
        raise InvalidInputError(f"angle must be a real number, got {theta!r}") from None
    if not math.isfinite(theta):
        raise InvalidInputError(f"angle must be finite, got {theta}")
    return theta


@lru_cache(maxsize=ROTATION_MEMO_SIZE)
def rx(theta: float) -> Gate:
    """X-axis rotation: diagonal cos(theta/2), off-diagonal -i sin(theta/2)."""
    # -0.0 and 0.0 share one memo entry; + 0.0 keeps its label from
    # depending on which of them was asked for first
    theta = _require_finite(theta) + 0.0
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return Gate(2, np.array([[c, -1j * s], [-1j * s, c]]), f"RX({theta:.12g})")


@lru_cache(maxsize=1)
def hadamard() -> Gate:
    r = 1.0 / math.sqrt(2.0)
    return Gate(2, np.array([[r, r], [r, -r]]), "H")


def _matrix_dimension(dimension: int) -> int:
    """``dimension`` as an int >= 2, or :class:`CapacityError` before any
    allocation if its d x d matrix would pass ``MAX_MATRIX_ENTRIES`` entries."""
    dimension = _integer(dimension, "dimension")
    if dimension < 2:
        raise InvalidInputError(f"dimension must be >= 2, got {dimension}")
    if dimension * dimension > MAX_MATRIX_ENTRIES:
        raise CapacityError(f"a {dimension}-level gate needs {dimension * dimension} "
                            f"matrix entries; dense gates stop at {MAX_MATRIX_ENTRIES}")
    return dimension


# typed memos: pauli_x(dimension=2.0) must be rejected, not served the
# entry of pauli_x(dimension=2), whose key compares equal
@lru_cache(maxsize=MATRIX_MEMO_SIZE, typed=True)
def pauli_x(dimension: int = 2) -> Gate:
    """Bit flip for dimension 2; the cyclic shift |k> -> |k+1 mod d> above."""
    dimension = _matrix_dimension(dimension)
    mat = np.zeros((dimension, dimension), dtype=np.complex128)
    for k in range(dimension):
        mat[(k + 1) % dimension, k] = 1.0
    return Gate(dimension, mat, "X" if dimension == 2 else f"X{dimension}")


@lru_cache(maxsize=MATRIX_MEMO_SIZE, typed=True)
def fourier(dimension: int) -> Gate:
    """Discrete Fourier gate; sends |0> to the uniform superposition."""
    dimension = _matrix_dimension(dimension)
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

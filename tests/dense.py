"""The test tree's one dense reference.

The package stores a state by its support and derives one dense view,
``StateVector.amplitudes``. Everything else dense that the tests compare
against lives here: row-major flat indices of digit tuples, a state built
from a dense vector, the inner product of two supports, and an independent
whole-block kernel.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from qnearest import InvalidInputError, RegisterLayout, StateVector
from qnearest.state import _check_norm, _frozen, squared_norm


def flatten(layout: RegisterLayout, digits) -> int:
    """Row-major flat index of a per-site digit tuple; the layout checks the
    digits (integers, one per site, each in range), so none aliases another
    index."""
    return sum(map(operator.mul, layout._checked(digits), layout.strides))


def unflatten(layout: RegisterLayout, index: int) -> tuple[int, ...]:
    """The per-site digits of a flat index."""
    return tuple((index // s) % d for s, d in zip(layout.strides, layout.dims))


def flat_indices(state: StateVector) -> np.ndarray:
    """The int64 flat index of each stored entry, in storage order."""
    return state.layout.strides_array @ state.digits


def from_amplitudes(layout: RegisterLayout, amplitudes) -> StateVector:
    """The state holding a dense vector's nonzero entries, in flat order.

    The vector must be unit-norm: the package's norm check raises
    :class:`~qnearest.errors.NormDriftError` otherwise (NaN included).
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.shape != (layout.total_dimension,):
        raise ValueError(f"expected {layout.total_dimension} amplitudes, got shape {amps.shape}")
    indices = np.flatnonzero(amps)
    values = amps[indices]
    _check_norm(squared_norm(values))
    return _frozen(layout, np.array(np.unravel_index(indices, layout.dims)), values)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product, conjugate-linear in ``a``.

    Only flat indices stored in both supports contribute, so it runs on
    layouts far too large for a dense vector. Flat indices of different
    layouts do not compare, so those raise
    :class:`~qnearest.errors.InvalidInputError`.
    """
    if a.layout != b.layout:
        raise InvalidInputError("states live on different layouts")
    _, ia, ib = np.intersect1d(flat_indices(a), flat_indices(b), assume_unique=True,
                               return_indices=True)
    return complex(np.vdot(a.values[ia], b.values[ib]))


def reference_apply(amps, dims, controls, target, matrix):
    """Independent whole-block kernel: integer-index the controls away, move
    the target axis last and multiply."""
    out = amps.copy().reshape(dims)
    selector = [slice(None)] * len(dims)
    for site, digit in controls:
        selector[site] = digit
    block = out[tuple(selector)]
    axis = target - sum(1 for site, _ in controls if site < target)
    moved = np.moveaxis(block, axis, -1)
    moved[...] = moved @ matrix.T
    return out.reshape(-1)


def reference_run(amps, dims, gates):
    """:func:`reference_apply` of each :class:`~qnearest.CircuitGate` in turn."""
    return reduce(
        lambda out, cg: reference_apply(out, dims, cg.controls, cg.target, cg.gate.matrix),
        gates,
        amps,
    )

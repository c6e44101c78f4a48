"""Exception types shared across the package, and the one integer,
sequence, number-array, enum-member and type check."""

import operator
from enum import Enum
from typing import Iterable

import numpy as np


class SimulatorError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidInputError(SimulatorError, ValueError):
    """A caller-supplied value violates an operation's contract."""


class NormDriftError(SimulatorError):
    """State norm drifted beyond tolerance.

    Indicates a kernel or gate bug, not bad input; states are never
    silently renormalized.
    """


class CapacityError(SimulatorError):
    """A request exceeds a size limit, raised before anything of that size
    is allocated: a layout of more amplitudes than int64 flat indices reach
    (``state.MAX_AMPLITUDES``), or a dense gate of more matrix entries than
    ``gates.MAX_MATRIX_ENTRIES``."""


def _integer(value, what: str) -> int:
    """``value`` as an int (``operator.index``, so NumPy integers pass and
    a float such as 2.0 does not), or :class:`InvalidInputError` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} {value!r} is not an integer") from None


def _sequence(values: Iterable, what: str) -> tuple:
    """``values`` as a tuple, or :class:`InvalidInputError` if it cannot be
    iterated (a bare integer in place of a list of them, say)."""
    try:
        return tuple(values)
    except TypeError:
        raise InvalidInputError(f"expected a sequence of {what}s, got {values!r}") from None


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints (:func:`_integer` on each), or
    :class:`InvalidInputError` naming the first that is not an integer, or
    saying that ``values`` is not a sequence."""
    values = _sequence(values, what)
    try:
        return tuple(map(operator.index, values))
    except TypeError:  # only a failing sequence is walked, to name its first non-integer
        return tuple(_integer(value, what) for value in values)


def _numbers(values, dtype: type) -> np.ndarray:
    """``values`` as a new array of ``dtype``, or ``TypeError`` or
    ``ValueError`` if they are ragged or not numbers: strings included,
    which NumPy's conversion would parse."""
    array = np.asarray(values)
    if array.dtype.kind in "SU":
        raise TypeError("strings are not numbers")
    return array.astype(dtype)


def _member(kind: type[Enum], value, what: str) -> Enum:
    """``value`` as a member of the enum ``kind`` (a member or a member's
    value), or :class:`InvalidInputError` naming it and listing the values."""
    try:
        return kind(value)
    except ValueError:
        values = ", ".join(str(member.value) for member in kind)
        raise InvalidInputError(f"{what} must be one of {values}; got {value!r}") from None


def _instance(value, kind: type, what: str):
    """``value`` if it is a ``kind``, or :class:`InvalidInputError` naming it
    (a wrong-typed object would otherwise fail later on a missing attribute)."""
    if not isinstance(value, kind):
        raise InvalidInputError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value

"""Dense state vectors over mixed-radix registers.

Amplitude ordering is row-major over the site list: the first site is the
most significant digit of the flattened index, so a layout with dimensions
(2, 2, 2, 2) stores the basis state with digits (0, 1, 0, 1) at flat index
0b0101 = 5.

:class:`StateVector` values are immutable, and every public function that
takes one returns a new value. The gate kernel, :func:`apply_in_place`, is
the one function that mutates: it updates a caller-owned buffer in place
and reads and writes only the gate's control-selected block, in pieces of
bounded size. The circuit loop (``builder.execute_circuit``) owns one
buffer per run and calls the kernel once per gate; :func:`apply_controlled`
is one copy followed by the same kernel.

Every gate is norm-checked, block-locally: the kernel keeps a running
squared norm of the whole buffer, takes off the block's squared norm before
the gate and adds it back after, and a total farther than
``NORM_TOLERANCE`` from 1 raises :class:`NormDriftError` instead of
renormalizing. Drift that builds up over many gates is caught as well as
drift within one, at the cost of the block, not the state. Unitarity is
checked where a matrix enters, always by :class:`~qnearest.gates.Gate`:
circuit gates are built as one, and :func:`apply_controlled` wraps its raw
matrix in one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, NormDriftError
from .gates import Gate

NORM_TOLERANCE = 1e-10
# largest piece of a gate's block gathered into scratch at once, in amplitudes
KERNEL_CHUNK = 1 << 15


class Role(Enum):
    """What a register site is for.

    Wire roles (REFERENCE, ARRAY) appear only in full-circuit layouts where
    the classical inputs travel on simulated wires.
    """

    REFERENCE = "ref"
    ARRAY = "arr"
    COPY = "copy"
    INDEX = "index"
    SCORE = "score"


@dataclass(frozen=True)
class Site:
    role: Role
    dimension: int
    label: str

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise InvalidInputError(
                f"site {self.label!r}: dimension must be >= 2, got {self.dimension}"
            )


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered sites defining a mixed-radix tensor space and its strides."""

    sites: tuple[Site, ...]

    def __post_init__(self) -> None:
        sites = tuple(self.sites)
        if not sites:
            raise InvalidInputError("layout needs at least one site")
        object.__setattr__(self, "sites", sites)
        dims = tuple(s.dimension for s in sites)
        strides = [1] * len(dims)
        for i in range(len(dims) - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]
        object.__setattr__(self, "_dims", dims)
        object.__setattr__(self, "_strides", tuple(strides))
        object.__setattr__(self, "_total", strides[0] * dims[0])

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims  # type: ignore[attr-defined]

    @property
    def strides(self) -> tuple[int, ...]:
        return self._strides  # type: ignore[attr-defined]

    @property
    def total_dimension(self) -> int:
        return self._total  # type: ignore[attr-defined]

    def flatten(self, digits: Sequence[int]) -> int:
        """Flat amplitude index of a per-site digit tuple."""
        digits = tuple(digits)
        if len(digits) != len(self.sites):
            raise InvalidInputError(
                f"expected {len(self.sites)} digits, got {len(digits)}"
            )
        flat = 0
        for site, dim, stride, digit in zip(self.sites, self.dims, self.strides, digits):
            if not 0 <= digit < dim:
                raise InvalidInputError(
                    f"digit {digit} out of range for site {site.label!r} (dim {dim})"
                )
            flat += digit * stride
        return flat

    def unflatten(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.total_dimension:
            raise InvalidInputError(f"flat index {index} out of range")
        return tuple((index // s) % d for s, d in zip(self.strides, self.dims))

    def sites_of(self, role: Role) -> tuple[int, ...]:
        """Indices of all sites with the given role, in layout order."""
        return tuple(i for i, s in enumerate(self.sites) if s.role is role)

    def single(self, role: Role) -> int:
        """Index of the unique site with the given role."""
        found = self.sites_of(role)
        if len(found) != 1:
            raise InvalidInputError(f"layout has {len(found)} sites of role {role}")
        return found[0]


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitudes over a :class:`RegisterLayout`.

    Construct through :func:`init_basis_state` or :meth:`from_amplitudes`;
    the raw constructor trusts its arguments. The amplitude array is frozen
    so shared states cannot be corrupted across threads.
    """

    layout: RegisterLayout
    amplitudes: np.ndarray

    @classmethod
    def from_amplitudes(cls, layout: RegisterLayout, amplitudes: Iterable[complex]) -> StateVector:
        amps = np.asarray(list(amplitudes) if not isinstance(amplitudes, np.ndarray) else amplitudes,
                          dtype=np.complex128).copy()
        if amps.shape != (layout.total_dimension,):
            raise InvalidInputError(
                f"expected {layout.total_dimension} amplitudes, got shape {amps.shape}"
            )
        _check_norm(squared_norm(amps))
        amps.flags.writeable = False
        return cls(layout, amps)


def squared_norm(amplitudes: np.ndarray) -> float:
    """Sum of ``|amplitude|^2`` over an amplitude buffer."""
    return float(np.vdot(amplitudes, amplitudes).real)


def _check_norm(norm: float) -> None:
    drift = abs(norm - 1.0)
    if not drift <= NORM_TOLERANCE:  # also true for NaN
        raise NormDriftError(f"squared norm drifted by {drift:.3e}")


def basis_amplitudes(layout: RegisterLayout, digits: Sequence[int]) -> np.ndarray:
    """Writable flat buffer holding amplitude 1 at the flattened index of ``digits``."""
    amps = np.zeros(layout.total_dimension, dtype=np.complex128)
    amps[layout.flatten(digits)] = 1.0
    return amps


def init_basis_state(layout: RegisterLayout, digits: Sequence[int]) -> StateVector:
    """Basis state with amplitude 1 at the flattened index of ``digits``."""
    amps = basis_amplitudes(layout, digits)
    amps.flags.writeable = False
    return StateVector(layout, amps)


def apply_controlled(
    state: StateVector,
    controls: Sequence[tuple[int, int]],
    target: int,
    matrix: np.ndarray,
) -> StateVector:
    """Apply a unitary to the target site wherever all controls match.

    ``controls`` is a sequence of ``(site, required digit)`` pairs; a pair
    with digit 0 is a negative control, so no X-conjugation sandwich is
    needed. Value in, value out: the state's amplitudes are copied once and
    the copy goes through :func:`apply_in_place`, the kernel the circuit
    loop uses. Callers pass raw matrices here, so the sites are checked and
    the matrix is built into a :class:`~qnearest.gates.Gate` (shape and
    unitarity) on every call, and the running norm starts from the input's
    measured squared norm.
    """
    layout = state.layout
    check_gate_sites(layout.dims, controls, target)
    gate = Gate(layout.dims[target], matrix, "matrix")
    flat = state.amplitudes.copy()
    apply_in_place(flat.reshape(layout.dims), controls, target, gate.matrix, squared_norm(flat))
    flat.flags.writeable = False
    return StateVector(layout, flat)


def check_gate_sites(
    dims: Sequence[int], controls: Sequence[tuple[int, int]], target: int
) -> None:
    """Reject unknown sites, out-of-range control digits and any site used twice.

    A control on the gate's own target would make :func:`apply_in_place`
    select the wrong amplitudes instead of failing, so it is rejected here.
    """
    nsites = len(dims)
    if not 0 <= target < nsites:
        raise InvalidInputError(f"unknown target site {target}")
    seen = {target}
    for site, digit in controls:
        if not 0 <= site < nsites:
            raise InvalidInputError(f"unknown control site {site}")
        if site in seen:
            raise InvalidInputError(f"site {site} used more than once in controls/target")
        seen.add(site)
        if not 0 <= digit < dims[site]:
            raise InvalidInputError(
                f"control digit {digit} out of range for site {site} (dim {dims[site]})"
            )


def apply_in_place(
    tensor: np.ndarray,
    controls: Sequence[tuple[int, int]],
    target: int,
    matrix: np.ndarray,
    norm: float,
) -> float:
    """Apply ``matrix`` to the target axis of ``tensor`` where all controls match.

    ``tensor`` is a writable amplitude buffer shaped to the layout's dims.
    Only the control-selected block is read or written, in pieces of at
    most ``KERNEL_CHUNK`` amplitudes (or d, if larger). Each piece's d
    target slices are gathered into a ``(d, k)`` scratch array, replaced
    by their linear combination ``matrix @ slices`` and scattered back; for
    d = 2 that is one 2x2 combination of the two slices, with no special
    case for X, where it adds exact zeros.

    ``norm`` is the running squared norm of the whole buffer: each piece's
    squared norm is taken off before the gate and added back after, and
    the returned total must stay within ``NORM_TOLERANCE`` of 1, so drift
    that builds up over many gates is caught as well as drift within one.

    Sites and the matrix are trusted: :class:`~qnearest.builder.Circuit`
    (or :func:`apply_controlled`) checked the sites, and
    :class:`~qnearest.gates.Gate` checked unitarity.
    """
    index: list[slice] = [slice(None)] * tensor.ndim
    for site, digit in controls:
        # a length-1 slice, not an integer, keeps every axis, so the block
        # is a view with the target at its own axis even when every other
        # site is a control and the block is a single fibre
        index[site] = slice(digit, digit + 1)
    d = matrix.shape[0]
    moved = tensor[tuple(index)].transpose(
        [target] + [axis for axis in range(tensor.ndim) if axis != target]
    )
    # fix the leading non-target axes until one piece fits in KERNEL_CHUNK
    rest = moved.shape[1:]
    lead, size = len(rest), d
    while lead and size * rest[lead - 1] <= KERNEL_CHUNK:
        lead -= 1
        size *= rest[lead]
    for digits in np.ndindex(*rest[:lead]):
        piece = moved[(slice(None),) + digits]
        old = piece.reshape(d, -1)  # a copy unless the piece is contiguous
        new = matrix @ old
        norm += float(np.vdot(new, new).real) - float(np.vdot(old, old).real)
        piece[...] = new.reshape(piece.shape)
    _check_norm(norm)
    return norm


def marginal_probabilities(
    state: StateVector, sites: Sequence[int]
) -> dict[tuple[int, ...], float]:
    """Outcome probabilities for a subset of sites.

    Keys are digit tuples in the order the sites were given; values sum to 1.
    """
    order = tuple(sites)
    if not order:
        raise InvalidInputError("site subset must be nonempty")
    if len(set(order)) != len(order):
        raise InvalidInputError("duplicate sites in subset")
    nsites = len(state.layout.sites)
    for s in order:
        if not 0 <= s < nsites:
            raise InvalidInputError(f"unknown site {s}")
    probs = np.abs(state.amplitudes.reshape(state.layout.dims)) ** 2
    drop = tuple(ax for ax in range(nsites) if ax not in order)
    marg = probs.sum(axis=drop) if drop else probs
    kept = [ax for ax in range(nsites) if ax in order]
    marg = np.transpose(marg, [kept.index(s) for s in order])
    return {tuple(int(v) for v in idx): float(p) for idx, p in np.ndenumerate(marg)}


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product, conjugate-linear in ``a``."""
    if a.layout != b.layout:
        raise InvalidInputError("states live on different layouts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))

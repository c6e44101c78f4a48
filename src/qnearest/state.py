"""Support-sparse state vectors over mixed-radix registers.

A :class:`StateVector` stores only its support, as digits: a site-major
int64 array of shape ``(sites, k)``, one row per site and one column per
nonzero amplitude, beside those ``k`` amplitudes in the same order, with
exact zeros dropped after every gate or run. A state is built by
:func:`init_basis_state` and changed only by the gates. Every circuit here
is a basis state passed through controlled permutations, one H or Fourier
gate and controlled rotations, so a final state has at most 2m nonzero
amplitudes however large the layout is, and a gate costs O(support), not
O(product of dims). Gates and marginals read and write digit rows, and
never divide a flat index.

The one dense view is :attr:`StateVector.amplitudes`, built only when
something reads it; no search reads it. It orders amplitudes row-major
over the site list: the first site is the most significant digit of the
flat index, so a layout with dimensions (2, 2, 2, 2) stores the basis
state with digits (0, 1, 0, 1) at flat index 0b0101 = 5. The fibre
grouping sorts by the same flat keys.

:class:`StateVector` values are immutable. The one gate kernel,
:func:`apply_gates`, runs the circuit loop (``builder.execute_circuit``)
and :func:`apply_controlled`. Its step stream holds three step formats,
and each owns its format: ``check(dims)`` rejects a step its layout
cannot run, and ``expanded()`` lists it as single gates. The kernel runs
them four ways:

- multiplexed flip: a :class:`MultiplexedFlip`, a table of qubit flips
  keyed by one control site's digit (the copy stage of a compiled circuit,
  built as a table by the builder, not detected in the gate stream),
  executed as one XOR of the flipped sites' digit rows;
- multiplexed rotation: a :class:`MultiplexedRotation`, a table of
  single-control X rotations of one qubit (the comparison stage of a
  compiled circuit, likewise built by the builder). The rotations commute,
  so each column of a ``(2, columns)`` fibre grouping turns once, by the
  summed angle of the rows its key selects. In general mode every stored
  entry reaches it with target digit 0, so each entry is its own column
  and the support is only put in order, not grouped;
- permutation: a :class:`CircuitGate` whose matrix is a permutation
  matrix (X, or the cyclic shift) moves the target digits of the selected
  entries, gate by gate, and touches no amplitude;
- fibre run: any other :class:`CircuitGate` gates on one shared target
  (full mode's comparison stage, a lone H or Fourier gate, or a
  permutation with phases). The support is grouped once into
  ``(d, columns)`` fibres keyed by the non-target digits, and each gate
  multiplies the columns its controls select. No control sits on the
  target, so the controls read only a column's key, and are evaluated
  once per column, not once per stored entry. From a basis state, an
  uncontrolled gate writes one column of its matrix instead.

A flip table works out at construction what its check and the kernel read
off it (its flipped sites and their submatrix); a rotation table converts
its controls to int pairs at construction and builds the int64 arrays the
kernel reads on first read, after its check has range-checked them. Each
:class:`RegisterLayout` holds its strides as an int64 array, built on
first read; the builder shares one layout per problem shape.

It norm-checks every gate and every table (a flip table moves no
amplitude) against a running squared norm, at ``NORM_TOLERANCE`` and
NaN-safe, and raises :class:`NormDriftError` instead of renormalizing.
Unitarity is checked where a matrix enters, by :class:`~qnearest.gates.Gate`:
circuit gates are built as one, and :func:`apply_controlled` builds its raw
matrix into one and checks the resulting :class:`CircuitGate` through the
same ``check`` a circuit runs, so a gate has one check path. Each ``Gate``
works out once whether its matrix is a permutation matrix
(:attr:`~qnearest.gates.Gate.permutation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InvalidInputError, NormDriftError, _integer, _integers, _sequence
from .gates import Gate, pauli_x, rx

NORM_TOLERANCE = 1e-10
# flat indices are int64, so no layout may hold more amplitudes than this
MAX_AMPLITUDES = np.iinfo(np.int64).max


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
        object.__setattr__(self, "dimension",
                           _integer(self.dimension, f"site {self.label!r}: dimension"))
        if self.dimension < 2:
            raise InvalidInputError(
                f"site {self.label!r}: dimension must be >= 2, got {self.dimension}"
            )


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered sites defining a mixed-radix tensor space and its strides."""

    sites: tuple[Site, ...]

    def __post_init__(self) -> None:
        sites = _sequence(self.sites, "site")
        if not sites:
            raise InvalidInputError("layout needs at least one site")
        if not all(isinstance(site, Site) for site in sites):
            raise InvalidInputError(f"layout sites must be Site values, got {sites!r}")
        object.__setattr__(self, "sites", sites)
        dims = tuple(s.dimension for s in sites)
        strides = [1] * len(dims)
        for i in range(len(dims) - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]
        roles: dict[Role, tuple[int, ...]] = {}
        for i, site in enumerate(sites):
            roles[site.role] = roles.get(site.role, ()) + (i,)
        object.__setattr__(self, "_dims", dims)
        object.__setattr__(self, "_strides", tuple(strides))
        object.__setattr__(self, "_total", strides[0] * dims[0])
        object.__setattr__(self, "_roles", roles)

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims  # type: ignore[attr-defined]

    @property
    def strides(self) -> tuple[int, ...]:
        return self._strides  # type: ignore[attr-defined]

    @property
    def total_dimension(self) -> int:
        return self._total  # type: ignore[attr-defined]

    @cached_property
    def strides_array(self) -> np.ndarray:
        """:attr:`strides` as a read-only int64 array, built on first read:
        the flat index of a digit column is its dot product with it. The
        fibre grouping's sort key and :attr:`StateVector.amplitudes` read it.

        Raises :class:`CapacityError` past ``MAX_AMPLITUDES`` amplitudes,
        where they could overflow int64; no state lives on such a layout.
        """
        _check_capacity(self)
        return _read_only(np.array(self.strides, dtype=np.int64))

    def _checked(self, digits: Sequence[int]) -> tuple[int, ...]:
        """``digits`` as ints, one per site and each in its site's range,
        or :class:`InvalidInputError` (a digit such as 0.5 included)."""
        digits = _integers(digits, "digit")
        if len(digits) != len(self.sites):
            raise InvalidInputError(
                f"expected {len(self.sites)} digits, got {len(digits)}"
            )
        for site, dim, digit in zip(self.sites, self.dims, digits):
            if not 0 <= digit < dim:
                raise InvalidInputError(
                    f"digit {digit} out of range for site {site.label!r} (dim {dim})"
                )
        return digits

    def sites_of(self, role: Role) -> tuple[int, ...]:
        """Indices of all sites with the given role, in layout order."""
        return self._roles.get(role, ())  # type: ignore[attr-defined]

    def single(self, role: Role) -> int:
        """Index of the unique site with the given role."""
        found = self.sites_of(role)
        if len(found) != 1:
            raise InvalidInputError(f"layout has {len(found)} sites of role {role}")
        return found[0]


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitudes over a :class:`RegisterLayout`, stored by support.

    ``digits`` is a site-major int64 array of shape ``(sites, k)``: column j
    holds the per-site digits of the j-th stored basis state, and no two
    columns are equal. ``values`` holds the ``k`` nonzero amplitudes in the
    same order. Both are frozen so shared states cannot be corrupted across
    threads. A state is built by :func:`init_basis_state` and changed by the
    gates (:func:`apply_controlled`, :func:`apply_gates`); the raw
    constructor trusts its arguments. :attr:`amplitudes` is its one dense
    view.
    """

    layout: RegisterLayout
    digits: np.ndarray
    values: np.ndarray

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """The dense, read-only amplitude vector of ``layout.total_dimension`` entries.

        Built on first read, each stored value at its digits' flat index
        (their dot product with :attr:`RegisterLayout.strides_array`); a
        search never builds it.
        """
        amps = np.zeros(self.layout.total_dimension, dtype=np.complex128)
        amps[self.layout.strides_array @ self.digits] = self.values
        amps.flags.writeable = False
        return amps


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _frozen(layout: RegisterLayout, digits: np.ndarray, values: np.ndarray) -> StateVector:
    digits = digits.astype(np.int64, copy=False)
    digits.flags.writeable = False
    values.flags.writeable = False
    return StateVector(layout, digits, values)


def squared_norm(values: np.ndarray) -> float:
    """Sum of ``|amplitude|^2`` over an amplitude array."""
    return float(np.vdot(values, values).real)


def _check_norm(norm: float) -> None:
    drift = abs(norm - 1.0)
    if not drift <= NORM_TOLERANCE:  # also true for NaN
        raise NormDriftError(f"squared norm drifted by {drift:.3e}")


def init_basis_state(layout: RegisterLayout, digits: Sequence[int]) -> StateVector:
    """Basis state with amplitude 1 on ``digits``, one integer per site.

    Raises :class:`CapacityError` for a layout of more than
    ``MAX_AMPLITUDES`` amplitudes, whose flat indices would overflow int64.
    """
    return _basis_state(layout, layout._checked(digits))


def _basis_state(layout: RegisterLayout, digits: tuple[int, ...]) -> StateVector:
    # ``digits`` come from ``layout._checked``: a circuit checks its initial
    # digits once, when it is built, and runs from here
    _check_capacity(layout)
    column = np.array(digits, dtype=np.int64)[:, None]
    return _frozen(layout, column, np.ones(1, dtype=np.complex128))


def _check_capacity(layout: RegisterLayout) -> None:
    if layout.total_dimension > MAX_AMPLITUDES:
        raise CapacityError(
            f"layout has {layout.total_dimension} amplitudes; "
            f"int64 flat indices stop at {MAX_AMPLITUDES}"
        )


@dataclass(frozen=True)
class CircuitGate:
    """A :class:`~qnearest.gates.Gate` on site ``target``, applied wherever
    every ``(site, digit)`` pair in ``controls`` matches."""

    gate: Gate
    controls: tuple[tuple[int, int], ...]
    target: int

    def check(self, dims: Sequence[int]) -> None:
        """Reject sites :func:`check_gate_sites` rejects, and a gate whose
        dimension is not its target site's."""
        try:
            check_gate_sites(dims, self.controls, self.target)
            if self.gate.dimension != dims[self.target]:
                raise InvalidInputError(
                    f"dimension {self.gate.dimension} does not match "
                    f"target site dimension {dims[self.target]}"
                )
        except InvalidInputError as err:
            raise InvalidInputError(f"gate {self.gate.label!r}: {err}") from None

    def expanded(self) -> tuple[CircuitGate, ...]:
        """A gate lists as itself."""
        return (self,)


def apply_controlled(
    state: StateVector,
    controls: Sequence[tuple[int, int]],
    target: int,
    matrix: np.ndarray,
) -> StateVector:
    """Apply a unitary to the target site wherever all controls match.

    ``controls`` is a sequence of ``(site, required digit)`` pairs; a pair
    with digit 0 is a negative control, so no X-conjugation sandwich is
    needed. Value in, value out, through :func:`apply_gates`, the kernel
    the circuit loop uses. Callers pass raw matrices here, so on every call
    the matrix is built into a :class:`~qnearest.gates.Gate` labelled
    ``'matrix'`` (shape and unitarity), and the resulting
    :class:`CircuitGate` is checked by :meth:`CircuitGate.check`, as a
    circuit checks its gates; its messages begin ``gate 'matrix': ``. The
    running norm starts from the input's measured squared norm.
    """
    # the gate takes its matrix's own dimension; ``check`` compares it with the target's
    gate = Gate(len(np.atleast_1d(matrix)), matrix, "matrix")
    step = CircuitGate(gate, _sequence(controls, "control"), target)
    step.check(state.layout.dims)
    return apply_gates(state, [step], squared_norm(state.values))


def check_gate_sites(
    dims: Sequence[int], controls: Sequence[tuple[int, int]], target: int
) -> None:
    """Reject unknown or non-integer sites, a control that is not a
    ``(site, digit)`` pair, control digits out of range or not integers,
    and any site used twice.

    A control on the gate's own target would make :func:`apply_gates`
    select the wrong amplitudes instead of failing, and a control digit
    such as 0.5 would never match, so both are rejected here.
    """
    nsites = len(dims)
    target = _integer(target, "target site")
    if not 0 <= target < nsites:
        raise InvalidInputError(f"unknown target site {target}")
    try:
        pairs = [(site, digit) for site, digit in controls]
    except (TypeError, ValueError) as err:
        raise InvalidInputError(f"malformed controls: {err}") from None
    seen = {target}
    for site, digit in pairs:
        site, digit = _integer(site, "control site"), _integer(digit, "control digit")
        if not 0 <= site < nsites:
            raise InvalidInputError(f"unknown control site {site}")
        if site in seen:
            raise InvalidInputError(f"site {site} used more than once in controls/target")
        seen.add(site)
        if not 0 <= digit < dims[site]:
            raise InvalidInputError(
                f"control digit {digit} out of range for site {site} (dim {dims[site]})"
            )


@dataclass(frozen=True, eq=False)
class MultiplexedFlip:
    """Qubit flips keyed by one control site's digit, run as one digit XOR.

    On the branch where site ``control`` reads c, every site t with
    ``parity[c, t] == 1`` flips. It stands for the single-control X gates
    ``((control, c),) -> t``, one per 1 in ``parity``, which commute, since
    none targets the control site. ``parity`` is stored as a read-only copy
    of shape ``(dims[control], number of sites)``; a circuit checks it
    against its layout with :meth:`check`.

    What the check and the kernel read off ``parity`` is derived once,
    here, read-only: ``targets``, the int64 sites with a nonzero entry, and
    ``flips``, the boolean ``(rows, targets)`` submatrix of ``parity != 0``.
    """

    control: int
    parity: np.ndarray
    targets: np.ndarray = field(init=False, repr=False)
    flips: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            parity = _read_only(np.array(self.parity))
        except (TypeError, ValueError) as err:  # ragged rows
            raise InvalidInputError(f"multiplexed flip: malformed parity table: {err}") from None
        # a table of any other rank fails the shape check and never runs
        nonzero = parity != 0 if parity.ndim == 2 else np.zeros((0, 0), dtype=bool)
        targets = np.flatnonzero(nonzero.any(axis=0))
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "targets", _read_only(targets))
        object.__setattr__(self, "flips", _read_only(nonzero[:, targets]))

    def check(self, dims: Sequence[int]) -> None:
        """Reject a table that :func:`check_gate_sites` would reject as gates.

        The control site must be a known site, the table must have one row
        per control digit and one 0/1 column per site, and every flipped
        site must be a qubit other than the control site.
        """
        try:
            nsites = len(dims)
            control, parity = _integer(self.control, "control site"), self.parity
            if not 0 <= control < nsites:
                raise InvalidInputError(f"unknown control site {control}")
            if parity.shape != (dims[control], nsites):
                raise InvalidInputError(
                    f"parity table has shape {parity.shape}, expected {(dims[control], nsites)}"
                )
            if not ((parity == 0) | (parity == 1)).all():
                raise InvalidInputError("parity table entries must be 0 or 1")
            for target in self.targets.tolist():
                if target == control:
                    raise InvalidInputError(f"site {target} used more than once in controls/target")
                if dims[target] != 2:
                    raise InvalidInputError(
                        f"flip target site {target} has dimension {dims[target]}, not 2"
                    )
        except InvalidInputError as err:
            raise InvalidInputError(f"multiplexed flip: {err}") from None

    def expanded(self) -> tuple[CircuitGate, ...]:
        """The table's single-control X gates, control digit by control
        digit, targets in site order."""
        flip = pauli_x(2)
        rows, targets = np.nonzero(self.parity)
        return tuple(CircuitGate(flip, ((self.control, c),), t)
                     for c, t in zip(rows.tolist(), targets.tolist()))


@dataclass(frozen=True, eq=False)
class MultiplexedRotation:
    """X rotations of one qubit, one per ``(site, digit)`` control, run as one step.

    Row r turns qubit ``target`` by ``angles[r]`` about X wherever site
    ``controls[r][0]`` reads ``controls[r][1]``. It stands for the gates
    ``rx(angles[r])`` on ``((site, digit),) -> target``, row by row. They
    commute, since all are X rotations of one qubit and no control sits on
    it, so on each branch their angles add. ``angles`` is stored as a
    read-only float copy; a circuit checks the table against its layout
    with :meth:`check`.

    Every control must be a pair of integers, or construction raises
    :class:`InvalidInputError`; ``controls`` is stored as a tuple of int
    pairs. Their ranges are checked by :meth:`check`, so the read-only
    int64 arrays the kernel reads, :attr:`sites` and :attr:`digits`, are
    built on first read, after a circuit has checked the table.
    """

    target: int
    controls: tuple[tuple[int, int], ...]
    angles: np.ndarray

    def __post_init__(self) -> None:
        try:
            pairs = [(site, digit) for site, digit in self.controls]
            angles = np.array(self.angles, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise InvalidInputError(f"malformed rotation table: {err}") from None
        sites, digits = zip(*pairs) if pairs else ((), ())
        controls = zip(_integers(sites, "control site"), _integers(digits, "control digit"))
        object.__setattr__(self, "controls", tuple(controls))
        object.__setattr__(self, "angles", _read_only(angles))

    @cached_property
    def sites(self) -> np.ndarray:
        """Each row's control site, as a read-only int64 array."""
        return _read_only(np.array([site for site, _ in self.controls], dtype=np.int64))

    @cached_property
    def digits(self) -> np.ndarray:
        """Each row's control digit, as a read-only int64 array."""
        return _read_only(np.array([digit for _, digit in self.controls], dtype=np.int64))

    def check(self, dims: Sequence[int]) -> None:
        """Reject a table whose gates would fail as circuit gates.

        The target must be a qubit, every angle finite, with one angle per
        control, and each row's control must pass :func:`check_gate_sites`
        with the target: a known site other than the target, read at a
        digit in range.
        """
        try:
            check_gate_sites(dims, (), self.target)
            if dims[self.target] != 2:
                raise InvalidInputError(
                    f"rotation target site {self.target} has dimension {dims[self.target]}, not 2"
                )
            if self.angles.shape != (len(self.controls),):
                raise InvalidInputError(
                    f"angles have shape {self.angles.shape}, expected {(len(self.controls),)}"
                )
            if not np.isfinite(self.angles).all():
                raise InvalidInputError("angles must be finite")
            for control in self.controls:
                check_gate_sites(dims, (control,), self.target)
        except InvalidInputError as err:
            raise InvalidInputError(f"multiplexed rotation: {err}") from None

    def expanded(self) -> tuple[CircuitGate, ...]:
        """One single-control ``rx`` gate per row, in row order."""
        return tuple(CircuitGate(rx(angle), (control,), self.target)
                     for control, angle in zip(self.controls, self.angles.tolist()))


def _selected(digits: np.ndarray, controls) -> np.ndarray | slice:
    """The columns of ``digits`` that match every ``(site, digit)`` control:
    a boolean mask, or every column (``slice(None)``) when there are none."""
    if not controls:
        return slice(None)
    (site, digit), *rest = controls
    mask = digits[site] == digit
    for site, digit in rest:
        mask &= digits[site] == digit
    return mask


def _fibres(digits: np.ndarray, values: np.ndarray, target: int, d: int, strides: np.ndarray):
    """``(keys, fibres)``: the support grouped into ``(d, columns)`` fibres.

    One column per distinct key (the digits off the target), in the order
    of the keys' flat indices; ``keys`` holds each column's digits, one row
    per site (its target row is not read), and a row of ``fibres`` is a
    target digit, with unstored entries 0. When no stored entry has a
    nonzero target digit, each entry is its own column and its own key, so
    the entries are only put in order by one ``argsort``, with no
    ``np.unique`` grouping. The order is kept because a column's floats may
    depend on where it sits: a BLAS matmul sums rows in an order that
    varies with their position.
    """
    digit = digits[target]
    flat = strides @ digits
    if not digit.any():
        order = flat.argsort()
        fibres = np.zeros((d, flat.size), dtype=np.complex128)
        fibres[0] = values[order]
        return digits.take(order, axis=1), fibres
    flat, column = np.unique(flat - digit * strides[target], return_inverse=True)
    keys = np.empty((digits.shape[0], flat.size), dtype=np.int64)
    keys[:, column] = digits
    fibres = np.zeros((d, flat.size), dtype=np.complex128)
    fibres[digit, column] = values
    return keys, fibres


def _unfibred(keys: np.ndarray, fibres: np.ndarray, target: int):
    """``(digits, values)`` of the nonzero entries of :func:`_fibres`' grouping,
    in row-major order: entry p of the ``(d, columns)`` grid is target digit
    ``p // columns`` on column ``p % columns``'s key."""
    values = fibres.reshape(-1)
    keep = np.flatnonzero(values)
    digit, column = np.divmod(keep, fibres.shape[1])
    digits = keys.take(column, axis=1)
    digits[target] = digit
    return digits, values[keep]


def _fibre_run(digits, values, layout, target, run, norm):
    """``(digits, values, norm)`` after a run of non-permutation gates on ``target``.

    The support is grouped once (:func:`_fibres`), so each gate multiplies
    the very columns a grouping of its own selected entries would. No gate
    has a control on the target, so a column's control digits are read from
    its key and cannot change inside the run. A gate with no controls that
    meets a one-entry support (a basis state) writes that entry's value
    times one column of its matrix, with no grouping. Each gate is
    norm-checked on its own.
    """
    fibres = None
    for step in run:
        controls, matrix = step.controls, step.gate.matrix
        if fibres is None and values.size == 1 and not controls:
            new = matrix[:, digits[target, 0]] * values[0]
            norm += squared_norm(new) - squared_norm(values)
            digits, values = _unfibred(digits, new[:, None], target)
        else:
            if fibres is None:
                keys, fibres = _fibres(digits, values, target, layout.dims[target],
                                       layout.strides_array)
            sel = _selected(keys, controls)
            old = fibres[:, sel]
            new = matrix @ old
            norm += squared_norm(new) - squared_norm(old)
            fibres[:, sel] = new
        _check_norm(norm)
    if fibres is not None:
        digits, values = _unfibred(keys, fibres, target)
    return digits, values, norm


def _multiplexed_rotation(digits, values, layout, rotation: MultiplexedRotation, norm):
    """``(digits, values, norm)`` after a :class:`MultiplexedRotation`, in one step.

    The support is grouped once into ``(2, columns)`` fibres on the target
    (:func:`_fibres`). A column's net angle is the sum of the angles of the
    rows whose control its key matches, and the column turns once, by
    ``[[cos, -i sin], [-i sin, cos]]`` of half that angle. The table is
    norm-checked once.
    """
    target = rotation.target
    keys, fibres = _fibres(digits, values, target, 2, layout.strides_array)
    # (columns, rows) in C order: the matmul's float sums depend on its layout
    selected = np.equal(keys.take(rotation.sites, axis=0).T, rotation.digits, order="C")
    half = selected @ rotation.angles / 2
    turned = np.cos(half) * fibres + -1j * np.sin(half) * fibres[::-1]
    norm += squared_norm(turned) - squared_norm(values)
    _check_norm(norm)
    return (*_unfibred(keys, turned, target), norm)


def _step_kind(step) -> type | int | None:
    # a table is keyed by its type, a permutation gate by None, and any other
    # gate by its target, so that consecutive ones on one target form a fibre run
    if type(step) is CircuitGate:
        return None if step.gate.permutation is not None else step.target
    return type(step)


def apply_gates(
    state: StateVector,
    steps: Iterable[CircuitGate | MultiplexedFlip | MultiplexedRotation],
    norm: float,
) -> StateVector:
    """Apply gates and tables in order to a copy of the support.

    Each gate touches only the stored entries whose digits match all its
    controls. Steps run in one of four ways:

    - multiplexed flip: a :class:`MultiplexedFlip` flips the digit rows of
      its flipped sites in one XOR, each column by the row of ``flips`` its
      control digit reads. In compiled modes the builder emits the whole
      copy stage as one; single-control X gates in the stream are not
      fused, and run as permutations;
    - multiplexed rotation: a :class:`MultiplexedRotation` groups the
      support once into ``(2, columns)`` fibres on its target and turns
      each column once, by the summed angle of the rows its key selects
      (see :func:`_multiplexed_rotation`). In compiled modes the builder
      emits the whole comparison stage as one;
    - permutation: a gate whose matrix is a permutation matrix (X, or the
      cyclic shift; see :attr:`~qnearest.gates.Gate.permutation`, worked
      out once per ``Gate``), gate by gate: each selected entry's target
      digit moves to its image, with no grouping and no amplitude touched;
    - fibre run: consecutive gates with any other matrix on one target
      site, a permutation with phases included, share one grouping of the
      support into ``(d, columns)`` fibres keyed by the non-target digits,
      and each gate replaces its selected columns with ``matrix @ fibres``
      (the orientation of a dense block kernel; see :func:`_fibre_run`). A
      lone H, Fourier or rotation gate is a run of one; from a basis state,
      an uncontrolled one (the superposition stage) writes one column of
      its matrix. Full mode's comparison stage is one such run.

    A rotation table or fibre run skips the ``np.unique`` grouping when no
    stored entry has a nonzero digit on its target: each entry is then its
    own column, and the support is only sorted (see :func:`_fibres`). This
    holds for general mode's comparison table and for full mode's
    comparison run when m != 2 (both target the score qubit, which reads 0
    until then); paper mode and full mode with m = 2 turn the index qubit,
    which holds both digits, and group.

    ``norm`` is the running squared norm of the state. Each gate and each
    rotation table moves it by the squared norm of what it wrote minus what
    it read, and the total must stay within ``NORM_TOLERANCE`` of 1 after
    every gate and every table (flip tables and permutation gates move no
    amplitude), so drift summed over gates is caught as well as drift
    within one. Exact zeros are dropped after every rotation table and
    fibre run, so the stored count is the nonzero count.

    The support is stored as digits (see :class:`StateVector`), so every
    step reads and writes digit rows; no step reads a flat index except as
    the sort key of a fibre grouping. The returned state's dense view,
    :attr:`~StateVector.amplitudes`, is derived only when read.

    Sites and matrices are trusted: :class:`~qnearest.builder.Circuit` and
    :func:`apply_controlled` checked every step with its ``check``, and
    :class:`~qnearest.gates.Gate` checked unitarity.
    """
    layout = state.layout
    digits, values = state.digits.copy(), state.values.copy()
    for kind, run in groupby(steps, key=_step_kind):
        if kind is MultiplexedFlip:
            for flip in run:
                digits[flip.targets] ^= flip.flips[digits[flip.control]].T
                _check_norm(norm)
        elif kind is MultiplexedRotation:
            for rotation in run:
                digits, values, norm = _multiplexed_rotation(
                    digits, values, layout, rotation, norm
                )
        elif kind is None:
            for step in run:
                move = step.gate.permutation
                sel = _selected(digits, step.controls)
                row = digits[step.target]
                # with no controls ``sel`` is a slice, so ``picked`` is a
                # view: it is read in full before the write
                picked = row[sel]
                row[sel] = picked + move[picked]
                _check_norm(norm)
        else:
            digits, values, norm = _fibre_run(digits, values, layout, kind, run, norm)
    return _frozen(layout, digits, values)


def marginal_probabilities(state: StateVector, sites: Sequence[int]) -> np.ndarray:
    """Outcome probabilities for a subset of sites, as an array of shape
    ``(dims of sites)``.

    Axis i is the i-th site as given, so the cell at ``(d0, d1, ...)`` is
    the probability that those sites read those digits; the cells sum to 1.
    Each stored entry's ``|amplitude|^2`` is added to the cell of its digits
    on those sites, so the cost is O(support) plus the number of outcomes.
    """
    order = _integers(sites, "site")
    if not order:
        raise InvalidInputError("site subset must be nonempty")
    if len(set(order)) != len(order):
        raise InvalidInputError("duplicate sites in subset")
    layout = state.layout
    nsites = len(layout.sites)
    for s in order:
        if not 0 <= s < nsites:
            raise InvalidInputError(f"unknown site {s}")
    shape = tuple(layout.dims[s] for s in order)
    cell = state.digits[order[0]]
    for s in order[1:]:
        cell = cell * layout.dims[s] + state.digits[s]
    probs = np.bincount(cell, weights=np.abs(state.values) ** 2, minlength=math.prod(shape))
    return probs.reshape(shape)

"""Builds and executes the nearest-element search circuits.

Three execution modes share one gate vocabulary:

``paper``
    Two elements only. The index qubit itself receives the comparison
    rotations, so its marginal distribution carries the decision directly.

``general``
    Any element count m. The index qudit gets one level per element and a
    dedicated score qubit receives the rotations; the decision is the index
    distribution conditioned on the score reading 0. Reduces to ranking by
    cos^2 of half the net rotation angle, which is strictly decreasing in
    the distance to the reference value.

``full``
    Reference and array values travel on simulated quantum wires initialized
    to the classical inputs. Copy gates become Toffoli-style (controlled on
    the array wires) and comparison rotations are controlled on the
    reference wires. Exists to validate that compiling the classical inputs
    away, as the other two modes do, is observationally equivalent.

Each stage is built by one function for every mode, from one set of rows:
:func:`superposition_gates`, :func:`_copy_stage` and
:func:`_comparison_stage`. Compiled modes get one table per stage (a flip
table for the copy, a rotation table for the comparison); full mode gets
the same rows as gates, each also controlled on its wire. The gate lists
:func:`copy_gates` and :func:`comparison_gates` are a stage's steps
expanded gate by gate, as :attr:`Circuit.gates` expands them.

In every mode the net rotation a branch holding value a accumulates against
reference b is pi * (b - a) / 2^n: bit k (most significant first) carries
weight pi / 2^(k+1), applied with positive sign where b's bit is high and
the copy bit low, negative sign in the opposite case, and skipped when the
bits agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import CapacityError, InvalidInputError, _integer, _integers, _sequence
from .gates import fourier, hadamard, pauli_x, rx
from .state import (
    CircuitGate,
    MultiplexedFlip,
    MultiplexedRotation,
    RegisterLayout,
    Role,
    Site,
    StateVector,
    _basis_state,
    apply_gates,
    squared_norm,
)

DEFAULT_AMPLITUDE_CAP = 1 << 26
# Memo bound for layouts, kept by shape (mode, n, m), and for rotation
# schedules, kept by n. A layout holds a few dozen small sites, so a process
# cycling over many shapes keeps them all.
LAYOUT_MEMO_SIZE = 64


class Mode(str, Enum):
    PAPER = "paper"
    GENERAL = "general"
    FULL = "full"


@dataclass(frozen=True)
class SearchProblem:
    """One search instance: find the element of ``a`` nearest to ``b``.

    All values are n-bit unsigned integers. ``amplitude_cap`` bounds two
    counts, and exceeding either raises :class:`CapacityError` before
    anything is allocated:

    - the layout's amplitude count, and so the size of the one dense view,
      ``StateVector.amplitudes``;
    - the d x d entries of the superposition gate on the d = max(2, m)
      level index qudit, which is built and checked as a dense matrix.

    A run itself stores only the state's support, at most 2m amplitudes.
    """

    n: int
    a: tuple[int, ...]
    b: int
    mode: Mode = Mode.GENERAL
    amplitude_cap: int = DEFAULT_AMPLITUDE_CAP

    def __post_init__(self) -> None:
        n, a, b = validate_instance(self.a, self.b, self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mode", _mode(self.mode))
        object.__setattr__(self, "amplitude_cap", _integer(self.amplitude_cap, "amplitude cap"))
        if self.mode is Mode.PAPER and self.m != 2:
            raise InvalidInputError(f"paper mode requires exactly 2 elements, got {self.m}")
        if self.n >= self.amplitude_cap.bit_length():
            # 2^n alone exceeds the cap; state_size() would build a 2^n-bit integer
            raise CapacityError(
                f"state needs over 2^{self.n} amplitudes, cap is {self.amplitude_cap}"
            )
        size, entries = self.state_size(), _index_dimension(self.m) ** 2
        if max(size, entries) > self.amplitude_cap:
            raise CapacityError(
                f"state needs {size} amplitudes and its superposition gate {entries} "
                f"matrix entries, cap is {self.amplitude_cap}"
            )

    @property
    def m(self) -> int:
        return len(self.a)

    @cached_property
    def layout(self) -> RegisterLayout:
        """This problem's register layout, read on first use from a memo of
        ``LAYOUT_MEMO_SIZE`` layouts keyed by ``(mode, n, m)``.

        Problems of one shape share one frozen layout, equal to
        :func:`build_layout`'s.
        """
        return _shared_layout(self.mode, self.n, self.m)

    @cached_property
    def bit_table(self) -> np.ndarray:
        """Read-only ``(m, n)`` 0/1 uint8 array of each element's bits, most
        significant first, built on first use together with b's bits."""
        return self._bits[1:]

    @cached_property
    def _bits(self) -> np.ndarray:
        # row 0 holds b's bits and row j + 1 a_j's, from one extraction that
        # stays exact past int64 (n >= 64) through an object array
        values = np.asarray((self.b, *self.a), dtype=np.int64 if self.n < 64 else object)
        bits = ((values[:, None] >> np.arange(self.n - 1, -1, -1)) & 1).astype(np.uint8)
        bits.flags.writeable = False
        return bits

    def state_size(self) -> int:
        """Amplitude count of this problem's layout, computed without allocating."""
        size = (1 << self.n) * _index_dimension(self.m)
        if self.mode is Mode.FULL:
            size <<= self.n * (self.m + 1)
        if uses_score(self):
            size <<= 1
        return size


def validate_instance(a: Sequence[int], b: int, n: int) -> tuple[int, tuple[int, ...], int]:
    """Check that n >= 1, ``a`` is nonempty and every value is n-bit unsigned.

    ``n``, ``b`` and each value must be integers (``operator.index``), so a
    float such as 2.9 is rejected, not truncated. Returns ``(n, a, b)`` as
    ints, ``a`` as a tuple, so a caller checks each of them once, here.
    Range tests use ``bit_length`` so a huge n never materializes ``2^n``.
    """
    n = _integer(n, "bit width")
    if n < 1:
        raise InvalidInputError(f"bit width must be >= 1, got {n}")
    values = _integers(a, "array value")
    b = _integer(b, "b =")
    if not values:
        raise InvalidInputError("array must be nonempty")
    if min(values) < 0 or max(values).bit_length() > n:
        # only a failing array is walked, to name its first bad value
        j, v = next((j, v) for j, v in enumerate(values) if v < 0 or v.bit_length() > n)
        raise InvalidInputError(f"a[{j}] = {v} outside [0, 2^{n})")
    if not (b >= 0 and b.bit_length() <= n):
        raise InvalidInputError(f"b = {b} outside [0, 2^{n})")
    return n, values, b


def _mode(value) -> Mode:
    try:
        return Mode(value)
    except ValueError:
        raise InvalidInputError(
            f"mode must be one of paper, general, full; got {value!r}"
        ) from None


def _index_dimension(m: int) -> int:
    # a lone element still needs a valid two-level site; level 1 stays empty
    return max(2, m)


def uses_score(problem: SearchProblem) -> bool:
    """True when comparison rotations target the score qubit instead of the index."""
    return _scored(problem.mode, problem.m)


def _scored(mode: Mode, m: int) -> bool:
    return mode is Mode.GENERAL or (mode is Mode.FULL and m != 2)


def value_bits(value: int, n: int) -> tuple[int, ...]:
    """Bits of an n-bit value, most significant first."""
    return tuple((value >> (n - 1 - k)) & 1 for k in range(n))


@lru_cache(maxsize=LAYOUT_MEMO_SIZE, typed=True)  # typed: n=2.0 must not hit n=2's entry
def rotation_schedule(n: int) -> tuple[float, ...]:
    """Per-bit rotation weights, most significant bit first: pi/2, pi/4, ..."""
    n = _integer(n, "bit width")
    if n < 1:
        raise InvalidInputError(f"bit width must be >= 1, got {n}")
    return tuple(math.pi / (1 << (k + 1)) for k in range(n))


def net_rotation_angle(n: int, b: int, value: int) -> float:
    """Net signed angle a branch holding ``value`` accumulates against ``b``."""
    return math.pi * (b - value) / (1 << n)


def _signed_weight(reference_bit: int, weight: float) -> float:
    # direction convention: high reference bit rotates +, low rotates -
    return weight if reference_bit else -weight


@dataclass(frozen=True)
class Circuit:
    """Circuit over a layout, starting from a fixed basis state.

    ``steps`` holds :class:`CircuitGate` entries and, for a compiled copy
    and comparison stage, a :class:`~qnearest.state.MultiplexedFlip` and a
    :class:`~qnearest.state.MultiplexedRotation`. Each step format checks
    itself against the layout (``step.check``) and lists itself gate by
    gate (``step.expanded``), so the circuit reads no step's internals.
    ``initial_digits`` is checked against the layout and stored as ints
    when the circuit is built, so :func:`execute_circuit` starts from it
    without checking it again. ``steps`` is stored as a tuple; anything
    but those three step formats raises :class:`InvalidInputError`.
    """

    layout: RegisterLayout
    initial_digits: tuple[int, ...]
    steps: tuple[CircuitGate | MultiplexedFlip | MultiplexedRotation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_digits", self.layout._checked(self.initial_digits))
        object.__setattr__(self, "steps", _sequence(self.steps, "circuit step"))
        for step in self.steps:
            if not isinstance(step, (CircuitGate, MultiplexedFlip, MultiplexedRotation)):
                raise InvalidInputError(f"unknown circuit step {step!r}")
            # the kernel trusts its sites, so every step is checked once here
            step.check(self.layout.dims)

    @cached_property
    def gates(self) -> tuple[CircuitGate, ...]:
        """The steps one gate at a time, each expanded by its own
        ``expanded()``, built on first read."""
        return _expanded(self.steps)

    def dump(self) -> str:
        """Line-oriented text form, stable across runs.

        Two comment lines describe the layout and the initial digits, then
        one line per gate: ``label | control=digit ... | target`` with ``-``
        standing for an empty control list. Rotation angles ride in the
        gate label.
        """
        sites = self.layout.sites
        lines = [
            "# sites: " + " ".join(f"{s.label}:{s.dimension}" for s in sites),
            "# init: " + " ".join(str(d) for d in self.initial_digits),
        ]
        for cg in self.gates:
            ctrl = " ".join(f"{sites[s].label}={d}" for s, d in cg.controls) or "-"
            lines.append(f"{cg.gate.label} | {ctrl} | {sites[cg.target].label}")
        return "\n".join(lines) + "\n"


def _expanded(steps: Sequence) -> tuple[CircuitGate, ...]:
    """Circuit steps one gate at a time, each listed by its own ``expanded()``."""
    return tuple(gate for step in steps for gate in step.expanded())


def build_layout(problem: SearchProblem) -> RegisterLayout:
    """Canonical site order for a problem, built afresh.

    Full mode: reference bits, then each element's bits, then the copy
    buffer, index qudit and (for m != 2) the score qubit. Compiled modes
    drop the reference and array wires. Bit sites are most significant
    first, matching :attr:`SearchProblem.bit_table`. A search reads the
    equal layout its shape shares (:attr:`SearchProblem.layout`), not this
    one.
    """
    return _layout(problem.mode, problem.n, problem.m)


def _layout(mode: Mode, n: int, m: int) -> RegisterLayout:
    sites: list[Site] = []
    if mode is Mode.FULL:
        sites += [Site(Role.REFERENCE, 2, f"ref{k}") for k in range(n)]
        for j in range(m):
            sites += [Site(Role.ARRAY, 2, f"arr{j}.{k}") for k in range(n)]
    sites += [Site(Role.COPY, 2, f"copy{k}") for k in range(n)]
    sites.append(Site(Role.INDEX, _index_dimension(m), "index"))
    if _scored(mode, m):
        sites.append(Site(Role.SCORE, 2, "score"))
    return RegisterLayout(tuple(sites))


# a layout is frozen (and its int64 arrays read-only), so one is safely shared
_shared_layout = lru_cache(maxsize=LAYOUT_MEMO_SIZE)(_layout)


def _initial_digits(problem: SearchProblem, layout: RegisterLayout) -> tuple[int, ...]:
    if problem.mode is not Mode.FULL:
        return (0,) * len(layout.sites)
    # the wires hold b's bits, then each element's, as the rows of ``_bits`` do
    wires = layout.sites_of(Role.REFERENCE) + layout.sites_of(Role.ARRAY)
    digits = np.zeros(len(layout.sites), dtype=np.int64)
    digits[list(wires)] = problem._bits.ravel()
    return tuple(digits.tolist())


def superposition_gates(problem: SearchProblem, layout: RegisterLayout) -> tuple[CircuitGate, ...]:
    """The uniform-superposition gate on the index qudit (none for m = 1)."""
    if problem.m == 1:
        return ()
    index = layout.single(Role.INDEX)
    d = layout.dims[index]
    return (CircuitGate(hadamard() if d == 2 else fourier(d), (), index),)


def copy_gates(problem: SearchProblem, layout: RegisterLayout) -> tuple[CircuitGate, ...]:
    """The copy stage gate by gate: :func:`_copy_stage`'s steps, expanded as
    :attr:`Circuit.gates` expands them.

    One X gate per set bit, element by element, most significant bit
    first, copying element j into the buffer on the index-j branch (in full
    mode also controlled on the array wire, Toffoli-style). A search runs
    the stage's steps and does not call this.
    """
    return _expanded(_copy_stage(problem, layout))


def _copy_stage(
    problem: SearchProblem, layout: RegisterLayout
) -> tuple[CircuitGate | MultiplexedFlip, ...]:
    """The copy stage as circuit steps, in every mode; its one builder.

    Its rows are the set bits of :attr:`SearchProblem.bit_table`: a 1 at
    (j, k) flips copy bit k on the index-j branch. Compiled modes hold them
    as one :class:`~qnearest.state.MultiplexedFlip` on the index qudit.
    Full mode lists them as X gates, row by row, each also controlled on
    array wire (j, k) reading 1.
    """
    index, copies = layout.single(Role.INDEX), layout.sites_of(Role.COPY)
    if problem.mode is not Mode.FULL:
        parity = np.zeros((layout.dims[index], len(layout.sites)), dtype=np.uint8)
        parity[: problem.m, list(copies)] = problem.bit_table
        return (MultiplexedFlip(index, parity),)
    n, arrs, flip = problem.n, layout.sites_of(Role.ARRAY), pauli_x(2)
    rows = zip(*(axis.tolist() for axis in np.nonzero(problem.bit_table)))
    return tuple(CircuitGate(flip, ((index, j), (arrs[j * n + k], 1)), copies[k]) for j, k in rows)


def comparison_gates(problem: SearchProblem, layout: RegisterLayout) -> tuple[CircuitGate, ...]:
    """The comparison stage gate by gate: :func:`_comparison_stage`'s steps,
    expanded as :attr:`Circuit.gates` expands them.

    One controlled rotation per bit position where some element differs
    from b (in full mode also controlled on the reference wire). A search
    runs the stage's steps and does not call this.
    """
    return _expanded(_comparison_stage(problem, layout))


def _comparison_stage(
    problem: SearchProblem, layout: RegisterLayout
) -> tuple[CircuitGate | MultiplexedRotation, ...]:
    """The comparison stage as circuit steps, in every mode; its one builder.

    One row per bit k where some element differs from b; a rotation on a
    bit where every element matches b could never fire. The row turns the
    score qubit (the index qubit when there is none) by bit k's signed
    weight wherever copy bit k differs from b's bit. Compiled modes hold
    the rows as one :class:`~qnearest.state.MultiplexedRotation`, or no
    step when there is no row. Full mode lists them as ``rx`` gates, each
    also controlled on reference wire k reading b's bit, so the rotation
    stays conditioned on the loaded reference value rather than baked in.
    """
    b_bits = problem._bits[0]
    rows = np.flatnonzero((problem.bit_table != b_bits).any(axis=0)).tolist()
    b_bits, weights = b_bits.tolist(), rotation_schedule(problem.n)
    copies = layout.sites_of(Role.COPY)
    target = layout.single(Role.SCORE if uses_score(problem) else Role.INDEX)
    controls = [(copies[k], 1 - b_bits[k]) for k in rows]
    angles = [_signed_weight(b_bits[k], weights[k]) for k in rows]
    if problem.mode is Mode.FULL:
        refs = layout.sites_of(Role.REFERENCE)
        return tuple(CircuitGate(rx(angle), ((refs[k], b_bits[k]), control), target)
                     for k, control, angle in zip(rows, controls, angles))
    return (MultiplexedRotation(target, controls, angles),) if rows else ()


def build_circuit(problem: SearchProblem) -> Circuit:
    """Complete circuit for any mode: superposition, copy, then comparison.

    In compiled modes the copy stage is one flip table (see
    :func:`_copy_stage`) and the comparison stage one rotation table (see
    :func:`_comparison_stage`); :attr:`Circuit.gates` still lists both
    gate by gate.
    """
    layout = problem.layout
    steps = (
        superposition_gates(problem, layout)
        + _copy_stage(problem, layout)
        + _comparison_stage(problem, layout)
    )
    return Circuit(layout, _initial_digits(problem, layout), steps)


def execute_circuit(circuit: Circuit) -> StateVector:
    """Run the circuit's steps on its basis state (squared norm 1)."""
    start = _basis_state(circuit.layout, circuit.initial_digits)
    return apply_gates(start, circuit.steps, 1.0)


def load_superposition(problem: SearchProblem) -> StateVector:
    """State after the loading stage: (1/sqrt(m)) sum_j |a_j> on the copy buffer, |j> on the index."""
    layout = problem.layout
    steps = superposition_gates(problem, layout) + _copy_stage(problem, layout)
    return execute_circuit(Circuit(layout, _initial_digits(problem, layout), steps))


def apply_comparison_stage(state: StateVector, problem: SearchProblem) -> StateVector:
    """Apply the bit-weighted comparison rotations to a loaded state.

    The rotations run as the comparison step :func:`build_circuit` emits,
    so ``apply_comparison_stage(load_superposition(p), p)`` equals
    ``run(p)`` bit for bit.
    """
    layout = problem.layout
    if state.layout != layout:
        raise InvalidInputError("state layout does not match the problem's mode")
    return apply_gates(state, _comparison_stage(problem, layout), squared_norm(state.values))


def run(problem: SearchProblem) -> StateVector:
    """Build the whole circuit (superposition, copy, comparison) and execute it."""
    return execute_circuit(build_circuit(problem))

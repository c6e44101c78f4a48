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
    away, as the other two modes do, is observationally equivalent: it
    computes the same floats as paper mode (m = 2) or general mode, bit for
    bit.

Each stage is built by one function for every mode, from one set of rows:
:func:`superposition_gates`, :func:`_copy_stage` and
:func:`_comparison_stage`. Every mode gets one table per stage, a flip
table for the copy and a rotation table for the comparison; in full mode
each table entry is also controlled on its wire (the array bit a flip
copies, the reference bit a rotation row reads). The gate lists
:func:`copy_gates` and :func:`comparison_gates` are a stage's steps
expanded gate by gate, as :attr:`Circuit.gates` expands them.

A circuit is the same for every instance of its shape (mode, n, m) but
for the copied bits, the signed rotation angles and, in full mode, the
wire digits. So its structure lives in a template, built and checked once
per shape (:func:`_template`): the layout, the superposition step, the
index, copy, target and wire sites and the signed weight of each bit.
Each stage builder builds one instance's table from the template's arrays
through the table's constructor, which checks only what a value can break
(0/1 entries, finite angles), and the circuit is built without checking
its steps again. The template also
holds the support after its superposition step, computed once, so a
search runs only its two tables from there (:func:`execute_circuit`);
in full mode it first writes its wire digits into that support's wire
rows, which the superposition step does not touch. A hand-built
:class:`Circuit` is checked step by step and runs from its basis state.

Every other fact a shape fixes is also worked out once per shape, and
each search reads it: the template holds that support's squared norm,
which starts a search's running norm, the initial digits of a compiled
mode's circuit, and the sites whose marginal
:func:`~qnearest.measure.index_distribution` reads; :func:`_shape` holds
:class:`SearchProblem`'s paper-mode and capacity checks, the layout's
amplitude count (:meth:`SearchProblem.state_size`) and the bit shifts
that split each value into its bits. So a search computes only what its
values change: the bit table, the two tables' entries, and the kernel's
work on them.

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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, InvalidInputError
from .errors import _instance, _integer, _integers, _member, _sequence
from .gates import fourier, hadamard
from .state import (
    MAX_AMPLITUDES,
    CircuitGate,
    MultiplexedFlip,
    MultiplexedRotation,
    RegisterLayout,
    Role,
    Site,
    StateVector,
    _basis_state,
    _bind,
    _check_capacity,
    _frozen,
    _read_only,
    apply_gates,
    squared_norm,
)

# Memo bound for layouts, shape checks and circuit templates, kept by shape
# (mode, n, m), and for rotation schedules, kept by n. A layout holds a few
# dozen small sites and a template a few small arrays, so a process cycling
# over many shapes keeps them all.
LAYOUT_MEMO_SIZE = 64


class Mode(str, Enum):
    PAPER = "paper"
    GENERAL = "general"
    FULL = "full"


@dataclass(frozen=True)
class SearchProblem:
    """One search instance: find the element of ``a`` nearest to ``b``.

    All values are n-bit unsigned integers. A layout's flat indices are
    int64, so construction raises :class:`CapacityError` when
    :meth:`state_size` exceeds ``state.MAX_AMPLITUDES``, before the layout
    or the bit table is built; that check is made once per shape
    (:func:`_shape`). A run itself stores only the state's support, at
    most 2m amplitudes. The superposition gate checks its own size when it
    is built (:func:`~qnearest.gates.fourier`).
    """

    n: int
    a: tuple[int, ...]
    b: int
    mode: Mode = Mode.GENERAL

    def __post_init__(self) -> None:
        n, a, b = validate_instance(self.a, self.b, self.n)
        mode = _mode(self.mode)
        shifts = _shape(mode, n, len(a)).shifts
        # b, then each a_j, read-only; int64 is exact since the shape check keeps n < 63
        values = _read_only(np.array((b, *a), dtype=np.int64))
        # row 0 holds b's bits and row j + 1 a_j's
        bits = _read_only(((values[:, None] >> shifts) & 1).astype(np.uint8))
        self.__dict__.update(n=n, a=a, b=b, mode=mode, _values=values, _bits=bits)

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
    def _shape_template(self) -> _Template:
        # the problem's checked shape template, read once from the memo
        return _template(self.mode, self.n, self.m)

    @property
    def bit_table(self) -> np.ndarray:
        """Read-only ``(m, n)`` 0/1 uint8 array of each element's bits, most
        significant first, built at construction together with b's bits."""
        return self._bits[1:]

    def state_size(self) -> int:
        """Amplitude count of this problem's layout, computed without allocating."""
        return _shape(self.mode, self.n, self.m).size


class _Shape(NamedTuple):
    """What construction reads off a shape; see :func:`_shape`."""

    size: int
    shifts: np.ndarray


@lru_cache(maxsize=LAYOUT_MEMO_SIZE)
def _shape(mode: Mode, n: int, m: int) -> _Shape:
    """A shape's checks and facts for :class:`SearchProblem`, made once per shape.

    Raises :class:`InvalidInputError` for paper mode without exactly two
    elements, and :class:`CapacityError` for a layout past
    ``state.MAX_AMPLITUDES`` amplitudes. Returns the layout's amplitude
    count, computed without building it, and the read-only bit shifts
    ``n - 1, ..., 0`` of an n-bit value, most significant first.
    """
    if mode is Mode.PAPER and m != 2:
        raise InvalidInputError(f"paper mode requires exactly 2 elements, got {m}")
    if n >= MAX_AMPLITUDES.bit_length():
        # 2^n alone is past int64; the size below would be a 2^n-bit integer
        raise CapacityError(f"state needs over 2^{n} amplitudes; flat indices are int64")
    size = (1 << n) * _index_dimension(m)
    if mode is Mode.FULL:
        size <<= n * (m + 1)
    if _scored(mode, m):
        size <<= 1
    _check_capacity(size)
    return _Shape(size, _read_only(np.arange(n - 1, -1, -1)))


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
    return _member(Mode, value, "mode")


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

    ``steps`` holds :class:`CircuitGate` entries and, for a copy and a
    comparison stage, a :class:`~qnearest.state.MultiplexedFlip` and a
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
    # set only on a template-bound circuit: apply_gates' arguments, the state
    # after its superposition step, the steps left to run from it and that
    # state's squared norm
    _resume = None

    def __post_init__(self) -> None:
        layout = _instance(self.layout, RegisterLayout, "circuit layout")
        object.__setattr__(self, "initial_digits", layout._checked(self.initial_digits))
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


def superposition_gates(problem: SearchProblem, layout: RegisterLayout) -> tuple[CircuitGate, ...]:
    """The uniform-superposition gate on the index qudit (none for m = 1)."""
    return _superposition(layout, problem.m)


def _superposition(layout: RegisterLayout, m: int) -> tuple[CircuitGate, ...]:
    if m == 1:
        return ()
    index = layout.single(Role.INDEX)
    d = layout.dims[index]
    return (CircuitGate(hadamard() if d == 2 else fourier(d), (), index),)


def copy_gates(problem: SearchProblem, layout: RegisterLayout) -> tuple[CircuitGate, ...]:
    """The copy stage gate by gate: :func:`_copy_stage`'s step, expanded as
    :attr:`Circuit.gates` expands it.

    One X gate per set bit, element by element, most significant bit
    first, copying element j into the buffer on the index-j branch (in full
    mode also controlled on the array wire, Toffoli-style). A search runs
    the stage's step and does not call this.
    """
    return _expanded(_copy_stage(problem))


def _copy_stage(problem: SearchProblem) -> tuple[MultiplexedFlip]:
    """The copy stage as one circuit step, in every mode; its one builder.

    Its rows are the set bits of :attr:`SearchProblem.bit_table`: a 1 at
    (j, k) flips copy bit k on the index-j branch. They are written into
    the copy columns of a parity table of the shape's template, one
    :class:`~qnearest.state.MultiplexedFlip` on the index qudit; in full
    mode each flip also fires only where array wire (j, k) reads 1.
    """
    template, bits = problem._shape_template, problem.bit_table
    parity = np.zeros(template.flip_shape, dtype=np.uint8)
    parity[: len(bits), template.copies] = bits
    return (MultiplexedFlip(template.index, parity, template.flip_wires),)


def comparison_gates(problem: SearchProblem, layout: RegisterLayout) -> tuple[CircuitGate, ...]:
    """The comparison stage gate by gate: :func:`_comparison_stage`'s step,
    expanded as :attr:`Circuit.gates` expands it.

    One controlled rotation per bit position where some element differs
    from b (in full mode also controlled on the reference wire). A search
    runs the stage's step and does not call this.
    """
    return _expanded(_comparison_stage(problem))


def _comparison_stage(problem: SearchProblem) -> tuple[MultiplexedRotation, ...]:
    """The comparison stage as circuit steps, in every mode; its one builder.

    One row per bit k where some element differs from b; a rotation on a
    bit where every element matches b could never fire. The row turns the
    score qubit (the index qubit when there is none) by bit k's signed
    weight wherever copy bit k differs from b's bit. The rows are read off
    the shape's template, indexed ``[b_k, k]``, as one
    :class:`~qnearest.state.MultiplexedRotation`: each row's control
    (copy k, ``1 - b_k``) and angle ``signed[b_k, k]``, or no step when
    there is no row. In full mode each row also fires only where reference
    wire k reads b_k (``references[b_k, k]``), so the rotation stays
    conditioned on the loaded reference value rather than baked in.
    """
    template, b_bits = problem._shape_template, problem._bits[0]
    rows = (problem.bit_table != b_bits).any(axis=0).nonzero()[0]
    if not rows.size:
        return ()
    bits = b_bits.take(rows)
    wires = None if template.references is None else template.references[bits, rows]
    return (MultiplexedRotation(template.target, template.controls[bits, rows],
                                template.signed[bits, rows], wires),)


class _Template(NamedTuple):
    """What a circuit's shape fixes: its checked structure, its superposed
    start and every fact a search reads off the shape; see :func:`_template`."""

    layout: RegisterLayout
    superposition: tuple[CircuitGate, ...]
    index: int
    flip_shape: tuple[int, int]
    copies: np.ndarray
    target: int
    signed: np.ndarray
    controls: np.ndarray
    references: np.ndarray | None
    wires: np.ndarray | None
    flip_wires: np.ndarray | None
    marginal: tuple[int, ...]
    start: StateVector
    norm: float
    initial_digits: tuple[int, ...]


@lru_cache(maxsize=LAYOUT_MEMO_SIZE)
def _template(mode: Mode, n: int, m: int) -> _Template:
    """The checked template of a shape, built once per shape.

    It holds the shape's shared layout, superposition step, index site, the
    flip table's shape, the copy sites (a read-only int64 array, most
    significant bit first), the rotation target, and read-only tables
    indexed ``[bit, k]`` by b's bit and the bit position: ``signed``, of
    shape ``(2, n)``, bit k's rotation weight signed by b's bit, and
    ``controls``, of shape ``(2, n, 2)``, the row's control pair (copy k,
    ``1 - bit``). In full mode it also holds three read-only tables of wire
    sites (None otherwise): ``references``, the ``(2, n, 2)`` pairs
    (reference wire k, ``bit``); ``wires``, of shape ``(m + 1, n)``, row 0
    the reference wires and row j + 1 element j's, as the rows of
    ``SearchProblem._bits``; and ``flip_wires``, the flip table's wire
    table (array wire (j, k) on index digit j and copy site k). Its
    structure is checked here, as a :class:`Circuit` checks it, through
    each step's own ``check``, on the largest tables the shape allows: a
    flip table flipping every copy site on every element's index digit,
    and a rotation table with every copy bit as a row, once for each digit
    of b's bit, each entry and row on its wire in full mode. An instance's
    tables have a subset of those rows and entries, so a search's tables
    are built through their constructors, which check only values.

    It also holds ``marginal``, the sites whose marginal
    :func:`~qnearest.measure.index_distribution` reads: the index, then the
    score qubit when the shape has one. And it holds ``start``, the support
    after the superposition step from the all-zero basis state, computed
    once through :func:`~qnearest.state.apply_gates` with its norm check,
    from which a search runs its two tables; ``norm``, the squared norm of
    ``start``, which starts a search's running norm; and
    ``initial_digits``, the all-zero digits the template checked, the
    circuit's initial digits in the compiled modes.
    """
    layout = _shared_layout(mode, n, m)
    index = layout.single(Role.INDEX)
    copies = _read_only(np.array(layout.sites_of(Role.COPY), dtype=np.int64))
    target = layout.single(Role.SCORE if _scored(mode, m) else Role.INDEX)
    weights = rotation_schedule(n)
    signed = np.array([[_signed_weight(bit, weight) for weight in weights] for bit in (0, 1)])
    controls, references = _pair_table(copies, (1, 0)), None
    parity = np.zeros((layout.dims[index], len(layout.sites)), dtype=np.uint8)
    parity[:m, copies] = 1
    wires = flip_wires = None
    if mode is Mode.FULL:
        wires = np.array(layout.sites_of(Role.REFERENCE) + layout.sites_of(Role.ARRAY))
        wires = _read_only(wires.reshape(m + 1, n))
        references = _pair_table(wires[0], (0, 1))
        flip_wires = np.full(parity.shape, -1)
        flip_wires[:m, copies] = wires[1:]
    widest = [MultiplexedRotation(target, controls[bit], signed[bit],
                                  None if references is None else references[bit])
              for bit in (0, 1)]
    superposition, flip = _superposition(layout, m), MultiplexedFlip(index, parity, flip_wires)
    checked = Circuit(layout, (0,) * len(layout.sites), superposition + (flip, *widest))
    start = apply_gates(_basis_state(layout, checked.initial_digits), superposition, 1.0)
    marginal = (index, target) if target != index else (index,)
    return _Template(layout, superposition, index, parity.shape, copies, target,
                     _read_only(signed), controls, references, wires, flip.wires, marginal,
                     start, squared_norm(start.values), checked.initial_digits)


def _pair_table(sites: np.ndarray, digits: tuple[int, int]) -> np.ndarray:
    # read-only (2, n, 2): entry [bit, k] is the pair (sites[k], digits[bit])
    return _read_only(np.stack(np.broadcast_arrays(sites, np.array(digits)[:, None]), axis=-1))


def _circuit(problem: SearchProblem, stages: Sequence) -> Circuit:
    """The superposition step, then the steps of ``stages`` (stage builders).

    The template has checked the structure of every step the stage builders
    bind to it, so the circuit is built without checking its steps again,
    and it runs from the template's superposed support. In full mode the
    problem's bits, already checked, are written into the wire rows of that
    support; the superposition step touches only the index site, so this
    start is exact, and the initial digits are its first column, the
    template's with the wire digits written in. The start keeps the
    template's amplitudes, so the template's squared norm starts the
    running norm.
    """
    template = _instance(problem, SearchProblem, "problem")._shape_template
    tables = tuple(step for stage in stages for step in stage(problem))
    start, initial_digits = template.start, template.initial_digits
    if template.wires is not None:
        digits = start.digits.copy()
        digits[template.wires] = problem._bits[..., None]
        start = _frozen(template.layout, digits, start.values)
        # the support's first column is the basis state's: index digit 0
        initial_digits = tuple(digits[:, 0].tolist())
    return _bind(Circuit, layout=template.layout, initial_digits=initial_digits,
                 steps=template.superposition + tables, _resume=(start, tables, template.norm))


def build_circuit(problem: SearchProblem) -> Circuit:
    """Complete circuit for any mode: superposition, copy, then comparison.

    The copy stage is one flip table (see :func:`_copy_stage`) and the
    comparison stage one rotation table (see :func:`_comparison_stage`),
    bound to the shape's template; :attr:`Circuit.gates` still lists both
    gate by gate.
    """
    return _circuit(problem, (_copy_stage, _comparison_stage))


def execute_circuit(circuit: Circuit) -> StateVector:
    """Run the circuit's steps on its basis state (squared norm 1).

    A circuit that :func:`build_circuit` bound to its shape's template runs
    only its two tables, from the template's support after the
    superposition step (see :func:`_circuit`), whose squared norm, measured
    once per shape, starts the running norm.
    """
    if _instance(circuit, Circuit, "circuit")._resume is None:
        return apply_gates(_basis_state(circuit.layout, circuit.initial_digits), circuit.steps, 1.0)
    return apply_gates(*circuit._resume)


def load_superposition(problem: SearchProblem) -> StateVector:
    """State after the loading stage: (1/sqrt(m)) sum_j |a_j> on the copy buffer, |j> on the index."""
    return execute_circuit(_circuit(problem, (_copy_stage,)))


def apply_comparison_stage(state: StateVector, problem: SearchProblem) -> StateVector:
    """Apply the bit-weighted comparison rotations to a loaded state.

    The rotations run as the comparison step :func:`build_circuit` emits,
    so ``apply_comparison_stage(load_superposition(p), p)`` equals
    ``run(p)`` bit for bit.
    """
    layout = _instance(problem, SearchProblem, "problem").layout
    if _instance(state, StateVector, "state").layout != layout:
        raise InvalidInputError("state layout does not match the problem's mode")
    return apply_gates(state, _comparison_stage(problem), squared_norm(state.values))


def run(problem: SearchProblem) -> StateVector:
    """Build the whole circuit (superposition, copy, comparison) and execute it."""
    return execute_circuit(build_circuit(problem))

"""The support-sparse kernel against the independent dense whole-block
reference of ``dense.py``, on random circuits, random dense states and the
built search circuits of every mode; its gate paths and tables, its running
norm check, its stored support and its memory, and that no search reads the
dense view."""

from __future__ import annotations

import math
import tracemalloc
from functools import reduce

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from conftest import instances, make_layout, random_state, random_unitary
from dense import flat_indices, flatten, from_amplitudes, reference_apply, reference_run
from qnearest import (
    Circuit,
    CircuitGate,
    Gate,
    Mode,
    MultiplexedFlip,
    MultiplexedRotation,
    SearchProblem,
    StateVector,
    apply_comparison_stage,
    apply_controlled,
    build_circuit,
    comparison_gates,
    copy_gates,
    decide,
    execute_circuit,
    fourier,
    hadamard,
    index_distribution,
    init_basis_state,
    load_superposition,
    pauli_x,
    run,
    superposition_gates,
)
from qnearest.cli import SearchRequest, main, run_search
from qnearest.errors import CapacityError, NormDriftError
from qnearest.state import _fibres, _unfibred, apply_gates, squared_norm


def _phased_shift(rng, d):
    # a permutation with unit-modulus phases: not a permutation matrix, so
    # the kernel runs it as a fibre run
    matrix = pauli_x(d).matrix @ np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, d)))
    return matrix[:, rng.permutation(d)]


def _multiplexed_run(draw, dims):
    """Single-control qubit X gates sharing one control site, with random
    control digits and repeated targets, as a flip table stands for (the
    kernel runs them gate by gate, as permutations); sometimes a gate
    targeting the control site sits inside. Empty when the layout has no
    qubit besides the control site."""
    site = draw(st.integers(0, len(dims) - 1))
    qubits = [t for t in range(len(dims)) if t != site and dims[t] == 2]
    if not qubits:
        return []
    gates = [
        CircuitGate(pauli_x(2), ((site, draw(st.integers(0, dims[site] - 1))),),
                    draw(st.sampled_from(qubits)))
        for _ in range(draw(st.integers(1, 6)))
    ]
    if draw(st.booleans()):
        other = draw(st.sampled_from([s for s in range(len(dims)) if s != site]))
        digit = draw(st.integers(0, dims[other] - 1))
        breaker = CircuitGate(pauli_x(dims[site]), ((other, digit),), site)
        gates.insert(draw(st.integers(0, len(gates))), breaker)
    return gates


def _fibre_gates(draw, rng, dims, spectator=None):
    """Random unitaries on one shared target, as the kernel runs on one
    grouping of the support. Each gate has no controls, random controls,
    or, given a ``spectator`` site that reads 0 on every stored entry, a
    control on it that matches no column (digit 1) or every column (digit
    0) beside random ones."""
    target = draw(st.sampled_from([s for s in range(len(dims)) if s != spectator]))
    others = [s for s in range(len(dims)) if s not in (target, spectator)]
    kinds = ["none", "random"] + (["never", "always"] if spectator is not None else [])
    gates = []
    for k in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(kinds))
        picked = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        controls = () if kind == "none" else tuple(
            (s, draw(st.integers(0, dims[s] - 1))) for s in picked
        )
        if kind in ("never", "always"):
            controls += ((spectator, int(kind == "never")),)
        d = dims[target]
        gates.append(CircuitGate(Gate(d, random_unitary(rng, d), f"run{k}"), controls, target))
    return gates


def _rotation_table(draw, dims, spectator=None):
    """A random :class:`MultiplexedRotation` on a qubit site other than
    ``spectator``, or None when there is none. It has zero to six rows, each
    with a random angle and a control on another site; given a
    ``spectator`` site that reads 0 on every stored entry, some rows are
    controlled on it and select no column (digit 1) or every column (digit
    0). Rows may share a control site."""
    qubits = [t for t in range(len(dims)) if dims[t] == 2 and t != spectator]
    if not qubits:
        return None
    target = draw(st.sampled_from(qubits))
    others = [s for s in range(len(dims)) if s not in (target, spectator)]
    kinds = (["random"] if others else []) + (["never", "always"] if spectator is not None else [])
    controls, angles = [], []
    for _ in range(draw(st.integers(0, 6)) if kinds else 0):
        kind = draw(st.sampled_from(kinds))
        if kind == "random":
            site = draw(st.sampled_from(others))
            controls.append((site, draw(st.integers(0, dims[site] - 1))))
        else:
            controls.append((spectator, int(kind == "never")))
        angles.append(draw(st.floats(-2 * math.pi, 2 * math.pi)))
    return MultiplexedRotation(target, tuple(controls), angles)


@st.composite
def random_gates(draw, dims):
    """Random gates on a mixed-radix layout, drawn from every kernel path.

    Each gate is a random unitary, an exact shift, a permutation with
    phases or the identity (a permutation that must not count as X). Some
    are controlled on every other site, so their block is the target's own
    d amplitudes, and some repeat the previous gate's controls. Some draws
    add a multiplexed run of single-control qubit X gates (see
    :func:`_multiplexed_run`) or a run of random unitaries on one target
    (see :func:`_fibre_gates`) instead.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gates = []
    for k in range(draw(st.integers(1, 10))):
        path = draw(st.integers(0, 5))
        if path == 0:
            gates += _multiplexed_run(draw, dims)
            continue
        if path == 1:
            gates += _fibre_gates(draw, rng, dims)
            continue
        target = draw(st.integers(0, len(dims) - 1))
        d = dims[target]
        previous = gates[-1].controls if gates else ()
        if previous and target not in dict(previous) and draw(st.booleans()):
            controls = previous
        else:
            free = [s for s in range(len(dims)) if s != target]
            if free and not draw(st.booleans()):
                free = draw(st.lists(st.sampled_from(free), unique=True))
            controls = tuple((s, draw(st.integers(0, dims[s] - 1))) for s in free)
        kind = draw(st.sampled_from(["unitary", "shift", "phased", "identity"]))
        if kind == "unitary":
            matrix = random_unitary(rng, d)
        elif kind == "shift":
            matrix = pauli_x(d).matrix
        elif kind == "identity":
            matrix = np.eye(d)
        else:
            matrix = _phased_shift(rng, d)
        # built with Gate, so its unitarity check still applies
        gates.append(CircuitGate(Gate(d, matrix, f"{kind}{k}"), controls, target))
    return tuple(gates)


@st.composite
def random_circuits(draw):
    # some circuits carry a rotation table among their gates
    dims = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    digits = tuple(draw(st.integers(0, d - 1)) for d in dims)
    steps = draw(random_gates(dims))
    table = _rotation_table(draw, dims) if draw(st.booleans()) else None
    if table is not None:
        at = draw(st.integers(0, len(steps)))
        steps = steps[:at] + (table,) + steps[at:]
    return Circuit(make_layout(*dims), digits, steps)


def _fold(state, gates):
    return reduce(
        lambda out, cg: apply_controlled(out, cg.controls, cg.target, cg.gate.matrix),
        gates,
        state,
    )


@given(random_circuits())
def test_in_place_loop_matches_the_gate_by_gate_fold(circuit):
    loop = execute_circuit(circuit)
    fold = _fold(init_basis_state(circuit.layout, circuit.initial_digits), circuit.gates)
    start = init_basis_state(circuit.layout, circuit.initial_digits).amplitudes
    reference = reference_run(start, circuit.layout.dims, circuit.gates)
    assert np.max(np.abs(loop.amplitudes - fold.amplitudes)) <= 1e-12
    assert np.max(np.abs(loop.amplitudes - reference)) <= 1e-12
    assert flat_indices(loop).size == np.count_nonzero(loop.amplitudes)


@given(st.lists(st.integers(2, 4), min_size=1, max_size=4).flatmap(
    lambda dims: st.tuples(st.just(tuple(dims)), random_gates(tuple(dims)),
                           st.integers(0, 2 ** 32 - 1))))
def test_apply_controlled_from_dense_states_matches_the_reference(case):
    # full support: every group holds d entries, and no amplitude starts at zero
    dims, gates, seed = case
    layout = make_layout(*dims)
    amps = random_state(np.random.default_rng(seed), layout.total_dimension)
    out = _fold(from_amplitudes(layout, amps), gates)
    assert np.max(np.abs(out.amplitudes - reference_run(amps, dims, gates))) <= 1e-12


@given(data=st.data())
def test_fibre_runs_match_the_reference_whatever_their_controls_select(data):
    # the last site is a spectator qubit reading 0 on every stored entry, so
    # a control on it selects no column or every column; the rest is dense
    dims = tuple(data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))) + (2,)
    layout = make_layout(*dims)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    gates = _fibre_gates(data.draw, rng, dims, spectator=len(dims) - 1)
    amps = np.zeros(layout.total_dimension, dtype=np.complex128)
    amps[::2] = random_state(rng, layout.total_dimension // 2)
    state = from_amplitudes(layout, amps)
    out = apply_gates(state, gates, squared_norm(state.values))
    assert np.max(np.abs(out.amplitudes - reference_run(amps, dims, gates))) <= 1e-12
    assert flat_indices(out).size == np.count_nonzero(out.amplitudes)


@pytest.mark.parametrize("mode", list(Mode))
@given(data=st.data())
def test_built_circuits_match_the_reference(mode, data):
    # full mode stays at n <= 2, m <= 3 (at most 2^10 * 4 * 2 dense amplitudes)
    max_bits, max_m = {Mode.PAPER: (4, 2), Mode.GENERAL: (4, 6), Mode.FULL: (2, 3)}[mode]
    min_m = 2 if mode is Mode.PAPER else 1
    n, a, b = data.draw(instances(max_bits=max_bits, min_m=min_m, max_m=max_m))
    problem = SearchProblem(n, a, b, mode)
    circuit = build_circuit(problem)
    start = init_basis_state(circuit.layout, circuit.initial_digits).amplitudes
    reference = reference_run(start, circuit.layout.dims, circuit.gates)
    assert np.max(np.abs(run(problem).amplitudes - reference)) <= 1e-12


@pytest.mark.parametrize("mode", list(Mode))
@given(data=st.data())
def test_a_run_stores_at_most_two_amplitudes_per_index_level(mode, data):
    # every branch j holds one copy-register value and, at most, two score
    # (or index) levels; the layout itself is far larger in full mode
    max_bits, max_m = {Mode.PAPER: (8, 2), Mode.GENERAL: (8, 16), Mode.FULL: (3, 4)}[mode]
    min_m = 2 if mode is Mode.PAPER else 1
    n, a, b = data.draw(instances(max_bits=max_bits, min_m=min_m, max_m=max_m))
    problem = SearchProblem(n, a, b, mode)
    state = run(problem)
    assert flat_indices(state).size == state.values.size <= 2 * max(2, problem.m)
    assert np.all(state.values != 0)
    assert np.unique(flat_indices(state)).size == flat_indices(state).size


def test_permutation_gates_move_indices_and_scale_amplitudes():
    # a phased cyclic shift on a qutrit where site 0 reads 1, after H on
    # site 0: it runs as a fibre run, and moves and scales as a permutation would
    layout = make_layout(2, 3)
    phases = np.exp(1j * np.array([0.3, -1.1, 2.0]))
    shift = Gate(3, pauli_x(3).matrix @ np.diag(phases), "P")
    circuit = Circuit(layout, (0, 2), (
        CircuitGate(hadamard(), (), 0),
        CircuitGate(shift, ((0, 1),), 1),
    ))
    state = execute_circuit(circuit)
    got = dict(zip(flat_indices(state).tolist(), state.values.tolist()))
    r = 2 ** -0.5
    assert got == pytest.approx({flatten(layout, (0, 2)): r,
                                 flatten(layout, (1, 0)): r * phases[2]}, abs=1e-15)


def test_a_run_of_permutations_with_shared_controls_matches_the_reference():
    # consecutive X gates under one control, as copy_gates emits per element,
    # including a target whose digit an earlier gate of the run moved
    layout = make_layout(3, 2, 2, 2)
    spread = CircuitGate(Gate(3, random_unitary(np.random.default_rng(5), 3), "U"), (), 0)
    flip = pauli_x(2)
    run_gates = tuple(CircuitGate(flip, ((0, 1),), t) for t in (1, 2, 3, 2))
    circuit = Circuit(layout, (0, 0, 0, 0), (spread,) + run_gates)
    start = init_basis_state(layout, (0, 0, 0, 0)).amplitudes
    reference = reference_run(start, layout.dims, circuit.gates)
    assert np.max(np.abs(execute_circuit(circuit).amplitudes - reference)) <= 1e-15


def _digit_flips(state, gates):
    # exact reference for X gates: flip each stored entry's target digit
    # wherever its control digits match, one gate at a time in Python ints
    out = []
    for digits in state.digits.T.tolist():
        for cg in gates:
            if all(digits[s] == d for s, d in cg.controls):
                digits[cg.target] ^= 1
        out.append(flatten(state.layout, digits))
    return out


@pytest.mark.parametrize("mode", [Mode.PAPER, Mode.GENERAL])
@given(data=st.data())
def test_compiled_copy_stage_moves_exactly_as_the_gate_by_gate_fold(mode, data):
    # the compiled copy stage is one flip table keyed by the index digit;
    # its one move must leave the very arrays that its gates, one at a time, leave
    max_bits, max_m = {Mode.PAPER: (8, 2), Mode.GENERAL: (8, 24)}[mode]
    min_m = 2 if mode is Mode.PAPER else 1
    n, a, b = data.draw(instances(max_bits=max_bits, min_m=min_m, max_m=max_m))
    problem = SearchProblem(n, a, b, mode)
    layout = problem.layout
    digits = (0,) * len(layout.sites)
    superposition = superposition_gates(problem, layout)
    (table,) = [s for s in build_circuit(problem).steps if type(s) is MultiplexedFlip]
    start = execute_circuit(Circuit(layout, digits, superposition))
    fused = execute_circuit(Circuit(layout, digits, superposition + (table,)))
    gates = copy_gates(problem, layout)
    assert Circuit(layout, digits, (table,)).gates == gates
    fold = _fold(start, gates)
    assert np.array_equal(flat_indices(fused), flat_indices(fold))
    assert np.array_equal(fused.values, fold.values)
    assert flat_indices(fused).tolist() == _digit_flips(start, gates)


@given(data=st.data())
def test_a_flip_table_moves_a_dense_state_as_its_gates_do(data):
    # every digit combination is stored, so each flip meets both target
    # digits; the table must move amplitudes exactly as its X gates do
    dims = tuple(data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=4)))
    control = data.draw(st.integers(0, len(dims) - 1))
    qubits = [t for t in range(len(dims)) if t != control and dims[t] == 2]
    parity = np.zeros((dims[control], len(dims)), dtype=np.uint8)
    for c in range(dims[control]):
        parity[c, data.draw(st.lists(st.sampled_from(qubits), unique=True)) if qubits else []] = 1
    layout = make_layout(*dims)
    flip = MultiplexedFlip(control, parity)
    gates = Circuit(layout, (0,) * len(dims), (flip,)).gates
    amps = random_state(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                        layout.total_dimension)
    out = apply_gates(from_amplitudes(layout, amps), [flip], 1.0)
    assert len(gates) == np.count_nonzero(parity)
    assert np.array_equal(out.amplitudes, reference_run(amps, dims, gates))


@given(data=st.data())
def test_a_rotation_table_turns_a_dense_state_as_its_gates_do(data):
    # the last site is a spectator qubit reading 0 on every stored entry, so a
    # row controlled on it selects no column or every column; the rest is
    # dense, and holds at least one qubit for the target
    dims = data.draw(st.lists(st.integers(2, 4), min_size=0, max_size=3))
    dims.insert(data.draw(st.integers(0, len(dims))), 2)
    dims = tuple(dims) + (2,)
    layout = make_layout(*dims)
    table = _rotation_table(data.draw, dims, spectator=len(dims) - 1)
    gates = Circuit(layout, (0,) * len(dims), (table,)).gates
    assert len(gates) == len(table.controls)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    amps = np.zeros(layout.total_dimension, dtype=np.complex128)
    amps[::2] = random_state(rng, layout.total_dimension // 2)
    state = from_amplitudes(layout, amps)
    out = apply_gates(state, [table], squared_norm(state.values))
    assert np.max(np.abs(out.amplitudes - _fold(state, gates).amplitudes)) <= 1e-14
    assert np.max(np.abs(out.amplitudes - reference_run(amps, dims, gates))) <= 1e-14
    assert flat_indices(out).size == np.count_nonzero(out.amplitudes)


@given(data=st.data())
def test_a_flip_table_on_wires_moves_a_dense_state_as_its_gates_do(data):
    # each flip also reads its own wire, a site that no flip of the table
    # targets; the table must move amplitudes exactly as its two-control gates do
    dims = tuple(data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=5)))
    control = data.draw(st.integers(0, len(dims) - 1))
    qubits = [t for t in range(len(dims)) if t != control and dims[t] == 2]
    targets = data.draw(st.lists(st.sampled_from(qubits), unique=True)) if qubits else []
    wire_sites = [s for s in range(len(dims)) if s != control and s not in targets]
    parity = np.zeros((dims[control], len(dims)), dtype=np.uint8)
    wires = np.full(parity.shape, -1)
    for c in range(dims[control]):
        for t in targets if wire_sites else []:
            if data.draw(st.booleans()):
                parity[c, t], wires[c, t] = 1, data.draw(st.sampled_from(wire_sites))
    layout = make_layout(*dims)
    flip = MultiplexedFlip(control, parity, wires)
    gates = Circuit(layout, (0,) * len(dims), (flip,)).gates
    assert [cg.controls[1] for cg in gates] == [
        (int(wires[c, t]), 1) for c, t in zip(*np.nonzero(parity))]
    amps = random_state(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                        layout.total_dimension)
    out = apply_gates(from_amplitudes(layout, amps), [flip], 1.0)
    assert np.array_equal(out.amplitudes, reference_run(amps, dims, gates))


@given(data=st.data())
def test_a_rotation_table_on_wires_turns_a_dense_state_as_its_gates_do(data):
    # each row also reads its own wire, at a site other than the target and its control
    dims = data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    dims.insert(data.draw(st.integers(0, len(dims))), 2)
    dims = tuple(dims)
    layout = make_layout(*dims)
    table = _rotation_table(data.draw, dims)
    wires = []
    for site, _ in table.controls.tolist():
        others = [s for s in range(len(dims)) if s not in (table.target, site)]
        wire = data.draw(st.sampled_from(others))
        wires.append((wire, data.draw(st.integers(0, dims[wire] - 1))))
    table = MultiplexedRotation(table.target, table.controls, table.angles, wires)
    gates = Circuit(layout, (0,) * len(dims), (table,)).gates
    assert [cg.controls for cg in gates] == list(zip(wires, map(tuple, table.controls.tolist())))
    amps = random_state(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                        layout.total_dimension)
    state = from_amplitudes(layout, amps)
    out = apply_gates(state, [table], squared_norm(state.values))
    assert np.max(np.abs(out.amplitudes - _fold(state, gates).amplitudes)) <= 1e-14
    assert np.max(np.abs(out.amplitudes - reference_run(amps, dims, gates))) <= 1e-14


@pytest.mark.parametrize("mode", [Mode.PAPER, Mode.GENERAL])
@given(data=st.data())
def test_compiled_comparison_stage_turns_as_the_gate_by_gate_fold(mode, data):
    # the compiled comparison stage is one rotation table (none when every
    # element equals b); it lists as comparison_gates and turns the loaded
    # state as they do, one at a time
    max_bits, max_m = {Mode.PAPER: (12, 2), Mode.GENERAL: (10, 24)}[mode]
    min_m = 2 if mode is Mode.PAPER else 1
    n, a, b = data.draw(instances(max_bits=max_bits, min_m=min_m, max_m=max_m))
    problem = SearchProblem(n, a, b, mode)
    layout = problem.layout
    tables = tuple(s for s in build_circuit(problem).steps if type(s) is MultiplexedRotation)
    assert len(tables) == int(any(v != b for v in problem.a))
    gates = comparison_gates(problem, layout)
    assert Circuit(layout, (0,) * len(layout.sites), tables).gates == gates
    loaded = load_superposition(problem)
    fused = apply_comparison_stage(loaded, problem)
    assert np.max(np.abs(fused.amplitudes - _fold(loaded, gates).amplitudes)) <= 1e-14


def test_a_rotation_table_checks_the_running_norm():
    # one check per table, NaN-safe, also when no row selects the stored entry
    layout = make_layout(2, 2)
    state = init_basis_state(layout, (1, 0))
    turns = MultiplexedRotation(1, ((0, 1),), [0.7])
    out = apply_gates(state, [turns], 1.0)
    assert flat_indices(out).tolist() == [flatten(layout, (1, 0)), flatten(layout, (1, 1))]
    assert out.values == pytest.approx([math.cos(0.35), -1j * math.sin(0.35)], abs=1e-16)
    idle = MultiplexedRotation(1, ((0, 0),), [0.7])
    assert np.array_equal(apply_gates(state, [idle], 1.0).values, state.values)
    for table in (turns, idle):
        for norm in (1 + 1e-6, float("nan")):
            with pytest.raises(NormDriftError):
                apply_gates(state, [table], norm)


def _sparse_layout(data):
    """A small layout with at least one qubit, whose last site is a
    spectator qubit that a sparse support reads 0 on."""
    dims = data.draw(st.lists(st.integers(2, 4), min_size=0, max_size=3))
    dims.insert(data.draw(st.integers(0, len(dims))), 2)
    return make_layout(*dims, 2)


def _sparse_support(data, layout, target):
    """``(indices, values)``: random distinct indices, unsorted, that read 0
    on the spectator (last) site, and also on the qubit ``target`` or not,
    with random unit-norm values."""
    every = np.arange(layout.total_dimension)
    allowed = every[every % 2 == 0]  # the spectator is the last site, stride 1
    if data.draw(st.booleans()):
        allowed = allowed[allowed // layout.strides[target] % 2 == 0]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    indices = rng.choice(allowed, int(rng.integers(1, allowed.size + 1)), replace=False)
    return indices.astype(np.int64), random_state(rng, indices.size)


@given(data=st.data())
def test_fibres_group_any_support_by_its_sorted_keys(data):
    # with every target digit 0 each entry is its own column and np.unique is
    # skipped; either way the grouping is the one np.unique defines, and
    # ungrouping gives back the stored entries
    layout = _sparse_layout(data)
    dims = layout.dims
    target = data.draw(st.sampled_from([t for t in range(len(dims) - 1) if dims[t] == 2]))
    indices, values = _sparse_support(data, layout, target)
    strides, stride = layout.strides_array, layout.strides[target]
    digits = np.array(np.unravel_index(indices, dims))
    key_digits, fibres = _fibres(digits, values, target, 2, strides)
    # a key's target row is never read, so its flat key zeroes it
    keys = strides @ key_digits - key_digits[target] * stride
    digit = indices // stride % 2
    assert np.array_equal(keys, np.unique(indices - digit * stride))
    expected = np.zeros((2, keys.size), dtype=np.complex128)
    expected[digit, np.searchsorted(keys, indices - digit * stride)] = values
    assert np.array_equal(fibres, expected)
    out_digits, out_values = _unfibred(key_digits, fibres, target)
    assert set(zip((strides @ out_digits).tolist(), out_values.tolist())) == set(
        zip(indices.tolist(), values.tolist()))


@given(data=st.data())
def test_a_rotation_table_turns_a_sparse_support_as_its_gates_do(data):
    # the table's target reads 0 on every stored entry (each entry is its own
    # column) or not (grouped); rows controlled on the spectator select no
    # column or every column
    layout = _sparse_layout(data)
    dims = layout.dims
    table = _rotation_table(data.draw, dims, spectator=len(dims) - 1)
    indices, values = _sparse_support(data, layout, table.target)
    gates = Circuit(layout, (0,) * len(dims), (table,)).gates
    amps = np.zeros(layout.total_dimension, dtype=np.complex128)
    amps[indices] = values
    state = StateVector(layout, np.array(np.unravel_index(indices, dims)), values)
    out = apply_gates(state, [table], squared_norm(values))
    assert np.max(np.abs(out.amplitudes - _fold(state, gates).amplitudes)) <= 1e-14
    assert np.max(np.abs(out.amplitudes - reference_run(amps, dims, gates))) <= 1e-14
    assert flat_indices(out).size == np.count_nonzero(out.amplitudes)


def test_an_uncontrolled_gate_on_a_basis_state_writes_one_matrix_column():
    # bit for bit what the d x d gate times a (d, 1) column holding the
    # basis amplitude gives, for every Fourier size up to 199 and for a
    # random unitary read at a nonzero digit; indices come in digit order
    rng = np.random.default_rng(3)
    cases = [(fourier(d), 0) for d in range(2, 200)] + [(Gate(5, random_unitary(rng, 5), "U"), 3)]
    for gate, digit in cases:
        d = gate.dimension
        layout = make_layout(3, d, 2)
        state = execute_circuit(Circuit(layout, (1, digit, 0), (CircuitGate(gate, (), 1),)))
        column = np.zeros((d, 1), dtype=np.complex128)
        column[digit] = 1
        assert flat_indices(state).tolist() == [flatten(layout, (1, k, 0)) for k in range(d)]
        assert np.array_equal(state.values, (gate.matrix @ column)[:, 0])
    # a one-entry support need not hold 1: the column is scaled by its value
    layout = make_layout(2, 5)
    phase = np.exp(0.7j)
    amps = np.zeros(layout.total_dimension, dtype=np.complex128)
    amps[flatten(layout, (1, 3))] = phase
    out = apply_gates(from_amplitudes(layout, amps), [CircuitGate(gate, (), 1)], 1.0)
    assert np.max(np.abs(out.values - phase * gate.matrix[:, 3])) <= 1e-15


def test_exact_zeros_are_dropped_after_a_gate():
    # H twice returns |0>; the |1> amplitude cancels to an exact zero
    layout = make_layout(2, 3)
    h = CircuitGate(hadamard(), (), 0)
    state = execute_circuit(Circuit(layout, (0, 1), (h,)))
    assert flat_indices(state).size == 2
    state = execute_circuit(Circuit(layout, (0, 1), (h, h)))
    assert flat_indices(state).tolist() == [flatten(layout, (0, 1))]


@pytest.mark.parametrize("dims, target", [((2, 3, 4), 0), ((3, 2), 1), ((4, 5, 2), 2)])
def test_gate_controlled_on_every_other_site_updates_one_fibre(dims, target):
    # the block is 1-D: the target's own amplitudes at one control setting
    rng = np.random.default_rng(7)
    layout = make_layout(*dims)
    spread = tuple(
        CircuitGate(Gate(d, random_unitary(rng, d), f"S{s}"), (), s) for s, d in enumerate(dims)
    )
    controls = tuple((s, dims[s] - 1) for s in range(len(dims)) if s != target)
    gate = Gate(dims[target], random_unitary(rng, dims[target]), "U")
    circuit = Circuit(layout, (0,) * len(dims), spread + (CircuitGate(gate, controls, target),))
    loop = execute_circuit(circuit).amplitudes
    start = init_basis_state(layout, (0,) * len(dims)).amplitudes
    assert np.max(np.abs(loop - reference_run(start, dims, circuit.gates))) <= 1e-12
    before = execute_circuit(Circuit(layout, (0,) * len(dims), spread)).amplitudes
    changed = np.flatnonzero(np.abs(loop - before) > 0)
    assert 0 < len(changed) <= dims[target]


def _raw_gate(matrix, label):
    # a Gate built without its unitarity check
    matrix = np.asarray(matrix, dtype=np.complex128)
    gate = object.__new__(Gate)
    for name, value in (("dimension", matrix.shape[0]), ("matrix", matrix), ("label", label)):
        object.__setattr__(gate, name, value)
    return gate


# a scaled identity and a scaled Fourier gate: neither is a permutation
# matrix, so both run as fibre runs
DRIFT_BASES = (np.eye(3), np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / math.sqrt(3))


def _drifting_circuit(base, scale, count):
    # H on site 0, then ``count`` copies of ``scale * base`` on site 1 where
    # site 0 reads 1: each multiplies that half's squared norm by scale^2
    layout = make_layout(2, 3)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    gates = (CircuitGate(_raw_gate(h, "H"), (), 0),) + tuple(
        CircuitGate(_raw_gate(scale * base, f"D{k}"), ((0, 1),), 1) for k in range(count)
    )
    return Circuit(layout, (0, 0), gates)


def test_one_scaled_gate_raises_norm_drift():
    for base in DRIFT_BASES:
        with pytest.raises(NormDriftError):
            execute_circuit(_drifting_circuit(base, 1 + 1e-6, 1))


def test_drift_summed_over_gates_raises_though_each_gate_is_within_tolerance():
    # each gate adds 0.5 * 5e-11 = 2.5e-11 to the squared norm, a quarter of
    # NORM_TOLERANCE: three stay within it, five sum past it
    scale = np.sqrt(1 + 5e-11)
    for base in DRIFT_BASES:
        state = execute_circuit(_drifting_circuit(base, scale, 3))
        drift = float(np.vdot(state.amplitudes, state.amplitudes).real) - 1.0
        assert drift == pytest.approx(7.5e-11, rel=1e-3)
        with pytest.raises(NormDriftError):
            execute_circuit(_drifting_circuit(base, scale, 5))


@pytest.mark.parametrize("fault", ["scaled", "nan"])
def test_a_faulty_gate_inside_a_fibre_run_raises_before_the_next_gate(fault):
    # five Fourier-type gates on site 1 where site 0 reads 1 share one
    # grouping. A scaled 3rd gate is undone by the 4th, so only a check after
    # every gate sees it; the gates are read lazily, so none after the 3rd
    # may be read before the error
    base = DRIFT_BASES[1]
    run = [base.copy() for _ in range(5)]
    if fault == "scaled":
        run[2] = (1 + 1e-6) * base
        run[3] = base / (1 + 1e-6)
    else:
        run[2][1, 1] = np.nan
    h = CircuitGate(_raw_gate(np.array([[1, 1], [1, -1]]) / np.sqrt(2), "H"), (), 0)
    gates = [h] + [CircuitGate(_raw_gate(matrix, "D"), ((0, 1),), 1) for matrix in run]
    read = []

    def reading():
        for gate in gates:
            read.append(gate)
            yield gate

    with pytest.raises(NormDriftError):
        apply_gates(init_basis_state(make_layout(2, 3), (0, 0)), reading(), 1.0)
    assert read[-1].gate.matrix is run[2]
    if fault == "scaled":
        # a check at the end of the run alone would pass
        amps = init_basis_state(make_layout(2, 3), (0, 0)).amplitudes
        for cg in gates:
            amps = reference_apply(amps, (2, 3), cg.controls, cg.target, cg.gate.matrix)
        assert abs(np.vdot(amps, amps).real - 1) <= 1e-14


def test_a_flip_table_checks_the_running_norm():
    # a table moves no amplitude, but the norm it is handed is still checked
    layout = make_layout(3, 2)
    flip = MultiplexedFlip(0, np.array([[0, 1], [0, 0], [0, 1]]))
    state = init_basis_state(layout, (2, 0))
    assert flat_indices(apply_gates(state, [flip], 1.0)).tolist() == [flatten(layout, (2, 1))]
    with pytest.raises(NormDriftError):
        apply_gates(state, [flip], 1 + 1e-6)


def test_nan_amplitudes_fail_the_norm_check():
    # NaN compares false against any tolerance, so the check must not pass it;
    # one NaN gate per kernel path
    for matrix in ([[np.nan, 0], [0, 1]], [[np.nan, 1], [1, 0]]):
        nan_gate = _raw_gate(matrix, "NaN")
        with pytest.raises(NormDriftError):
            execute_circuit(Circuit(make_layout(2), (0,), (CircuitGate(nan_gate, (), 0),)))
    with pytest.raises(NormDriftError):
        from_amplitudes(make_layout(2), [np.nan, 0.0])


def test_run_peak_memory_is_bounded_by_the_support():
    # full (3, 4) has 2,097,152 amplitudes (32 MiB dense), 8 of them nonzero
    problem = SearchProblem(3, (1, 5, 6, 2), 4, Mode.FULL)
    run(problem)  # first call outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = run(problem)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert flat_indices(state).size <= 8
    assert peak <= 256 * 1024


def test_a_general_search_on_a_2_to_the_62_amplitude_layout_runs_on_its_support():
    # copy register of 60 qubits, index and score qubits: 2^62 amplitudes,
    # of which a run stores at most four; the decision is not asserted here
    problem = SearchProblem(60, ((1 << 60) - 5, 12345678901234567), (1 << 59) + 3, Mode.GENERAL)
    assert problem.layout.total_dimension == 1 << 62
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        decide(index_distribution(run(problem), problem))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024


def test_the_dense_view_of_a_2_to_the_62_amplitude_state_raises_before_allocating():
    # it used to ask NumPy for 2^62 complex entries and fail with a bare ValueError
    state = run(SearchProblem(60, ((1 << 60) - 5, 3), 1 << 59, Mode.GENERAL))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(CapacityError, match=f"dense view needs {1 << 62} amplitudes"):
            state.amplitudes
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024


def test_the_dense_view_stops_at_the_dense_gate_limit(monkeypatch):
    # the limit a dense gate's matrix entries have, 2^26 by default, applied to amplitudes
    monkeypatch.setattr("qnearest.state.MAX_MATRIX_ENTRIES", 16)
    assert init_basis_state(make_layout(2, 2, 4), (1, 0, 3)).amplitudes.size == 16
    with pytest.raises(CapacityError, match="dense view needs 32 amplitudes"):
        init_basis_state(make_layout(2, 4, 4), (1, 0, 3)).amplitudes


def test_a_full_8_bit_search_over_5_values_runs_on_its_support():
    # 2^56 * 10 amplitudes, within int64 flat indices; the run stores at most
    # ten and agrees with the compiled general mode
    a, b = (3, 200, 77, 129, 250), 130
    full, general = SearchProblem(8, a, b, Mode.FULL), SearchProblem(8, a, b, Mode.GENERAL)
    assert full.layout.total_dimension == 10 << 56
    index_distribution(run(full), full)  # first call, filling the memos, outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dist = index_distribution(run(full), full)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    expected = index_distribution(run(general), general)
    assert np.max(np.abs(np.subtract(dist.probabilities, expected.probabilities))) <= 1e-10
    assert abs(dist.postselect_probability - expected.postselect_probability) <= 1e-10
    assert peak <= 64 * 1024


def test_a_search_never_reads_the_dense_view(monkeypatch):
    # every search path, the example and a sweep run with the one dense view
    # turned into an error
    def refuse(state):
        raise AssertionError("a search read StateVector.amplitudes")

    monkeypatch.setattr(StateVector, "amplitudes", property(refuse))
    with pytest.raises(AssertionError):
        run(SearchProblem(3, (2, 6), 5, Mode.PAPER)).amplitudes
    for request in (
        SearchRequest(3, 5, (2, 6), Mode.PAPER),
        SearchRequest(3, 5, (2, 6, 5, 0), Mode.GENERAL),
        SearchRequest(2, 2, (1, 3, 0), Mode.FULL),
        SearchRequest(6, 9, tuple(range(0, 64, 4)), Mode.GENERAL, shots=10_000, seed=3),
    ):
        run_search(request)
    assert main(["example"]) == 0
    assert main(["sweep", "--max-bits", "2", "--max-m", "3", "--count", "2"]) == 0


def test_layouts_beyond_int64_flat_indices_raise_capacity_error():
    # 2^(8 * 10) * 8 * 2 amplitudes: past int64 indices, so the problem is refused
    with pytest.raises(CapacityError):
        SearchProblem(8, tuple(range(8)), 3, Mode.FULL)
    with pytest.raises(CapacityError):
        init_basis_state(make_layout(*[2] * 63), (0,) * 63)


def test_a_2_to_the_62_amplitude_layout_runs_on_its_support():
    # strides up to 2^61 stay exact in int64; nothing of the layout's size is allocated
    layout = make_layout(*[2] * 62)
    circuit = Circuit(layout, (0,) * 62, (
        CircuitGate(hadamard(), (), 0),
        CircuitGate(pauli_x(2), ((0, 1),), 61),
        CircuitGate(pauli_x(2), ((0, 1),), 30),
    ))
    state = execute_circuit(circuit)
    flipped = tuple(int(site in (0, 30, 61)) for site in range(62))
    assert sorted(map(tuple, state.digits.T.tolist())) == [(0,) * 62, flipped]
    assert sorted(flat_indices(state).tolist()) == [0, (1 << 61) + (1 << 31) + 1]
    assert np.allclose(state.values, 2 ** -0.5, atol=1e-15)

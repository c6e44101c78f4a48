"""The in-place circuit loop against the value-in/value-out kernel and a
moveaxis + matmul reference, plus its running norm check and its memory."""

from __future__ import annotations

import tracemalloc
from functools import reduce
from types import SimpleNamespace
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import qnearest.state as state_module
from conftest import make_layout, random_unitary
from qnearest import (
    Circuit,
    CircuitGate,
    Gate,
    Mode,
    SearchProblem,
    StateVector,
    apply_controlled,
    execute_circuit,
    init_basis_state,
    run,
)
from qnearest.errors import NormDriftError
from qnearest.state import KERNEL_CHUNK

AMPLITUDE_BYTES = np.dtype(np.complex128).itemsize


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


@st.composite
def random_circuits(draw):
    """Circuits of random unitaries on mixed-radix layouts with dims 2-5.

    Some gates are controlled on every other site, so their block is the
    target's own d amplitudes.
    """
    dims = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gates = []
    for k in range(draw(st.integers(1, 10))):
        target = draw(st.integers(0, len(dims) - 1))
        free = [s for s in range(len(dims)) if s != target]
        if free and not draw(st.booleans()):
            free = draw(st.lists(st.sampled_from(free), unique=True))
        controls = tuple((s, draw(st.integers(0, dims[s] - 1))) for s in free)
        # built with Gate, so its unitarity check still applies
        gate = Gate(dims[target], random_unitary(rng, dims[target]), f"U{k}")
        gates.append(CircuitGate(gate, controls, target))
    digits = tuple(draw(st.integers(0, d - 1)) for d in dims)
    return Circuit(make_layout(*dims), digits, tuple(gates))


def _fold(circuit):
    start = init_basis_state(circuit.layout, circuit.initial_digits)
    return reduce(
        lambda state, cg: apply_controlled(state, cg.controls, cg.target, cg.gate.matrix),
        circuit.gates,
        start,
    ).amplitudes


def _reference(circuit):
    dims = circuit.layout.dims
    start = init_basis_state(circuit.layout, circuit.initial_digits).amplitudes
    return reduce(
        lambda amps, cg: reference_apply(amps, dims, cg.controls, cg.target, cg.gate.matrix),
        circuit.gates,
        start,
    )


@given(random_circuits(), st.sampled_from([2, 3, 16, KERNEL_CHUNK]))
def test_in_place_loop_matches_the_gate_by_gate_fold(circuit, chunk):
    # small chunks split each block into many pieces, as large states do
    with mock.patch.object(state_module, "KERNEL_CHUNK", chunk):
        loop = execute_circuit(circuit).amplitudes
        fold = _fold(circuit)
    assert np.max(np.abs(loop - fold)) <= 1e-12
    assert np.max(np.abs(loop - _reference(circuit))) <= 1e-12


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
    assert np.max(np.abs(loop - _reference(circuit))) <= 1e-12
    before = execute_circuit(Circuit(layout, (0,) * len(dims), spread)).amplitudes
    changed = np.flatnonzero(np.abs(loop - before) > 0)
    assert 0 < len(changed) <= dims[target]


def _raw_gate(matrix, label):
    # a stand-in for Gate that skips its unitarity check
    matrix = np.asarray(matrix, dtype=np.complex128)
    return SimpleNamespace(dimension=matrix.shape[0], matrix=matrix, label=label)


def _drifting_circuit(scale, count):
    # H on site 0, then ``count`` copies of ``scale * I`` on site 1 where
    # site 0 reads 1: each multiplies that half's squared norm by scale^2
    layout = make_layout(2, 3)
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    gates = (CircuitGate(_raw_gate(hadamard, "H"), (), 0),) + tuple(
        CircuitGate(_raw_gate(scale * np.eye(3), f"D{k}"), ((0, 1),), 1) for k in range(count)
    )
    return Circuit(layout, (0, 0), gates)


def test_one_scaled_gate_raises_norm_drift():
    with pytest.raises(NormDriftError):
        execute_circuit(_drifting_circuit(1 + 1e-6, 1))


def test_drift_summed_over_gates_raises_though_each_gate_is_within_tolerance():
    # each gate adds 0.5 * 5e-11 = 2.5e-11 to the squared norm, a quarter of
    # NORM_TOLERANCE: three stay within it, five sum past it
    scale = np.sqrt(1 + 5e-11)
    state = execute_circuit(_drifting_circuit(scale, 3))
    drift = float(np.vdot(state.amplitudes, state.amplitudes).real) - 1.0
    assert drift == pytest.approx(7.5e-11, rel=1e-3)
    with pytest.raises(NormDriftError):
        execute_circuit(_drifting_circuit(scale, 5))


def test_nan_amplitudes_fail_the_norm_check():
    # NaN compares false against any tolerance, so the check must not pass it
    nan_gate = _raw_gate([[np.nan, 0], [0, 1]], "NaN")
    with pytest.raises(NormDriftError):
        execute_circuit(Circuit(make_layout(2), (0,), (CircuitGate(nan_gate, (), 0),)))
    with pytest.raises(NormDriftError):
        StateVector.from_amplitudes(make_layout(2), [np.nan, 0.0])


def test_run_peak_memory_is_one_state_plus_scratch():
    problem = SearchProblem(3, (1, 5, 6), 4, Mode.FULL)
    state_bytes = problem.state_size() * AMPLITUDE_BYTES  # 3 MiB
    run(problem)  # first call outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = run(problem)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert state.amplitudes.nbytes == state_bytes
    # the buffer itself plus a gathered piece and its product, each at most
    # KERNEL_CHUNK amplitudes
    assert peak <= state_bytes + 4 * KERNEL_CHUNK * AMPLITUDE_BYTES
    assert peak <= 2 * state_bytes

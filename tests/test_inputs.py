"""Each input is checked once per search, through one integer helper, and
malformed input to a public entry point raises only InvalidInputError."""

from __future__ import annotations

import numpy as np
import pytest

import qnearest.builder as builder
from conftest import make_layout
from qnearest import (
    Circuit,
    CircuitGate,
    Gate,
    IndexDistribution,
    Mode,
    MultiplexedFlip,
    MultiplexedRotation,
    RegisterLayout,
    Role,
    SearchProblem,
    Site,
    agreement_sweep,
    apply_comparison_stage,
    apply_controlled,
    build_circuit,
    classical_nearest,
    closed_form_generalized,
    closed_form_paper,
    decide,
    execute_circuit,
    fourier,
    index_distribution,
    init_basis_state,
    load_superposition,
    marginal_probabilities,
    pauli_x,
    rotation_schedule,
    run,
    rx,
    sample,
)
from qnearest.cli import SearchRequest, render_pretty, render_search_document, run_search
from qnearest.errors import InvalidInputError


@pytest.mark.parametrize("mode, a", [(Mode.PAPER, (2, 6)), (Mode.GENERAL, (2, 6, 5)),
                                     (Mode.FULL, (2, 6, 5))])
def test_a_search_checks_its_initial_digits_once(monkeypatch, mode, a):
    # a shape's template checks them once, when it is built, so the next
    # search of that shape checks them no more; full mode writes its wire
    # digits from the problem's bits, which construction has checked
    problem = SearchProblem(3, a, 5, mode)
    calls = []
    checked = RegisterLayout._checked
    monkeypatch.setattr(RegisterLayout, "_checked",
                        lambda self, digits: calls.append(digits) or checked(self, digits))
    builder._template.cache_clear()
    run(problem)
    assert len(calls) == 1
    run(SearchProblem(3, a[::-1], 1, mode))
    assert len(calls) == 1


def test_a_problem_checks_n_a_and_b_once(monkeypatch):
    validated, labels = [], []
    validate, integer = builder.validate_instance, builder._integer
    monkeypatch.setattr(builder, "validate_instance",
                        lambda *args: validated.append(args) or validate(*args))
    monkeypatch.setattr(builder, "_integer",
                        lambda value, what: labels.append(what) or integer(value, what))
    problem = SearchProblem(np.int64(3), (2, 6, 5), np.uint8(5))
    assert len(validated) == 1
    assert labels.count("bit width") == 1 and labels.count("b =") == 1
    assert (problem.n, problem.a, problem.b) == (3, (2, 6, 5), 5)


def _qubits():
    return make_layout(2, 2)


# one malformed call per public entry point that takes integers or a step
MALFORMED = {
    "site-dimension": lambda: Site(Role.COPY, 2.5, "a"),
    "site-role": lambda: Site(5, 2, "a"),
    "basis-digit": lambda: init_basis_state(_qubits(), (0.5, 0)),
    "basis-digit-range": lambda: init_basis_state(_qubits(), (2, 1)),
    "marginal-site": lambda: marginal_probabilities(init_basis_state(_qubits(), (0, 0)), (0.0,)),
    "gate-dimension": lambda: Gate(2.0, np.eye(2), "g"),
    "pauli_x": lambda: pauli_x(2.0),
    "fourier": lambda: fourier(3.0),
    "rotation_schedule": lambda: rotation_schedule(2.0),
    "rx-string": lambda: rx("a"),
    "rx-none": lambda: rx(None),
    "circuit-initial-digit": lambda: Circuit(_qubits(), (0.5, 0), ()),
    "circuit-control-not-a-pair": lambda: Circuit(
        _qubits(), (0, 0), (CircuitGate(pauli_x(2), (1,), 0),)),
    "rotation-table-digit": lambda: MultiplexedRotation(1, ((0, 1.5),), [0.1]),
    "rotation-table-past-int64": lambda: Circuit(
        _qubits(), (0, 0), (MultiplexedRotation(1, ((0, 1 << 63),), [0.1]),)),
    "apply-control-not-a-pair": lambda: apply_controlled(
        init_basis_state(_qubits(), (0, 0)), (1,), 0, np.eye(2)),
    "apply-target": lambda: apply_controlled(
        init_basis_state(_qubits(), (0, 0)), (), 1.0, np.eye(2)),
    "basis-digits-not-a-sequence": lambda: init_basis_state(_qubits(), 5),
    "apply-controls-not-a-sequence": lambda: apply_controlled(
        init_basis_state(_qubits(), (0, 0)), 5, 0, pauli_x(2).matrix),
    "problem-array-not-a-sequence": lambda: SearchProblem(3, 5, 2),
    "problem-n": lambda: SearchProblem(3.0, (1, 2), 3),
    "problem-b": lambda: SearchProblem(3, (1, 2), 2.5),
    "problem-mode": lambda: SearchProblem(3, (1, 2), 3, "bogus"),
    "closed-form-paper": lambda: closed_form_paper((1, 2), 3, 3.0),
    "closed-form-general": lambda: closed_form_generalized((1, 2.5), 3, 3),
    "scan": lambda: classical_nearest((1, 2), 1.5),
    "scan-array-not-a-sequence": lambda: classical_nearest(5, 2),
    "distribution-probability": lambda: IndexDistribution(("a",)),
    "distribution-not-a-sequence": lambda: IndexDistribution(5),
    "distribution-postselect-string": lambda: IndexDistribution((0.5, 0.5), "x"),
    "distribution-postselect-none": lambda: IndexDistribution((1.0,), None),
    "sample-shots": lambda: sample(IndexDistribution((0.5, 0.5)), 10.0),
    "sample-seed": lambda: sample(IndexDistribution((0.5, 0.5)), 10, seed=1.5),
    "sweep-seed": lambda: agreement_sweep(1, 1, 1, seed=1.5),
    "sweep-count": lambda: agreement_sweep(2, 2, 1.5),
    "sweep-bound": lambda: agreement_sweep(2.0, 2, 1),
    "run-search": lambda: run_search(SearchRequest(n=3, b=5, a=(2, 6), shots=10, seed=1.5)),
    "gate-matrix-string": lambda: Gate(2, "ab", "x"),
    "gate-matrix-ragged": lambda: Gate(2, [[1, 0], [0]], "x"),
    "apply-matrix-string": lambda: apply_controlled(
        init_basis_state(_qubits(), (0, 0)), (), 0, "ab"),
    "flip-table-ragged": lambda: MultiplexedFlip(0, [[1], [1, 0]]),
    "flip-table-wires-ragged": lambda: MultiplexedFlip(0, [[0, 1]], [[1], [1, 0]]),
    "rotation-table-wire-digit": lambda: MultiplexedRotation(1, ((0, 1),), [0.1], ((0, 1.5),)),
    "rotation-table-wire-not-a-pair": lambda: MultiplexedRotation(1, ((0, 1),), [0.1], (5,)),
    "layout-sites-not-sites": lambda: RegisterLayout((1, 2)),
    "layout-sites-not-a-sequence": lambda: RegisterLayout(5),
    "circuit-steps-not-a-sequence": lambda: Circuit(_qubits(), (0, 0), 5),
    "circuit-step-unknown": lambda: Circuit(_qubits(), (0, 0), (5,)),
    "distribution-probability-numeric-string": lambda: IndexDistribution(("0.5", "0.5")),
    "distribution-postselect-numeric-string": lambda: IndexDistribution((0.5, 0.5), "1"),
    "distribution-probability-past-float": lambda: IndexDistribution((10 ** 400,)),
    "distribution-mode": lambda: IndexDistribution((0.5, 0.5), 1.0, "bogus"),
    "circuit-layout-not-a-layout": lambda: Circuit(5, (0,), ()),
    "basis-layout-not-a-layout": lambda: init_basis_state(5, (0,)),
    "marginal-state-not-a-state": lambda: marginal_probabilities(5, (0,)),
    "distribution-state-not-a-state": lambda: index_distribution(5, SearchProblem(3, (2, 6), 5)),
    "distribution-problem-not-a-problem": lambda: index_distribution(
        run(SearchProblem(3, (2, 6), 5)), 5),
    "circuit-gate-not-a-gate": lambda: Circuit(_qubits(), (0, 0), (CircuitGate(5, (), 0),)),
    "request-mode": lambda: SearchRequest(3, 5, (2, 6), "bogus"),
    "request-mode-not-a-string": lambda: SearchRequest(3, 5, (2, 6), 5),
    "rotation-table-angle-numeric-string": lambda: MultiplexedRotation(3, ((0, 1),), ["0.1"]),
    "gate-matrix-numeric-string": lambda: Gate(2, [["1", "0"], ["0", "1"]], "g"),
    "apply-matrix-numeric-string": lambda: apply_controlled(
        init_basis_state(_qubits(), (0, 0)), (), 0, [["1", "0"], ["0", "1"]]),
    "run-problem-not-a-problem": lambda: run(5),
    "build-circuit-problem-not-a-problem": lambda: build_circuit(5),
    "execute-circuit-not-a-circuit": lambda: execute_circuit(5),
    "load-superposition-problem-not-a-problem": lambda: load_superposition(5),
    "comparison-state-not-a-state": lambda: apply_comparison_stage(
        5, SearchProblem(3, (2, 6), 5)),
    "comparison-problem-not-a-problem": lambda: apply_comparison_stage(
        run(SearchProblem(3, (2, 6), 5)), 5),
    "decide-distribution-not-a-distribution": lambda: decide(5),
    "sample-distribution-not-a-distribution": lambda: sample(5, 1),
}


@pytest.mark.parametrize("call", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_raises_invalid_input_error_and_nothing_else(call):
    # any other exception type propagates out of pytest.raises and fails the test
    with pytest.raises(InvalidInputError):
        call()


def test_a_site_stores_its_role_as_a_role():
    layout = RegisterLayout((Site("copy", 2, "a"), Site(Role.INDEX, 3, "i")))
    assert layout.sites[0].role is Role.COPY
    assert layout.sites_of(Role.COPY) == (0,)
    with pytest.raises(InvalidInputError,
                       match="site 'a': role must be one of ref, arr, copy, index, score; got 5"):
        Site(5, 2, "a")


@pytest.mark.parametrize("mode", ["general", "paper", "full"])
def test_a_request_stores_its_mode_as_a_mode_and_renders(mode):
    # a mode given by its value used to run and then fail to render
    request = SearchRequest(3, 5, (2, 6), mode)
    assert request.mode is Mode(mode)
    response = run_search(request)
    assert f"mode = {mode}\n" in render_search_document(response)
    assert f"({mode} mode, 3 bits)" in render_pretty(response)


def test_a_distribution_stores_its_mode_as_a_mode():
    # the benchmark rebuilds a distribution positionally, with the request's mode
    assert IndexDistribution((0.5, 0.5), 1.0, "general").mode is Mode.GENERAL
    assert IndexDistribution((0.5, 0.5), 0.5, Mode.PAPER).mode is Mode.PAPER
    assert IndexDistribution((0.5, 0.5)).mode is None

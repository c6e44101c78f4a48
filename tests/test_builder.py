from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import instances
from dense import flat_indices, flatten
from qnearest import (
    Circuit,
    CircuitGate,
    Mode,
    MultiplexedFlip,
    MultiplexedRotation,
    Role,
    SearchProblem,
    apply_comparison_stage,
    apply_controlled,
    build_circuit,
    build_layout,
    comparison_gates,
    copy_gates,
    execute_circuit,
    index_distribution,
    load_superposition,
    marginal_probabilities,
    net_rotation_angle,
    pauli_x,
    rotation_schedule,
    run,
    rx,
    superposition_gates,
    value_bits,
)
from qnearest.builder import _layout
from qnearest.errors import CapacityError, InvalidInputError
from qnearest.state import MAX_AMPLITUDES, check_gate_sites

# frozen by hand from the closed forms; the simulator must match to 1e-12
PAPER_INSTANCE = dict(n=3, a=(2, 6), b=5)
PAPER_P = (0.3647009749634508, 0.6352990250365492)
GENERAL_INSTANCE = dict(n=3, a=(2, 6, 5, 0), b=5)
GENERAL_P = (
    0.23340843188601007,
    0.3247668224771789,
    0.33761658876141054,
    0.1042081568754005,
)
GENERAL_POSTSELECT = 0.7404849415639109


def paper_problem(**overrides):
    return SearchProblem(mode=Mode.PAPER, **{**PAPER_INSTANCE, **overrides})


def test_paper_layout_shape():
    layout = build_layout(paper_problem())
    assert layout.dims == (2, 2, 2, 2)
    assert layout.total_dimension == 16
    assert [s.role for s in layout.sites] == [Role.COPY] * 3 + [Role.INDEX]


def test_generalized_layout_shape():
    layout = build_layout(SearchProblem(3, (1, 2, 4, 7), 5, Mode.GENERAL))
    assert layout.dims == (2, 2, 2, 4, 2)
    assert layout.total_dimension == 64
    assert layout.sites[-1].role is Role.SCORE


def test_full_layout_shape():
    layout = build_layout(SearchProblem(3, (2, 6), 5, Mode.FULL))
    assert layout.total_dimension == 2 ** 13
    roles = [s.role for s in layout.sites]
    assert roles == (
        [Role.REFERENCE] * 3 + [Role.ARRAY] * 6 + [Role.COPY] * 3 + [Role.INDEX]
    )


def test_single_element_keeps_a_two_level_index():
    problem = SearchProblem(3, (2,), 5, Mode.GENERAL)
    layout = build_layout(problem)
    assert layout.dims == (2, 2, 2, 2, 2)
    assert superposition_gates(problem, layout) == ()


def test_schedule_values():
    assert rotation_schedule(3) == (math.pi / 2, math.pi / 4, math.pi / 8)
    assert rotation_schedule(1) == (math.pi / 2,)
    with pytest.raises(InvalidInputError):
        rotation_schedule(0)


@given(st.integers(1, 12))
def test_schedule_weights_halve_and_sum_below_pi(n):
    weights = rotation_schedule(n)
    for k in range(n - 1):
        assert weights[k + 1] == pytest.approx(weights[k] / 2, rel=1e-15)
    assert sum(weights) == pytest.approx(math.pi * (1 - 2 ** -n), rel=1e-12)


@given(st.integers(1, 10), st.data())
def test_bitwise_angle_sum_equals_net_angle(n, data):
    b = data.draw(st.integers(0, (1 << n) - 1))
    a = data.draw(st.integers(0, (1 << n) - 1))
    weights = rotation_schedule(n)
    bitwise = sum(
        (bb - ab) * w for bb, ab, w in zip(value_bits(b, n), value_bits(a, n), weights)
    )
    assert bitwise == pytest.approx(net_rotation_angle(n, b, a), abs=1e-12)


def test_worked_example_net_angle():
    assert net_rotation_angle(3, 5, 2) == pytest.approx(3 * math.pi / 8, abs=1e-15)
    assert net_rotation_angle(3, 5, 6) == pytest.approx(-math.pi / 8, abs=1e-15)


def test_loaded_state_is_the_golden_pair():
    state = load_superposition(paper_problem())
    expected = np.zeros(16, dtype=complex)
    expected[flatten(state.layout, (0, 1, 0, 0))] = 2 ** -0.5
    expected[flatten(state.layout, (1, 1, 0, 1))] = 2 ** -0.5
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def test_zero_values_need_no_copy_gates():
    problem = paper_problem(a=(0, 0), b=0)
    layout = build_layout(problem)
    assert copy_gates(problem, layout) == ()
    state = load_superposition(problem)
    expected = np.zeros(16, dtype=complex)
    expected[flatten(layout, (0, 0, 0, 0))] = 2 ** -0.5
    expected[flatten(layout, (0, 0, 0, 1))] = 2 ** -0.5
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


@given(instances(max_bits=4, max_m=8))
def test_loading_matches_analytic_superposition(inst):
    n, a, b = inst
    problem = SearchProblem(n, a, b, Mode.GENERAL)
    state = load_superposition(problem)
    layout = state.layout
    expected = np.zeros(layout.total_dimension, dtype=complex)
    for j, v in enumerate(a):
        expected[flatten(layout, value_bits(v, n) + (j, 0))] = len(a) ** -0.5
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def test_full_mode_loading_keeps_wires_fixed():
    problem = SearchProblem(3, (2, 6), 5, Mode.FULL)
    state = load_superposition(problem)
    layout = state.layout
    b_bits, a0_bits, a1_bits = (1, 0, 1), (0, 1, 0), (1, 1, 0)
    branch0 = b_bits + a0_bits + a1_bits + a0_bits + (0,)
    branch1 = b_bits + a0_bits + a1_bits + a1_bits + (1,)
    assert state.amplitudes[flatten(layout, branch0)] == pytest.approx(2 ** -0.5, abs=1e-12)
    assert state.amplitudes[flatten(layout, branch1)] == pytest.approx(2 ** -0.5, abs=1e-12)
    assert np.count_nonzero(state.amplitudes) == 2


def test_index_marginal_is_uniform_after_loading():
    problem = SearchProblem(3, (1, 2, 4, 7), 5, Mode.GENERAL)
    state = load_superposition(problem)
    marg = marginal_probabilities(state, (state.layout.single(Role.INDEX),))
    for j in range(4):
        assert marg[j] == pytest.approx(0.25, abs=1e-12)


@given(instances(max_bits=4, max_m=6))
def test_each_branch_accumulates_its_net_rotation(inst):
    n, a, b = inst
    problem = SearchProblem(n, a, b, Mode.GENERAL)
    final = run(problem)
    layout = final.layout
    block = final.amplitudes.reshape(layout.dims)
    for j, v in enumerate(a):
        sub = block[value_bits(v, n) + (j,)]
        expected = rx(net_rotation_angle(n, b, v)).matrix[:, 0] / math.sqrt(len(a))
        assert np.max(np.abs(sub - expected)) <= 1e-12


def test_paper_instance_branch_rotations():
    final = run(paper_problem())
    block = final.amplitudes.reshape(final.layout.dims)
    b0 = block[(0, 1, 0)]  # element 2 on the copy buffer, index state rotated
    b1 = block[(1, 1, 0)]
    expected0 = rx(3 * math.pi / 8).matrix[:, 0] / math.sqrt(2)
    expected1 = rx(-math.pi / 8).matrix[:, 1] / math.sqrt(2)
    assert np.max(np.abs(b0 - expected0)) <= 1e-12
    assert np.max(np.abs(b1 - expected1)) <= 1e-12


def test_exact_match_branch_is_untouched():
    problem = SearchProblem(3, (2, 6, 5, 0), 5, Mode.GENERAL)
    final = run(problem)
    block = final.amplitudes.reshape(final.layout.dims)
    sub = block[value_bits(5, 3) + (2,)]
    assert sub[0] == pytest.approx(0.5, abs=1e-12)  # still 1/sqrt(m) on score 0
    assert abs(sub[1]) <= 1e-15


@given(instances(max_bits=4, max_m=5))
def test_comparison_gate_order_is_immaterial(inst):
    n, a, b = inst
    problem = SearchProblem(n, a, b, Mode.GENERAL)
    loaded = load_superposition(problem)
    gates = comparison_gates(problem, loaded.layout)
    forward = backward = loaded
    for cg in gates:
        forward = apply_controlled(forward, cg.controls, cg.target, cg.gate.matrix)
    for cg in reversed(gates):
        backward = apply_controlled(backward, cg.controls, cg.target, cg.gate.matrix)
    assert np.max(np.abs(forward.amplitudes - backward.amplitudes)) <= 1e-12


@given(instances(max_bits=4, min_m=2, max_m=2))
def test_bitwise_complement_leaves_distribution_unchanged(inst):
    n, a, b = inst
    mask = (1 << n) - 1
    flipped = tuple(mask - v for v in a)
    for mode in (Mode.PAPER, Mode.GENERAL):
        p1 = SearchProblem(n, a, b, mode)
        p2 = SearchProblem(n, flipped, mask - b, mode)
        d1 = index_distribution(run(p1), p1)
        d2 = index_distribution(run(p2), p2)
        assert np.max(np.abs(np.array(d1.probabilities) - d2.probabilities)) <= 1e-12
        assert abs(d1.postselect_probability - d2.postselect_probability) <= 1e-12


@settings(max_examples=20)
@given(instances(max_bits=3, max_m=4))
def test_full_mode_agrees_with_compiled_modes(inst):
    n, a, b = inst
    full = SearchProblem(n, a, b, Mode.FULL)
    compiled = SearchProblem(n, a, b, Mode.PAPER if len(a) == 2 else Mode.GENERAL)
    dist_full = index_distribution(run(full), full)
    dist_compiled = index_distribution(run(compiled), compiled)
    assert np.max(
        np.abs(np.array(dist_full.probabilities) - dist_compiled.probabilities)
    ) <= 1e-10
    assert abs(
        dist_full.postselect_probability - dist_compiled.postselect_probability
    ) <= 1e-10


@pytest.mark.parametrize("a", [(5,), (2, 6, 4), (0, 7, 3, 5)])
def test_full_mode_matches_generalized_for_other_element_counts(a):
    full = SearchProblem(3, a, 5, Mode.FULL)
    compiled = SearchProblem(3, a, 5, Mode.GENERAL)
    dist_full = index_distribution(run(full), full)
    dist_compiled = index_distribution(run(compiled), compiled)
    assert np.max(
        np.abs(np.array(dist_full.probabilities) - dist_compiled.probabilities)
    ) <= 1e-10
    assert abs(
        dist_full.postselect_probability - dist_compiled.postselect_probability
    ) <= 1e-10


def test_paper_instance_distribution_is_frozen():
    problem = paper_problem()
    dist = index_distribution(run(problem), problem)
    assert np.max(np.abs(np.array(dist.probabilities) - PAPER_P)) <= 1e-12


def test_equal_elements_give_an_even_coin():
    problem = paper_problem(a=(5, 5), b=5)
    dist = index_distribution(run(problem), problem)
    assert dist.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)


def test_duplicates_split_probability_evenly():
    problem = SearchProblem(3, (3, 3, 7), 5, Mode.GENERAL)
    dist = index_distribution(run(problem), problem)
    assert dist.probabilities[0] == pytest.approx(dist.probabilities[1], abs=1e-14)


def test_generalized_four_element_distribution_is_frozen():
    problem = SearchProblem(mode=Mode.GENERAL, **GENERAL_INSTANCE)
    dist = index_distribution(run(problem), problem)
    assert np.max(np.abs(np.array(dist.probabilities) - GENERAL_P)) <= 1e-12
    assert dist.postselect_probability == pytest.approx(GENERAL_POSTSELECT, abs=1e-12)


def test_full_circuit_execution_matches_run():
    problem = SearchProblem(3, (2, 6), 5, Mode.FULL)
    circuit = build_circuit(problem)
    assert np.max(np.abs(execute_circuit(circuit).amplitudes - run(problem).amplitudes)) <= 1e-15
    # the public stage functions compose to the same state as the whole circuit
    staged = apply_comparison_stage(load_superposition(problem), problem)
    assert np.max(np.abs(execute_circuit(circuit).amplitudes - staged.amplitudes)) <= 1e-15


def test_full_circuit_gate_counts():
    problem = SearchProblem(3, (2, 6), 5, Mode.FULL)
    labels = [cg.gate.label for cg in build_circuit(problem).gates]
    assert labels.count("H") == 1
    assert sum(1 for l in labels if l == "X") <= 3 * 2  # one per set element bit
    assert sum(1 for l in labels if l.startswith("RX")) == 3


def test_trivial_instance_compiles_to_superposition_only():
    problem = SearchProblem(3, (0, 0), 0, Mode.FULL)
    circuit = build_circuit(problem)
    assert [cg.gate.label for cg in circuit.gates] == ["H"]


def test_capacity_errors_fire_before_allocation():
    with pytest.raises(CapacityError):
        SearchProblem(8, tuple(range(8)), 1, Mode.FULL)


@pytest.mark.parametrize("mode", [Mode.GENERAL, Mode.PAPER])
def test_a_64_bit_problem_raises_capacity_error_at_construction(monkeypatch, mode):
    # 2^64 copy-register amplitudes are past int64 flat indices; neither the
    # layout nor the bit table is built, and any other error fails the test
    monkeypatch.setattr("qnearest.builder._shared_layout", None)
    with pytest.raises(CapacityError, match="over 2\\^64 amplitudes"):
        SearchProblem(64, (2**63 + 5, 3), 2**64 - 1, mode)


@pytest.mark.parametrize("mode, fits, n", [
    (Mode.GENERAL, True, 60), (Mode.GENERAL, False, 61),
    (Mode.PAPER, True, 61), (Mode.PAPER, False, 62),
])
def test_the_largest_problem_is_the_largest_int64_layout(mode, fits, n):
    # general (n, 2) holds 2^(n + 2) amplitudes and paper (n, 2) 2^(n + 1);
    # int64 flat indices stop at 2^63 - 1
    a, b = ((1 << n) - 5, 12345), (1 << (n - 1)) + 3
    if fits:
        assert SearchProblem(n, a, b, mode).state_size() <= MAX_AMPLITUDES
    else:
        with pytest.raises(CapacityError, match="int64 flat indices stop at"):
            SearchProblem(n, a, b, mode)


def test_a_problem_is_its_instance_and_mode():
    assert [field.name for field in dataclasses.fields(SearchProblem)] == ["n", "a", "b", "mode"]


@pytest.mark.parametrize("mode", list(Mode))
def test_a_search_takes_its_bits_from_the_bit_table_not_value_bits(monkeypatch, mode):
    expected = build_circuit(SearchProblem(3, (2, 6), 5, mode)).dump()
    monkeypatch.setattr("qnearest.builder.value_bits", None)
    assert build_circuit(SearchProblem(3, (2, 6), 5, mode)).dump() == expected


@given(instances(max_bits=8, max_m=8), st.sampled_from(list(Mode)))
def test_state_size_matches_the_layout(instance, mode):
    n, a, b = instance
    if mode is Mode.PAPER:
        a = (a * 2)[:2]
    # construction raises exactly when the layout is past int64 flat indices
    total = _layout(mode, n, len(a)).total_dimension
    if total > MAX_AMPLITUDES:
        with pytest.raises(CapacityError):
            SearchProblem(n, a, b, mode)
    else:
        problem = SearchProblem(n, a, b, mode)
        assert problem.state_size() == build_layout(problem).total_dimension == total


def test_a_search_builds_its_layout_once(monkeypatch):
    # a layout is built once per (mode, n, m) shape: every search of that
    # shape runs on the very same layout object, and a new shape builds one
    import qnearest.builder as builder_module
    from qnearest.cli import SearchRequest, run_search

    layouts = []
    original = builder_module.execute_circuit
    monkeypatch.setattr(builder_module, "execute_circuit",
                        lambda c: layouts.append(c.layout) or original(c))
    memo = builder_module._shared_layout
    memo.cache_clear()
    run_search(SearchRequest(3, 5, (2, 6, 5, 0)))
    run_search(SearchRequest(3, 1, (7, 0, 4, 4)))
    assert memo.cache_info().misses == 1
    run_search(SearchRequest(4, 1, (7, 0, 4, 4)))
    assert memo.cache_info().misses == 2
    assert layouts[0] is layouts[1] is not layouts[2]
    for mode, a in ((Mode.PAPER, (2, 6)), (Mode.GENERAL, (2, 6, 5)), (Mode.FULL, (2, 6))):
        problem = SearchProblem(3, a, 5, mode)
        assert problem.layout is problem.layout == build_layout(problem)
        assert problem.layout is SearchProblem(3, a[::-1], 0, mode).layout
        assert build_layout(problem) is not problem.layout


def test_problem_validation():
    with pytest.raises(InvalidInputError):
        SearchProblem(3, (2, 6), 9)
    with pytest.raises(InvalidInputError):
        SearchProblem(3, (2, 8), 5)
    with pytest.raises(InvalidInputError):
        SearchProblem(3, (), 5)
    with pytest.raises(InvalidInputError):
        SearchProblem(0, (0,), 0)
    with pytest.raises(InvalidInputError):
        SearchProblem(3, (2, 6, 4), 5, Mode.PAPER)
    coerced = SearchProblem(3, [2, 6], 5, "paper")
    assert coerced.mode is Mode.PAPER
    assert coerced.a == (2, 6)
    assert coerced.m == 2


@pytest.mark.parametrize(
    "n,a,b,message",
    [(3, (2.9, 6), 5, "array value 2.9 is not an integer"),
     (3, (2, 6), 5.7, "b = 5.7 is not an integer"),
     (3.0, (2, 6), 5, "bit width 3.0 is not an integer"),
     (3, (2, "6"), 5, "array value '6' is not an integer")],
)
def test_a_problem_rejects_non_integers_instead_of_truncating_them(n, a, b, message):
    with pytest.raises(InvalidInputError, match=message):
        SearchProblem(n, a, b)


def test_a_problem_accepts_numpy_integers():
    problem = SearchProblem(np.int64(3), np.array([2, 6], dtype=np.int32), np.uint8(5))
    assert (problem.n, problem.a, problem.b) == (3, (2, 6), 5)
    assert all(type(v) is int for v in (problem.n, problem.b, *problem.a))


def test_circuit_dump_is_stable():
    problem = SearchProblem(3, (2, 6), 5, Mode.FULL)
    expected = (
        "# sites: ref0:2 ref1:2 ref2:2 arr0.0:2 arr0.1:2 arr0.2:2"
        " arr1.0:2 arr1.1:2 arr1.2:2 copy0:2 copy1:2 copy2:2 index:2\n"
        "# init: 1 0 1 0 1 0 1 1 0 0 0 0 0\n"
        "H | - | index\n"
        "X | index=0 arr0.1=1 | copy1\n"
        "X | index=1 arr1.0=1 | copy0\n"
        "X | index=1 arr1.1=1 | copy1\n"
        "RX(1.57079632679) | ref0=1 copy0=0 | index\n"
        "RX(-0.785398163397) | ref1=0 copy1=1 | index\n"
        "RX(0.392699081699) | ref2=1 copy2=0 | index\n"
    )
    assert build_circuit(problem).dump() == expected


def test_compiled_circuit_dump_has_no_wire_controls():
    dump = build_circuit(paper_problem()).dump()
    assert dump.splitlines()[0] == "# sites: copy0:2 copy1:2 copy2:2 index:2"
    assert "ref" not in dump
    assert "RX(1.57079632679) | copy0=0 | index" in dump


@pytest.mark.parametrize(
    "controls, target",
    [(((0, 1),), 0), (((1, 0), (1, 1)), 0), (((2, 1),), 2)],
    ids=["control-on-own-target", "control-site-twice", "control-on-own-target-last-site"],
)
def test_circuit_rejects_a_site_used_twice_when_built(controls, target):
    # the in-place kernel trusts a circuit's sites; a control on the gate's
    # own target would silently select the wrong axis, so building fails
    layout = build_layout(paper_problem())
    with pytest.raises(InvalidInputError, match="used more than once"):
        Circuit(layout, (0, 0, 0, 0), (CircuitGate(pauli_x(2), controls, target),))


def _flip_table(control, rows, ones, value=1):
    # a table over general (2, (1, 2, 3))'s sites: copy0:2 copy1:2 index:3 score:2
    parity = np.zeros((rows, 4), dtype=np.int64)
    for c, t in ones:
        parity[c, t] = value
    return MultiplexedFlip(control, parity)


def _wired_flip_table(wire: int) -> MultiplexedFlip:
    # flips copy0 and copy1 on index digit 0; copy0's flip reads ``wire``, copy1's the score
    parity = _flip_table(2, 3, [(0, 0), (0, 1)]).parity
    wires = np.full(parity.shape, -1)
    wires[0, :2] = wire, 3
    return MultiplexedFlip(2, parity, wires)


def test_circuit_accepts_a_well_formed_wired_flip_table():
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    flip = _wired_flip_table(3)
    assert [(cg.controls, cg.target) for cg in Circuit(layout, (0,) * 4, (flip,)).gates] == [
        (((2, 0), (3, 1)), 0), (((2, 0), (3, 1)), 1)]
    assert flip.wires[:, :2].tolist() == [[3, 3], [-1, -1], [-1, -1]]


def test_circuit_accepts_a_well_formed_flip_table():
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    circuit = Circuit(layout, (0,) * 4, (_flip_table(2, 3, [(0, 1), (1, 0), (2, 0), (2, 1)]),))
    assert [(cg.controls, cg.target) for cg in circuit.gates] == [
        (((2, 0),), 1), (((2, 1),), 0), (((2, 2),), 0), (((2, 2),), 1)]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _flip_table(4, 3, [(0, 0)]), "unknown control site 4"),
        (lambda: _flip_table(3, 2, [(1, 0), (1, 3)]), "site 3 used more than once"),
        (lambda: _flip_table(3, 2, [(1, 2)]), "target site 2 has dimension 3"),
        (lambda: _flip_table(2, 3, [(1, 0)], value=2), "entries must be 0 or 1"),
        (lambda: MultiplexedFlip(2, np.full((3, 4), 255, dtype=np.uint8)),
         "entries must be 0 or 1"),
        (lambda: MultiplexedFlip(2, np.full((3, 4), 2**64 - 1, dtype=np.uint64)),
         "entries must be 0 or 1"),
        (lambda: _flip_table(2, 2, [(1, 0)]), r"shape \(2, 4\), expected \(3, 4\)"),
        (lambda: MultiplexedFlip(2, np.zeros((3, 3), dtype=np.int64)), r"expected \(3, 4\)"),
        (lambda: _wired_flip_table(1), "wire site 1 is also flipped"),
        (lambda: _wired_flip_table(2), "site 2 used more than once"),
        (lambda: _wired_flip_table(0), "site 0 used more than once"),
        (lambda: _wired_flip_table(-1), "unknown control site -1"),
        (lambda: MultiplexedFlip(2, _flip_table(2, 3, [(0, 0)]).parity, np.full((3, 3), 3)),
         r"wire table must hold sites or -1, of shape \(3, 4\)"),
        (lambda: MultiplexedFlip(2, _flip_table(2, 3, [(0, 0)]).parity, np.full((3, 4), 4)),
         r"wire table must hold sites or -1"),
        (lambda: MultiplexedFlip(2, _wired_flip_table(3).parity,
                                 _wired_flip_table(3).wires * 1.0),
         r"wire table must hold sites or -1"),
    ],
    ids=["control-out-of-range", "target-on-control", "non-qubit-target", "entry-not-0-or-1",
         "entry-255-uint8", "entry-max-uint64",
         "wrong-row-count", "wrong-column-count", "wire-on-a-flipped-site", "wire-on-the-control",
         "wire-on-the-target", "wire-missing", "wire-table-shape", "wire-past-the-sites",
         "wire-table-floats"],
)
def test_circuit_rejects_a_malformed_flip_table(build, message):
    # the kernel trusts a table as it trusts a gate's sites, so building
    # fails: the table's construction for a bad entry, else the circuit's
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    with pytest.raises(InvalidInputError, match=f"multiplexed flip: .*{message}"):
        Circuit(layout, (0,) * 4, (build(),))


def test_a_flip_table_is_a_read_only_copy():
    parity = np.zeros((3, 4), dtype=np.int64)
    flip = MultiplexedFlip(2, parity)
    parity[0, 0] = 1
    assert not flip.parity.any()
    assert not flip.parity.flags.writeable


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint64, np.int8, np.float64])
def test_a_zero_one_flip_table_of_any_numeric_dtype_is_accepted(dtype):
    # a bool or unsigned table is checked by its max, any other entry by entry
    ones = np.zeros((3, 4), dtype=np.int64)
    ones[1, 0] = ones[2, 1] = 1
    flip = MultiplexedFlip(2, ones.astype(dtype))
    assert flip.parity.dtype == np.uint8 and np.array_equal(flip.parity, ones)
    assert MultiplexedFlip(2, np.zeros((0, 4), dtype=dtype)).parity.shape == (0, 4)


def _walk_message(table, dims) -> str | None:
    """What checking ``table`` gate by gate says: None if every gate of its
    ``expanded()`` passes ``check_gate_sites`` on a qubit target and, in a
    flip table, reads no flipped site as its wire, else the message of the
    first that does not. A flip table's shape and wire table must pass."""
    flip = type(table) is MultiplexedFlip
    gates = table.expanded()
    flipped = {gate.target for gate in gates}
    try:
        if not flip:
            check_gate_sites(dims, (), table.target)
            if dims[table.target] != 2:
                raise InvalidInputError(f"rotation target site {table.target} has dimension "
                                        f"{dims[table.target]}, not 2")
        for gate in gates:
            check_gate_sites(dims, gate.controls, gate.target)
            if dims[gate.target] != 2:
                raise InvalidInputError(
                    f"target site {gate.target} has dimension {dims[gate.target]}, not 2")
            if flip and gate.controls[1:] and gate.controls[1][0] in flipped:
                raise InvalidInputError(f"wire site {gate.controls[1][0]} is also flipped")
    except InvalidInputError as err:
        return f"multiplexed {'flip' if flip else 'rotation'}: {err}"
    return None


def assert_check_is_the_gate_walk(table, dims):
    expected = _walk_message(table, dims)
    try:
        table.check(dims)
    except InvalidInputError as err:
        assert str(err) == expected
    else:
        assert expected is None


@given(data=st.data())
def test_the_flip_check_is_the_gate_walk(data):
    dims = tuple(data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=5)))
    control = data.draw(st.integers(0, len(dims) - 1))
    size = dims[control] * len(dims)
    parity = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    wires = data.draw(st.none() | st.lists(st.integers(-1, len(dims) - 1), min_size=size,
                                           max_size=size))
    shape = (dims[control], len(dims))
    table = MultiplexedFlip(control, np.reshape(parity, shape),
                            None if wires is None else np.reshape(wires, shape))
    assert_check_is_the_gate_walk(table, dims)


@given(data=st.data())
def test_the_rotation_check_is_the_gate_walk(data):
    dims = tuple(data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=5)))
    target, rows = data.draw(st.integers(0, len(dims) - 1)), data.draw(st.integers(0, 4))
    pairs = st.lists(st.tuples(st.integers(-1, len(dims)), st.integers(-1, 4)),
                     min_size=rows, max_size=rows)
    controls, wires = data.draw(pairs), data.draw(st.none() | pairs)
    assert_check_is_the_gate_walk(MultiplexedRotation(target, controls, [0.1] * rows, wires), dims)


@pytest.mark.parametrize("random_table", range(20))
def test_a_flip_table_derives_its_targets_and_submatrix_once(random_table):
    # the check derives every entry's sites from the arrays in one pass, and
    # rejects a random table (some flip the control, a qutrit or a wire's
    # site) exactly as the gate-by-gate walk does, with its message
    rng = np.random.default_rng(random_table)
    dims = tuple(rng.integers(2, 4, size=int(rng.integers(2, 7))).tolist())
    control = int(rng.integers(len(dims)))
    parity = (rng.random((dims[control], len(dims))) < rng.random()).astype(np.int64)
    wires = rng.integers(-1, len(dims), size=parity.shape) if rng.random() < 0.5 else None
    assert_check_is_the_gate_walk(MultiplexedFlip(control, parity, wires), dims)


def test_a_circuit_gate_with_a_fractional_control_digit_is_rejected():
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    with pytest.raises(InvalidInputError, match="gate 'X': control digit 0.5 is not an integer"):
        Circuit(layout, (0,) * 4, (CircuitGate(pauli_x(2), ((0, 0.5),), 1),))


def test_a_circuit_with_a_fractional_initial_digit_is_rejected():
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    with pytest.raises(InvalidInputError, match="digit 0.5 is not an integer"):
        Circuit(layout, (0.5, 1, 0, 0), ())


def test_a_flip_table_with_a_float_control_site_is_rejected():
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    flip = MultiplexedFlip(2.0, np.zeros((3, 4), dtype=np.int64))
    with pytest.raises(InvalidInputError, match="multiplexed flip: control site 2.0 is not an integer"):
        Circuit(layout, (0,) * 4, (flip,))


@pytest.mark.parametrize(
    "controls, message",
    [
        (((0, 1.5),), "control digit 1.5 is not an integer"),
        (((0, 1.0),), "control digit 1.0 is not an integer"),
        (((0.0, 1),), "control site 0.0 is not an integer"),
        (((0, 1 << 63),), f"control digit {1 << 63} out of range for site 0"),
        (((0, -(1 << 63) - 1),), f"control digit {-(1 << 63) - 1} out of range for site 0"),
        (((1 << 64, 0),), f"unknown control site {1 << 64}"),
        (((0, 1, 2),), "malformed rotation table"),
        (5, "malformed rotation table"),
    ],
    ids=["fractional-digit", "float-digit", "float-site", "digit-past-int64",
         "digit-below-int64", "site-past-int64", "row-not-a-pair", "controls-not-rows"],
)
def test_a_rotation_table_with_a_non_int64_control_fails_construction(controls, message):
    # the kernel reads the rows as int64, where 1.5 would become digit 1 while
    # its expanded gate never fires: a non-integer or malformed row fails the
    # table's construction, and a row past int64 fails the circuit's range
    # check, before the kernel's int64 arrays are built; only InvalidInputError
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    with pytest.raises(InvalidInputError, match=message):
        Circuit(layout, (0,) * 4, (MultiplexedRotation(3, controls, [0.1]),))


def test_a_rotation_table_keeps_int64_arrays_of_its_rows():
    table = MultiplexedRotation(3, ((np.int64(0), np.uint8(1)), (2, 2)), [0.5, 0.25])
    assert table.controls.tolist() == [[0, 1], [2, 2]]
    for array, expected in ((table.controls[:, 0], [0, 2]), (table.controls[:, 1], [1, 2])):
        assert array.dtype == np.int64 and array.tolist() == expected
        assert not array.flags.writeable
    rows = np.array([[0, 1], [2, 2]], dtype=np.uint8)
    from_array = MultiplexedRotation(3, rows, [0.5, 0.25])
    rows[0, 0] = 1
    assert from_array.controls.tolist() == [[0, 1], [2, 2]]
    assert from_array.controls.dtype == np.int64 and not from_array.controls.flags.writeable


def test_circuit_accepts_a_well_formed_wired_rotation_table():
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    table = MultiplexedRotation(3, ((0, 1), (1, 0)), [0.5, -0.25], [(2, 2), (np.int64(0), 1)])
    assert table.wires.tolist() == [[2, 2], [0, 1]]
    assert table.wires[:, 0].tolist() == [2, 0] and table.wires[:, 1].tolist() == [2, 1]
    assert Circuit(layout, (0,) * 4, (table,)).gates == (
        CircuitGate(rx(0.5), ((2, 2), (0, 1)), 3),
        CircuitGate(rx(-0.25), ((0, 1), (1, 0)), 3),
    )


def test_circuit_accepts_a_well_formed_rotation_table():
    # general (2, (1, 2, 3))'s sites: copy0:2 copy1:2 index:3 score:2
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    table = MultiplexedRotation(3, ((0, 1), (2, 2), (0, 0)), [0.5, -0.25, 1.0])
    assert Circuit(layout, (0,) * 4, (table,)).gates == (
        CircuitGate(rx(0.5), ((0, 1),), 3),
        CircuitGate(rx(-0.25), ((2, 2),), 3),
        CircuitGate(rx(1.0), ((0, 0),), 3),
    )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MultiplexedRotation(3, ((0, 1), (3, 0)), [0.1, 0.2]),
         "site 3 used more than once"),
        (lambda: MultiplexedRotation(2, ((0, 1),), [0.1]), "target site 2 has dimension 3"),
        (lambda: MultiplexedRotation(3, ((2, 3),), [0.1]),
         "control digit 3 out of range for site 2"),
        (lambda: MultiplexedRotation(3, ((4, 0),), [0.1]), "unknown control site 4"),
        (lambda: MultiplexedRotation(4, ((0, 1),), [0.1]), "unknown target site 4"),
        (lambda: MultiplexedRotation(3, ((0, 1), (1, 1)), [0.1, math.inf]),
         "angles must be finite"),
        (lambda: MultiplexedRotation(3, ((0, 1),), [math.nan]), "angles must be finite"),
        (lambda: MultiplexedRotation(3, ((0, 1), (1, 1)), [0.1]),
         r"shape \(1,\), expected \(2,\)"),
        (lambda: MultiplexedRotation(3, ((0, 1),), [[0.1]]),
         r"shape \(1, 1\), expected \(1,\)"),
        (lambda: MultiplexedRotation(3, ((0, 1), (1, 1)), [0.1, 0.2], ((2, 0),)),
         "one wire per row expected, got 1"),
        (lambda: MultiplexedRotation(3, ((0, 1),), [0.1], ((0, 0),)),
         "site 0 used more than once"),
        (lambda: MultiplexedRotation(3, ((0, 1),), [0.1], ((3, 0),)),
         "site 3 used more than once"),
        (lambda: MultiplexedRotation(3, ((0, 1),), [0.1], ((2, 3),)),
         "control digit 3 out of range for site 2"),
        (lambda: MultiplexedRotation(3, ((0, 1),), [0.1], ((4, 0),)), "unknown control site 4"),
    ],
    ids=["target-among-controls", "non-qubit-target", "digit-out-of-range",
         "unknown-control-site", "unknown-target-site", "infinite-angle", "nan-angle",
         "length-mismatch", "angles-not-one-dimensional", "wire-count-mismatch",
         "wire-on-the-row-control", "wire-on-the-target", "wire-digit-out-of-range",
         "unknown-wire-site"],
)
def test_circuit_rejects_a_malformed_rotation_table(build, message):
    # the kernel trusts a table as it trusts a gate's sites, so building
    # fails: the table's construction for bad values, else the circuit's
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    with pytest.raises(InvalidInputError, match=f"multiplexed rotation: .*{message}"):
        Circuit(layout, (0,) * 4, (build(),))


def test_a_rotation_table_is_a_read_only_copy():
    angles = np.array([0.5, 0.25])
    table = MultiplexedRotation(3, [[0, 1], [1, 0]], angles)
    angles[0] = 0.0
    assert table.angles.tolist() == [0.5, 0.25]
    assert not table.angles.flags.writeable
    assert table.controls.tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("mode", list(Mode))
@given(data=st.data())
def test_staged_and_whole_runs_are_bit_equal(mode, data):
    # the stage functions run the very steps build_circuit emits
    max_bits, max_m = {Mode.PAPER: (10, 2), Mode.GENERAL: (10, 24), Mode.FULL: (2, 3)}[mode]
    min_m = 2 if mode is Mode.PAPER else 1
    n, a, b = data.draw(instances(max_bits=max_bits, min_m=min_m, max_m=max_m))
    problem = SearchProblem(n, a, b, mode)
    staged = apply_comparison_stage(load_superposition(problem), problem)
    whole = run(problem)
    assert np.array_equal(flat_indices(staged), flat_indices(whole))
    assert np.array_equal(staged.values, whole.values)


def test_comparison_stage_rejects_foreign_states():
    state = load_superposition(paper_problem())
    other = SearchProblem(3, (2, 6), 5, Mode.GENERAL)
    with pytest.raises(InvalidInputError):
        apply_comparison_stage(state, other)


def test_concurrent_runs_match_serial_results():
    problems = [
        SearchProblem(3, ((j * 3 + 1) % 8, (j * 5 + 2) % 8, j % 8), (j * 7 + 3) % 8)
        for j in range(8)
    ]
    serial = [index_distribution(run(p), p).probabilities for p in problems]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda p: index_distribution(run(p), p).probabilities, problems))
    assert threaded == serial


@pytest.mark.parametrize("controls", [(1,), ((0, 1, 1),), ((0,),), 5],
                         ids=["bare-site", "triple", "single", "not-iterable"])
def test_a_circuit_gate_whose_control_is_not_a_pair_is_rejected(controls):
    # a bare TypeError used to come from unpacking the control
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    with pytest.raises(InvalidInputError, match="gate 'X': malformed controls"):
        Circuit(layout, (0,) * 4, (CircuitGate(pauli_x(2), controls, 1),))


def test_a_circuit_keeps_its_initial_digits_as_checked_ints():
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    circuit = Circuit(layout, [np.int64(1), np.uint8(0), 2, 0], ())
    assert circuit.initial_digits == (1, 0, 2, 0)
    assert all(type(d) is int for d in circuit.initial_digits)
    assert execute_circuit(circuit).digits[:, 0].tolist() == [1, 0, 2, 0]


def test_a_problem_rejects_an_unknown_mode():
    with pytest.raises(InvalidInputError,
                       match="mode must be one of paper, general, full; got 'bogus'"):
        SearchProblem(3, (1, 2), 3, "bogus")

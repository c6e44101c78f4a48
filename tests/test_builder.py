from __future__ import annotations

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
from qnearest.errors import CapacityError, InvalidInputError

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
    with pytest.raises(CapacityError):
        SearchProblem(3, (2, 6), 5, Mode.GENERAL, amplitude_cap=8)


def test_the_cap_bounds_the_superposition_gate():
    # n = 1, m = 6: the layout holds 2 * 6 * 2 = 24 amplitudes, but the
    # 6-level Fourier gate is a dense 6 x 6 matrix of 36 entries
    a = (0, 1) * 3
    assert SearchProblem(1, a, 0, amplitude_cap=36).state_size() == 24
    with pytest.raises(CapacityError, match="36 matrix entries, cap is 35"):
        SearchProblem(1, a, 0, amplitude_cap=35)


@pytest.mark.parametrize("mode", [Mode.GENERAL, Mode.PAPER])
def test_a_64_bit_circuit_is_built_exactly_and_its_run_hits_the_capacity_error(mode):
    # past int64 the bits of a and of b are taken exactly: H, 3 + 2 copy
    # flips, and a rotation at each of bits 0..62, where 3 differs from b
    problem = SearchProblem(64, (2**63 + 5, 3), 2**64 - 1, mode, amplitude_cap=1 << 200)
    labels = [cg.gate.label for cg in build_circuit(problem).gates]
    assert len(labels) == 69
    assert sum(label.startswith("RX") for label in labels) == 63
    with pytest.raises(CapacityError):  # any other error, OverflowError say, fails the test
        run(problem)


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
    # a cap far above any layout here, so every mode is checked at full size
    problem = SearchProblem(n, a, b, mode, amplitude_cap=1 << 1024)
    assert problem.state_size() == build_layout(problem).total_dimension


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


def test_circuit_accepts_a_well_formed_flip_table():
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    circuit = Circuit(layout, (0,) * 4, (_flip_table(2, 3, [(0, 1), (1, 0), (2, 0), (2, 1)]),))
    assert [(cg.controls, cg.target) for cg in circuit.gates] == [
        (((2, 0),), 1), (((2, 1),), 0), (((2, 2),), 0), (((2, 2),), 1)]


@pytest.mark.parametrize(
    "flip, message",
    [
        (_flip_table(4, 3, [(0, 0)]), "unknown control site 4"),
        (_flip_table(3, 2, [(1, 0), (1, 3)]), "site 3 used more than once"),
        (_flip_table(3, 2, [(1, 2)]), "target site 2 has dimension 3"),
        (_flip_table(2, 3, [(1, 0)], value=2), "entries must be 0 or 1"),
        (_flip_table(2, 2, [(1, 0)]), r"shape \(2, 4\), expected \(3, 4\)"),
        (MultiplexedFlip(2, np.zeros((3, 3), dtype=np.int64)), r"expected \(3, 4\)"),
    ],
    ids=["control-out-of-range", "target-on-control", "non-qubit-target", "entry-not-0-or-1",
         "wrong-row-count", "wrong-column-count"],
)
def test_circuit_rejects_a_malformed_flip_table(flip, message):
    # the kernel trusts a table as it trusts a gate's sites, so building fails
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    with pytest.raises(InvalidInputError, match=f"multiplexed flip: .*{message}"):
        Circuit(layout, (0,) * 4, (flip,))


def test_a_flip_table_is_a_read_only_copy():
    parity = np.zeros((3, 4), dtype=np.int64)
    flip = MultiplexedFlip(2, parity)
    parity[0, 0] = 1
    assert not flip.parity.any()
    assert not flip.parity.flags.writeable


@pytest.mark.parametrize("random_table", range(20))
def test_a_flip_table_derives_its_targets_and_submatrix_once(random_table):
    # read-only, and equal to what parity itself gives
    rng = np.random.default_rng(random_table)
    rows, sites = int(rng.integers(1, 6)), int(rng.integers(1, 7))
    parity = (rng.random((rows, sites)) < rng.random()).astype(np.int64)
    flip = MultiplexedFlip(0, parity)
    targets = np.flatnonzero(parity.any(axis=0))
    assert np.array_equal(flip.targets, targets)
    assert np.array_equal(flip.flips, parity[:, targets] == 1)
    assert not flip.targets.flags.writeable and not flip.flips.flags.writeable


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
    assert table.controls == ((0, 1), (2, 2))
    assert all(type(v) is int for row in table.controls for v in row)
    for array, expected in ((table.sites, [0, 2]), (table.digits, [1, 2])):
        assert array.dtype == np.int64 and array.tolist() == expected
        assert not array.flags.writeable


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
    "table, message",
    [
        (MultiplexedRotation(3, ((0, 1), (3, 0)), [0.1, 0.2]), "site 3 used more than once"),
        (MultiplexedRotation(2, ((0, 1),), [0.1]), "target site 2 has dimension 3"),
        (MultiplexedRotation(3, ((2, 3),), [0.1]), "control digit 3 out of range for site 2"),
        (MultiplexedRotation(3, ((4, 0),), [0.1]), "unknown control site 4"),
        (MultiplexedRotation(4, ((0, 1),), [0.1]), "unknown target site 4"),
        (MultiplexedRotation(3, ((0, 1), (1, 1)), [0.1, math.inf]), "angles must be finite"),
        (MultiplexedRotation(3, ((0, 1),), [math.nan]), "angles must be finite"),
        (MultiplexedRotation(3, ((0, 1), (1, 1)), [0.1]), r"shape \(1,\), expected \(2,\)"),
        (MultiplexedRotation(3, ((0, 1),), [[0.1]]), r"shape \(1, 1\), expected \(1,\)"),
    ],
    ids=["target-among-controls", "non-qubit-target", "digit-out-of-range",
         "unknown-control-site", "unknown-target-site", "infinite-angle", "nan-angle",
         "length-mismatch", "angles-not-one-dimensional"],
)
def test_circuit_rejects_a_malformed_rotation_table(table, message):
    # the kernel trusts a table as it trusts a gate's sites, so building fails
    layout = build_layout(SearchProblem(2, (1, 2, 3), 0))
    with pytest.raises(InvalidInputError, match=f"multiplexed rotation: .*{message}"):
        Circuit(layout, (0,) * 4, (table,))


def test_a_rotation_table_is_a_read_only_copy():
    angles = np.array([0.5, 0.25])
    table = MultiplexedRotation(3, [[0, 1], [1, 0]], angles)
    angles[0] = 0.0
    assert table.angles.tolist() == [0.5, 0.25]
    assert not table.angles.flags.writeable
    assert table.controls == ((0, 1), (1, 0))


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


def test_a_problem_rejects_an_unknown_mode_and_a_non_integer_cap():
    with pytest.raises(InvalidInputError,
                       match="mode must be one of paper, general, full; got 'bogus'"):
        SearchProblem(3, (1, 2), 3, "bogus")
    with pytest.raises(InvalidInputError, match="amplitude cap 1024.0 is not an integer"):
        SearchProblem(3, (1, 2), 3, Mode.GENERAL, 1024.0)
    assert SearchProblem(3, (1, 2), 3, "general", np.int64(1024)).amplitude_cap == 1024

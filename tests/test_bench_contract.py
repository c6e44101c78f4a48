"""The names and values the traced benchmark run reads from ``qnearest`` still exist.

``qbench/spans.py`` wraps functions and dataclass validators by module and
attribute name, and ``qbench/workloads.py`` calls ``SearchProblem.state_size``
and counts ``build_circuit(problem).gates``. The traced pass reads
``state.amplitudes`` of each final state, for its size and its nonzero count.
A change in ``src`` would break the benchmark only at run time, so this pins
those names and values here.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from conftest import instances
from qnearest import (
    Circuit,
    Mode,
    SearchProblem,
    build_circuit,
    comparison_gates,
    copy_gates,
    run,
    superposition_gates,
)

SPANS_PATH = Path(__file__).resolve().parents[1] / "qbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("qbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("name,module,attr", SPANS.FUNCTIONS)
def test_traced_functions_resolve(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name,module,cls", SPANS.VALIDATORS)
def test_traced_validators_resolve(name, module, cls):
    assert "__post_init__" in vars(getattr(importlib.import_module(module), cls))


def test_workload_descriptor_needs_state_size():
    assert callable(SearchProblem.state_size)


@pytest.mark.parametrize(
    "problem",
    [SearchProblem(3, (2, 6), 5, Mode.PAPER), SearchProblem(3, (2, 6, 5, 0), 5),
     SearchProblem(2, (1, 3, 0), 2, Mode.FULL)],
    ids=lambda p: p.mode.value,
)
def test_final_state_amplitudes_are_dense_read_only_and_match_the_support(problem):
    state = run(problem)
    amps = state.amplitudes
    assert isinstance(amps, np.ndarray)
    assert amps.shape == (problem.layout.total_dimension,)
    assert not amps.flags.writeable
    assert np.count_nonzero(amps) == state.indices.size
    assert np.array_equal(amps[state.indices], state.values)


@pytest.mark.parametrize("mode", [Mode.PAPER, Mode.GENERAL])
@given(instance=instances(max_bits=10, min_m=2, max_m=40))
def test_compiled_circuits_list_one_gate_per_set_bit(mode, instance):
    # the copy stage runs as one table, but the gate list (which the
    # workload descriptor counts) and the dump stay gate by gate
    n, a, b = instance
    problem = SearchProblem(n, a[:2] if mode is Mode.PAPER else a, b, mode)
    layout = problem.layout
    circuit = build_circuit(problem)
    compared = comparison_gates(problem, layout)
    assert len(circuit.gates) == 1 + sum(bin(v).count("1") for v in problem.a) + len(compared)
    gates = superposition_gates(problem, layout) + copy_gates(problem, layout) + compared
    assert circuit.gates == gates
    assert circuit.dump() == Circuit(layout, circuit.initial_digits, gates).dump()


# SHA-256 over 500 seeded paper and general requests of each circuit's gate
# count and dump(), written before the comparison stage was compiled into a
# table: the tables must list, count and print as the gates they replaced
DUMP_DIGEST = "c676ed65a92402fd40a5f42e1ad88ddc2ada2a9088e263c5a81dd8e5027b23a0"


def _seeded_compiled_problems(count, seed=21):
    rng = random.Random(seed)
    problems = []
    for i in range(count):
        mode = (Mode.PAPER, Mode.GENERAL)[i % 2]
        n = rng.randint(1, 14 if mode is Mode.PAPER else 12)
        m = 2 if mode is Mode.PAPER else rng.randint(1, 90)
        hi = (1 << n) - 1
        a = tuple(rng.randint(0, hi) for _ in range(m))
        problems.append(SearchProblem(n, a, rng.randint(0, hi), mode))
    return problems


def test_compiled_gate_counts_and_dumps_are_pinned():
    digest = hashlib.sha256()
    for problem in _seeded_compiled_problems(500):
        circuit = build_circuit(problem)
        digest.update(f"{len(circuit.gates)}\n{circuit.dump()}".encode())
    assert digest.hexdigest() == DUMP_DIGEST

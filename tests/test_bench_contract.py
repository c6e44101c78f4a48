"""The names and values the traced benchmark run reads from ``qnearest`` still exist.

``qbench/spans.py`` wraps functions and dataclass validators by module and
attribute name, and ``qbench/workloads.py`` calls ``SearchProblem.state_size``
and counts ``build_circuit(problem).gates``. The traced pass reads
``state.amplitudes`` of each final state, for its size and its nonzero count.
``qbench/checks.py`` checks every search through the program's public
functions, and rebuilds an ``IndexDistribution`` to sample again. A change
in ``src`` would break the benchmark only at run time, so this pins those
names and values here, and runs a few requests of each benchmark workload
through the benchmark's own checks.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from conftest import instances
from dense import flat_indices
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

from qnearest.cli import run_search

ROOT = Path(__file__).resolve().parents[1]


def load_qbench(name):
    """``qbench/<name>.py`` as the module ``qbench_<name>``, registered in
    ``sys.modules`` before it runs, since a dataclass looks its module up."""
    module_name = f"qbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, ROOT / "qbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]


SPANS = load_qbench("spans")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCHMARK_WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


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
    assert np.count_nonzero(amps) == flat_indices(state).size
    assert np.array_equal(amps[flat_indices(state)], state.values)


@pytest.mark.parametrize("mode", [Mode.PAPER, Mode.GENERAL, Mode.FULL])
@given(data=st.data())
def test_compiled_circuits_list_one_gate_per_set_bit(mode, data):
    # compiled modes run each stage as one table, full mode as gates; either
    # way the gate list (which the workload descriptor counts) and the dump
    # are the stages' expansion, gate by gate, as the public gate lists give it
    max_bits, max_m = (3, 4) if mode is Mode.FULL else (10, 40)
    n, a, b = data.draw(instances(max_bits=max_bits, min_m=2, max_m=max_m))
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


# SHA-256 over 400 seeded full-mode requests of each circuit's gate count
# and dump(), written before full mode's gates were built by the same stage
# builders as the compiled tables: the wire-controlled gates must not move
FULL_DUMP_DIGEST = "3282e1eb600ba78c0fbf44da252397daea25792e4de6f2f227cbae88cb8e5ef1"
# the most elements drawn at each bit width, so every layout fits the default cap
FULL_MAX_M = {1: 16, 2: 8, 3: 5, 4: 3}


def _seeded_full_problems(count, seed=23):
    rng = random.Random(seed)
    problems = []
    for _ in range(count):
        n = rng.randint(1, 4)
        m = rng.randint(1, FULL_MAX_M[n])
        hi = (1 << n) - 1
        a = tuple(rng.randint(0, hi) for _ in range(m))
        problems.append(SearchProblem(n, a, rng.randint(0, hi), Mode.FULL))
    return problems


def test_full_gate_counts_and_dumps_are_pinned():
    digest = hashlib.sha256()
    for problem in _seeded_full_problems(400):
        circuit = build_circuit(problem)
        digest.update(f"{len(circuit.gates)}\n{circuit.dump()}".encode())
    assert digest.hexdigest() == FULL_DUMP_DIGEST


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_benchmark_workloads_pass_the_benchmarks_own_checks(name):
    # the benchmark counts a search that raises or fails a check as failed;
    # re-sampling rebuilds IndexDistribution positionally and calls sample
    checks, workloads = load_qbench("checks"), load_qbench("workloads")
    for request in itertools.islice(workloads.requests(name, 1), 4):
        problems, _ = checks.verify(request, run_search(request), rerun_sample=True)
        assert problems == [], f"{request}: {problems}"
    described = workloads.describe(name, 1, count=4)
    assert described["requests_described"] == 4

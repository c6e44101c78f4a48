"""The names the traced benchmark run looks up in ``qnearest`` still exist.

``qbench/spans.py`` wraps functions and dataclass validators by module and
attribute name, and ``qbench/workloads.py`` calls ``SearchProblem.state_size``.
A rename in ``src`` would break the benchmark only at run time, so this pins
those names here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from qnearest import SearchProblem

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

"""Self-time arithmetic on a hand-built span tree, and the wrappers."""

import qnearest.builder
import qnearest.cli
import qnearest.state
import spans
from qnearest.builder import Mode
from qnearest.cli import SearchRequest


def span(sid, parent, name, start, end, search=0, phase="search", info=None):
    return (sid, parent, search, phase, name, start, end, info)


TREE = [
    span(0, None, "cli.run_search", 0, 100),
    span(1, 0, "builder.run", 10, 40),
    span(2, 1, "state.apply.X", 15, 25, info=(8, 4)),
    span(3, 0, "measure.index_distribution", 50, 70),
    span(4, 0, "oracle.scan", 60, 80),  # overlaps span 3: covered once
]


def test_self_time_subtracts_the_union_of_children():
    assert spans.self_times(TREE) == {0: 40, 1: 20, 2: 10, 3: 20, 4: 20}


def test_self_times_of_a_search_sum_to_its_root_duration():
    assert sum(spans.self_times(TREE[:4]).values()) == 100


def test_spans_longer_than_the_wall_time_are_reported():
    selfs = spans.self_times(TREE[:4])
    assert spans.spans_over_wall(TREE[:4], selfs, {0: 100}) == []
    assert spans.spans_over_wall(TREE[:4], selfs, {0: 99}) == [0]


def test_layer_shares_from_self_time():
    metrics = spans.layer_metrics(TREE[:4], spans.self_times(TREE[:4]), searches=1, wall_ns=200)
    assert metrics["share.cli"] == 50 / 200
    assert metrics["share.builder"] == 20 / 200
    assert metrics["share.state"] == 10 / 200
    assert metrics["share.measure"] == 20 / 200
    assert metrics["state.apply.X.calls"] == 1
    assert metrics["state.amp_gates"] == 8
    assert metrics["state.bytes_computed"] == 32 * 4


def test_tracer_sees_internal_calls_and_restores_originals():
    original = qnearest.builder.apply_controlled
    tracer = spans.Tracer()
    with tracer.installed():
        assert qnearest.builder.apply_controlled is not original
        qnearest.cli.run_search(SearchRequest(3, 5, (2, 6, 5), Mode.GENERAL))
    assert qnearest.builder.apply_controlled is original
    assert qnearest.state.apply_controlled is original
    names = [s[spans.NAME] for s in tracer.spans]
    by_sid = {s[spans.SID]: s for s in tracer.spans}
    assert names.count("cli.run_search") == 1
    # F3 superposition, one X per set bit of 2, 6 and 5, and RX rotations
    assert names.count("state.apply.F") == 1
    assert names.count("state.apply.X") == 5
    assert names.count("builder.build_layout") == 3
    assert "builder.problem" in names and "gates.validate" in names
    for s in tracer.spans:
        if s[spans.NAME].startswith("state.apply."):
            assert by_sid[s[spans.PARENT]][spans.NAME].startswith("builder.")
    root = next(s for s in tracer.spans if s[spans.NAME] == "cli.run_search")
    wall = root[spans.END] - root[spans.START]
    selfs = spans.self_times(tracer.spans)
    assert spans.spans_over_wall(tracer.spans, selfs, {0: wall}) == []


def test_gate_kinds():
    from qnearest.gates import fourier, hadamard, pauli_x, rx

    assert spans.gate_kind(hadamard().matrix) == "H"
    assert spans.gate_kind(fourier(5).matrix) == "F"
    assert spans.gate_kind(pauli_x(2).matrix) == "X"
    assert spans.gate_kind(rx(-0.3).matrix) == "RX"
    assert spans.gate_kind(rx(3.0).matrix) == "RX"

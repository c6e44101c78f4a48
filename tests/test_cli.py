from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import qnearest
from qnearest.cli import main, parse_request_document
from qnearest.errors import InvalidInputError, NormDriftError

from test_builder import GENERAL_P, PAPER_P


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_floats(value):
    return [float(v) for v in value.split(",")]


def test_search_reports_the_nearest_element(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--bits", "3", "--target", "5", "--array", "2,6",
        "--mode", "paper",
    )
    assert code == 0
    doc = parse_request_document(out)
    assert doc["argmax"] == "1"
    assert doc["is_tie"] == "false"
    assert doc["classical_nearest"] == "1"
    assert doc["agreement"] == "true"
    assert parse_floats(doc["probabilities"]) == pytest.approx(PAPER_P, abs=1e-10)


@pytest.mark.xfail(reason="ROADMAP item 8: decide's absolute 1e-9 tie rule calls the "
                          "1e-10 gap a tie and returns element 0")
@pytest.mark.parametrize("mode", ["general", "paper"])
def test_a_20_bit_search_reports_the_nearer_element(capsys, mode):
    # element 1 is 3 from b and element 0 is 10; float64 resolves the gap
    code, out, _ = run_cli(
        capsys, "search", "--bits", "20", "--target", "600000", "--array", "599990,600003",
        "--mode", mode,
    )
    assert code == 0
    doc = parse_request_document(out)
    assert (doc["argmax"], doc["is_tie"], doc["agreement"]) == ("1", "false", "true")


def test_search_single_element(capsys):
    code, out, _ = run_cli(capsys, "search", "--bits", "3", "--target", "5", "--array", "5")
    assert code == 0
    doc = parse_request_document(out)
    assert doc["argmax"] == "0"
    assert parse_floats(doc["probabilities"]) == [1.0]
    assert doc["postselect_probability"] == "1.0"


def test_search_counts_follow_the_distribution(capsys):
    shots = 100_000
    code, out, _ = run_cli(
        capsys, "search", "--bits", "3", "--target", "5", "--array", "2,6,5,0",
        "--shots", str(shots), "--seed", "42",
    )
    assert code == 0
    doc = parse_request_document(out)
    counts = {int(k): int(v) for k, v in
              (pair.split(":") for pair in doc["counts"].split(","))}
    kept = sum(counts.values())
    assert kept + int(doc["rejected"]) == shots
    for j, p in enumerate(GENERAL_P):
        bound = 3 * math.sqrt(p * (1 - p) / kept)
        assert abs(counts[j] / kept - p) <= bound


def test_search_output_is_byte_deterministic(capsys):
    argv = ["search", "--bits", "4", "--target", "9", "--array", "1,11,6",
            "--shots", "5000", "--seed", "17"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_search_round_trips_through_files(capsys, tmp_path):
    path = tmp_path / "request.txt"
    argv = ["search", "--bits", "3", "--target", "5", "--array", "2,6",
            "--mode", "paper", "--shots", "1000", "--seed", "5",
            "--output", str(path)]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, "search", "--input", str(path))
    assert code == 0
    assert first == second


@pytest.mark.parametrize("mode, array", [("paper", "2,6"), ("general", "2,6,5,0"),
                                         ("full", "1,3,0")])
@pytest.mark.parametrize("sampling", [[], ["--shots", "1000"], ["--shots", "777", "--seed", "9"]],
                         ids=["exact", "shots", "shots-seed"])
def test_search_replays_its_own_output(capsys, tmp_path, mode, array, sampling):
    path = tmp_path / "result.txt"
    argv = ["search", "--bits", "3", "--target", "5", "--array", array, "--mode", mode,
            *sampling, "--output", str(path)]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    assert path.read_text(encoding="utf-8") == first
    code, replayed, _ = run_cli(capsys, "search", "--input", str(path))
    assert code == 0
    assert replayed == first


def test_flags_override_input_file_fields(capsys, tmp_path):
    path = tmp_path / "request.txt"
    path.write_text("n = 3\nb = 5\na = 2,6\nmode = paper\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "search", "--input", str(path), "--target", "1")
    assert code == 0
    doc = parse_request_document(out)
    assert doc["b"] == "1"
    assert doc["argmax"] == "0"  # 2 is nearer to 1 than 6 is


def test_search_pretty_output(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--bits", "3", "--target", "5", "--array", "2,6",
        "--mode", "paper", "--pretty",
    )
    assert code == 0
    assert "decision: index 1" in out
    assert "agreement: true" in out


def test_elapsed_goes_to_stderr_not_stdout(capsys):
    _, out, err = run_cli(capsys, "search", "--bits", "2", "--target", "1", "--array", "0,3")
    assert "elapsed" not in out
    assert "elapsed = " in err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--bits", "3", "--target", "9", "--array", "2,6"],
        ["search", "--bits", "3", "--target", "5", "--array", "2,8"],
        ["search", "--bits", "3", "--target", "5", "--array", ""],
        ["search", "--bits", "3", "--target", "5", "--array", "2,6", "--mode", "bogus"],
        ["search", "--target", "5", "--array", "2,6"],
        ["search", "--bits", "3", "--target", "5", "--array", "2,6", "--shots", "0"],
        ["sweep", "--count", "0"],
        [],
    ],
)
def test_invalid_inputs_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err


@pytest.mark.parametrize("array, position", [("2,,6", "item 2 of 3"), ("2,6,", "item 3 of 3")])
def test_an_empty_array_item_exits_one_naming_its_position(capsys, tmp_path, array, position):
    # dropping the empty item would search a 2-element array instead
    code, out, err = run_cli(capsys, "search", "--bits", "3", "--target", "5", "--array", array)
    assert (code, out) == (1, "")
    assert err == f"error: array {position} is empty\n"
    path = tmp_path / "request.txt"
    path.write_text(f"n = 3\nb = 5\na = {array}\n")
    assert run_cli(capsys, "search", "--input", str(path)) == (1, "", err)


def test_non_utf8_input_file_exits_one(capsys, tmp_path):
    path = tmp_path / "request.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "search", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read") and err.count("\n") == 1


def test_unwritable_output_path_exits_one_before_printing(capsys, tmp_path):
    target = tmp_path / "missing" / "result.txt"
    code, out, err = run_cli(
        capsys, "search", "--bits", "3", "--target", "5", "--array", "2,6",
        "--output", str(target),
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1


def test_capacity_overflow_exits_three(capsys):
    code, _, err = run_cli(
        capsys, "search", "--bits", "16", "--target", "5", "--array", "2,6,9",
        "--mode", "full",
    )
    assert code == 3
    assert "amplitudes" in err


def test_huge_bit_width_exits_three_without_allocating(capsys):
    started = time.perf_counter()
    code, _, err = run_cli(
        capsys, "search", "--bits", "40000000000", "--target", "1", "--array", "1",
    )
    assert code == 3
    assert "amplitudes" in err
    assert time.perf_counter() - started < 1.0


def test_a_superposition_gate_past_the_cap_exits_three_at_once(capsys):
    # 8,193 one-bit values fill 32,772 amplitudes, but the 8,193-level Fourier
    # gate would be a dense matrix of 8,193^2 > 2^26 entries
    started = time.perf_counter()
    code, out, err = run_cli(
        capsys, "search", "--bits", "1", "--target", "0", "--array", ",".join(["1"] * 8193),
    )
    assert code == 3
    assert out == ""
    assert "67125249 matrix entries" in err
    assert time.perf_counter() - started < 1.0


def test_shots_beyond_int64_exit_one_at_once(capsys):
    started = time.perf_counter()
    code, _, err = run_cli(
        capsys, "search", "--bits", "3", "--target", "5", "--array", "2,6,5,0",
        "--shots", "100000000000000000000000000",
    )
    assert code == 1
    assert "shots" in err
    assert "Traceback" not in err
    assert time.perf_counter() - started < 1.0


def test_billions_of_shots_finish_quickly(capsys):
    started = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "search", "--bits", "3", "--target", "5", "--array", "2,6,5,0",
        "--shots", "3000000000", "--seed", "1",
    )
    assert code == 0
    assert time.perf_counter() - started < 2.0
    doc = parse_request_document(out)
    kept = sum(int(pair.split(":")[1]) for pair in doc["counts"].split(","))
    assert kept + int(doc["rejected"]) == 3_000_000_000


def test_numeric_failures_exit_two(capsys, monkeypatch):
    def explode(problem):
        raise NormDriftError("synthetic drift")

    monkeypatch.setattr("qnearest.cli.run", explode)
    code, _, err = run_cli(capsys, "search", "--bits", "3", "--target", "5", "--array", "2,6")
    assert code == 2
    assert "drift" in err


def test_example_checks_out(capsys):
    code, out, _ = run_cli(capsys, "example")
    assert code == 0
    doc = parse_request_document(out)
    assert doc["status"] == "ok"
    assert doc["argmax"] == "1"
    paper = parse_floats(doc["probabilities_paper"])
    full = parse_floats(doc["probabilities_full"])
    assert paper == pytest.approx(PAPER_P, abs=1e-10)
    assert float(doc["max_mode_deviation"]) <= 1e-10
    assert np.max(np.abs(np.array(paper) - full)) <= 1e-10


def test_example_catches_a_tampered_rotation_direction(capsys, monkeypatch):
    # negative control: force every rotation to the same direction and the
    # built-in check must fail with the numeric-error exit code
    monkeypatch.setattr("qnearest.builder._signed_weight", lambda bit, w: w)
    code, out, err = run_cli(capsys, "example")
    assert code == 2
    assert parse_request_document(out)["status"] == "failed"
    assert "failed" in err


def test_sweep_agreement_and_determinism(capsys):
    argv = ["sweep", "--max-bits", "3", "--max-m", "3", "--count", "20", "--seed", "7"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = first.splitlines()
    assert lines[0].startswith("n,m,")
    assert len(lines) == 1 + 9
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[4] == "1.0"  # agree_general
        assert fields[6] == "1.0"  # ties_attain_min
    code, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_module_entry_point():
    # the child imports the same qnearest as this process, however pytest found it
    src = str(Path(qnearest.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qnearest", "example"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "status = ok" in proc.stdout


# Request documents: arbitrary text, lines of known keys with values that
# are sometimes plausible and sometimes not, and whole requests.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
_VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["paper", "general", "full"]),
    st.lists(st.integers(-1, 9), max_size=5).map(lambda xs: ",".join(map(str, xs))),
    _TEXT,
)
_LINES = st.one_of(
    _TEXT,
    st.tuples(st.sampled_from(["n", "b", "a", "mode", "shots", "seed"]), _VALUES).map(
        lambda kv: f"{kv[0]} = {kv[1]}"),
)
# complete requests, some of them valid, then a few lines that may override them
_REQUESTS = st.tuples(
    st.integers(0, 12), st.integers(-1, 40), st.lists(st.integers(-1, 40), min_size=1, max_size=5),
    st.sampled_from(["paper", "general", "full"]), st.lists(_LINES, max_size=3),
).map(lambda r: "\n".join([f"n = {r[0]}", f"b = {r[1]}", "a = " + ",".join(map(str, r[2])),
                            f"mode = {r[3]}", *r[4]]))
_DOCUMENTS = st.one_of(_TEXT, st.lists(_LINES, max_size=8).map("\n".join), _REQUESTS)


@given(_DOCUMENTS)
def test_parse_request_document_returns_fields_or_rejects(text):
    try:
        fields = parse_request_document(text)
    except InvalidInputError:
        return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in fields.items())


@pytest.fixture(scope="module")
def request_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "request.txt"


@given(text=_DOCUMENTS)
def test_any_input_file_ends_in_a_documented_exit_code(request_file, text):
    request_file.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["search", "--input", str(request_file)])
    assert code in (0, 1, 2, 3)
    assert (code == 0) == (not err.getvalue().startswith("error:"))
    assert "Traceback" not in err.getvalue()


_FLAGS = {"n": "--bits", "b": "--target", "a": "--array", "shots": "--shots", "seed": "--seed"}


@pytest.mark.parametrize("key", ["n", "b", "shots", "seed"])
@pytest.mark.parametrize("value", ["x", "2.5", ""])
def test_a_bad_integer_gets_one_message_from_a_flag_or_a_file(capsys, tmp_path, key, value):
    # the integer flags used to be parsed by argparse first, with its own message
    fields = {"n": "3", "b": "5", "a": "2,6", key: value}
    path = tmp_path / "request.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    from_file = run_cli(capsys, "search", "--input", str(path))
    from_flags = run_cli(capsys, "search", *(arg for k, v in fields.items() for arg in (_FLAGS[k], v)))
    assert from_flags == from_file == (1, "", f"error: {key} must be an integer, got {value!r}\n")

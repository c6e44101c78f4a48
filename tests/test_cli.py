from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qnearest.cli import main, parse_request_document
from qnearest.errors import NormDriftError

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
    proc = subprocess.run(
        [sys.executable, "-m", "qnearest", "example"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "status = ok" in proc.stdout

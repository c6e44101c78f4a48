"""Smoke tests of the example scripts under ``scripts/``: each runs in a
child process against this checkout's ``src``, exits 0 and prints its
header line first."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("agreement_sweep.py", ("--max-bits", "2", "--max-m", "3", "--count", "5"),
         "n,m,instances,unique_minima,agree_general,agree_paper,ties_attain_min"),
        ("distance_profile.py", (),
         "bit width n = 4; branch weight = single-element keep probability"),
        ("reference_example.py", (), "instance: n=3 bits, reference 5, array [2, 6]"),
        ("code_lines.py", (), "module,lines,code_lines"),
        ("search_cost.py", ("--bits", "3", "--m", "4", "--count", "5", "--repeat", "1"),
         "mode,n,m,stage,best_us_per_search"),
    ],
)
def test_a_script_runs_and_prints_its_header(script, args, header):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header


def test_code_lines_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\ndef f():\n    """Doc."""\n'
        '    return """not a\n    docstring"""  # trailing\n', encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["module,lines,code_lines", "m.py,8,3", "total,8,3"]

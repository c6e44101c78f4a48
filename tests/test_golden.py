"""Byte-for-byte stdout of a fixed command set, frozen in ``tests/golden``.

The files were written by ``python -m qnearest <argv> > tests/golden/<name>.out``.
Any change to a probability digit, a sampled count or the document layout
shows up here. ``search_shots`` samples more shots than one sampling chunk,
and more than one chunk of them survive post-selection.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from qnearest.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "search_paper": ["search", "--bits", "3", "--target", "5", "--array", "2,6",
                     "--mode", "paper"],
    "search_general": ["search", "--bits", "4", "--target", "9", "--array", "1,11,6,3",
                       "--mode", "general"],
    "search_full": ["search", "--bits", "2", "--target", "1", "--array", "0,3,2",
                    "--mode", "full"],
    "search_shots": ["search", "--bits", "3", "--target", "5", "--array", "2,6,5,0",
                     "--shots", "100000", "--seed", "42"],
    "example": ["example"],
    "sweep": ["sweep", "--max-bits", "3", "--max-m", "3", "--count", "10", "--seed", "7"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_the_golden_file(capsys, name):
    assert main(COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()

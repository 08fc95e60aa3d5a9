"""The demos, end to end: each one's standard output is pinned byte for byte
in tests/data/demo_<name>.txt.  Demo 03 prints D(theta), V(theta) and the
clopen witnesses of Max(Z_12) through the public spectrum functions."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import congruence_lab

REPO = Path(__file__).resolve().parent.parent
SOURCE = Path(congruence_lab.__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_every_demo_is_pinned():
    pinned = sorted(path.name for path in (REPO / "tests" / "data").glob("demo_*.txt"))
    assert pinned == [f"demo_{demo.stem}.txt" for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_matches_pin(demo):
    run = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": str(SOURCE)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (REPO / "tests" / "data" / f"demo_{demo.stem}.txt").read_text()

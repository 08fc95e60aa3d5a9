"""Checks on the library source itself."""

import ast
from pathlib import Path

import congruence_lab

SOURCE = Path(congruence_lab.__file__).resolve().parent


def test_library_has_no_assert_statements():
    """Falsifications raise real exceptions: an assert vanishes under -O."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []

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


def _scopes_naming(tree: ast.Module, name: str):
    """The top-level def or class around every attribute, keyword or
    annotated field called ``name``."""
    for top in tree.body:
        for node in ast.walk(top):
            if (
                (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.keyword) and node.arg == name)
                or (isinstance(node, ast.Name) and node.id == name)
            ):
                yield getattr(top, "name", f"line {node.lineno}")


def test_stored_results_have_one_home():
    """Only congruences.stored reads and writes the per-lattice result store;
    the Con(A) class declares it and commutator_index keeps its own entry,
    because its budget check must run before any lookup."""
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {f"{path.stem}.{scope}" for scope in _scopes_naming(tree, "_caches")}
    assert found == {
        "congruences.CongruenceLattice",
        "congruences.stored",
        "commutator.commutator_index",
    }

"""Checks on the library source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import congruence_lab

SOURCE = Path(congruence_lab.__file__).resolve().parent

# modules whose import costs every process time before its first check:
# dataclasses generates and execs methods per class and imports inspect
STARTUP_MODULES = ("dataclasses", "inspect", "typing")


def test_library_has_no_assert_statements():
    """Falsifications raise real exceptions: an assert vanishes under -O."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_import_loads_no_code_generating_modules():
    """Importing the package and its command line loads none of
    STARTUP_MODULES; -S keeps site, and any .pth file it runs, from loading
    them first."""
    code = (
        "import congruence_lab, congruence_lab.cli, sys; "
        f"print(sorted(set({STARTUP_MODULES!r}) & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


def test_library_modules_import_no_code_generating_modules():
    """No import statement in the library names one of STARTUP_MODULES,
    including imports inside functions, which the subprocess check misses."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] in STARTUP_MODULES
            ]
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


def test_commutator_oracle_names_no_fast_path_helper():
    """The materialized M(alpha, beta) and the term-condition fixpoint on it
    are the oracle for the Delta route, so neither names its table, its
    partition, its closures, the relation masks and principal congruences
    that it reads off Con(A), the seeded query itself, the lower covers it
    seeds from, the meet that bounds it, or the orbits of pairs that
    Con(A) is enumerated by."""
    fast_path = {
        "_translation_plan",
        "_semigroup_generators",
        "_Partition",
        "_pair_algebra",
        "_close_delta",
        "_relation_mask",
        "masks",
        "principals",
        "commutator_index",
        "lower_covers",
        "meet_table",
        "_pair_orbits",
    }
    oracle = {("commutator", "matrix_subalgebra"), ("verify", "_term_condition_fixpoint")}
    found = {}
    for module, function in oracle:
        tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
        (node,) = [
            top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == function
        ]
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.add(sub.name)
        found[function] = sorted(names & fast_path)
    assert found == {"matrix_subalgebra": [], "_term_condition_fixpoint": []}


def test_congruence_check_keeps_every_translation():
    """is_congruence tests compatibility with every translation, not only
    with those by a generating set, so brute_force_congruences stays an
    oracle for the generator route of congruence generation."""
    tree = ast.parse((SOURCE / "congruences.py").read_text(encoding="utf-8"))
    (node,) = [
        top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "is_congruence"
    ]
    names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
    assert "_translation_plan" in names
    assert "_semigroup_generators" not in names


def _per_iteration(node: ast.AST):
    """The parts of node that run once per iteration: the bodies of its for
    loops, and the element, conditions and inner iterables of its
    comprehensions (the first iterable is evaluated once)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.For):
            yield from sub.body
        elif isinstance(sub, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            yield from [sub.key, sub.value] if isinstance(sub, ast.DictComp) else [sub.elt]
            for k, generator in enumerate(sub.generators):
                yield from generator.ifs
                if k:
                    yield generator.iter


def test_loops_call_index_cores_not_con_lattice():
    """The verify suites and the lifting functions look Con(A) up once and
    loop over congruence indices, calling the index cores; no con_lattice
    call runs per element or per pair.  The one exception is the
    interval-vs-quotient count, which enumerates Con(A/theta) of each
    quotient algebra as a route independent of the projection."""
    allowed = {("verify", "_suite_con_enumeration", "quo")}
    found = []
    for module, chosen in (("verify", "_suite_"), ("lifting", "")):
        tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
        for top in tree.body:
            if not (isinstance(top, ast.FunctionDef) and top.name.startswith(chosen)):
                continue
            calls = [
                call
                for part in _per_iteration(top)
                for call in ast.walk(part)
                if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "con_lattice"
            ]
            for call in calls:
                argument = getattr(call.args[0], "id", None) if call.args else None
                if (module, top.name, argument) not in allowed:
                    found.append(f"{module}.{top.name}:{call.lineno}")
    assert found == []

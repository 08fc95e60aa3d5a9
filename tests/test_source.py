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
    """Only lattices.stored reads and writes the per-lattice result store;
    the lattice class declares it, and the commutator memo is one entry of
    it, read and written by commutator_index, _memo and commutator_table."""
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {f"{path.stem}.{scope}" for scope in _scopes_naming(tree, "_caches")}
    assert found == {
        "lattices.FiniteLattice",
        "lattices.stored",
        "commutator.commutator_index",
        "commutator._memo",
        "commutator.commutator_table",
    }


def test_lattices_import_no_library_module_but_errors():
    """``lattices`` imports no library module except ``errors``, so the
    center and lifting cores, which take any finite lattice, never reach
    the commutator or an algebra."""
    tree = ast.parse((SOURCE / "lattices.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if _imports_library(node)}
    assert imported == {"errors"}


def test_reticulation_tables_come_from_the_order_alone():
    """``reticulation_index`` builds L(A) from the radicals' order and names
    neither Con(A)'s join table nor its meet table, so L(A)'s tables stay
    independent of those that ``verify`` compares them with."""
    tree = ast.parse((SOURCE / "reticulation.py").read_text(encoding="utf-8"))
    (core,) = [node for node in tree.body if getattr(node, "name", None) == "reticulation_index"]
    named = {node.attr for node in ast.walk(core) if isinstance(node, ast.Attribute)}
    assert named.isdisjoint({"join_table", "meet_table"})


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


def test_per_theta_layers_build_no_quotient():
    """The spectrum, reticulation and lifting layers read A/theta as the
    interval [theta, nabla] of Con(A): they call neither ``projection`` nor
    a congruence enumeration or closure, build no quotient algebra, and
    call ``con_lattice`` only on the algebra they were given.  Quotient
    algebras and their Con(A/theta) are for the oracles in ``verify``."""
    forbidden = {"projection", "all_congruences", "_close_pairs", "quotient", "_quotient_algebra"}
    found = []
    for module in ("lifting", "spectrum", "reticulation"):
        tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                given = ast.unparse(node.args[0]) if node.args else None
                if name in forbidden or (
                    name == "con_lattice" and given not in ("alg", "self.algebra", "retic.algebra")
                ):
                    found.append(f"{module}:{node.lineno} {name}({given})")
    assert found == []


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
    call runs per element or per pair, and neither does a public spectral
    function (d_set, v_set, spectrum, radical, is_prime), each of which
    runs the theory gate and looks Con(A) up again, nor a reticulation
    function (build_reticulation, star, costar, costar_index,
    ideal_spectra, prime_ideals), each of which reads or rebuilds a table
    that ``reticulation`` stores once.  The spectral topology and the
    radicals are read off the stored tables of ``spectrum``, lambda, the
    costar table and the prime ideals of L(A) off those of
    ``reticulation``.  The one exception is the interval-vs-quotient count,
    which enumerates Con(A/theta) of each quotient algebra as a route
    independent of the projection."""
    per_element = {
        "con_lattice",
        "d_set",
        "v_set",
        "spectrum",
        "radical",
        "is_prime",
        "build_reticulation",
        "star",
        "costar",
        "costar_index",
        "ideal_spectra",
        "prime_ideals",
    }
    allowed = {("verify", "_suite_con_enumeration", "con_lattice", "quo")}
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
                if isinstance(call, ast.Call) and getattr(call.func, "id", "") in per_element
            ]
            for call in calls:
                argument = getattr(call.args[0], "id", None) if call.args else None
                if (module, top.name, call.func.id, argument) not in allowed:
                    found.append(f"{module}.{top.name}:{call.lineno} {call.func.id}")
    assert found == []


def test_every_function_is_used_or_exported():
    """Every module-level function of the library is referenced from library
    code outside its own body, or exported from the package: a function
    that only tests reach restates what another layer computes."""
    exported = set()
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            exported |= {alias.name for alias in node.names}
    defined = []
    referenced = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defined.append((path.stem, top.name))
            for node in ast.walk(top):
                if node is top:
                    continue
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, ast.alias):
                    name = node.name
                if name is not None and not (isinstance(top, ast.FunctionDef) and name == top.name):
                    referenced.add(name)
    unused = [f"{module}.{name}" for module, name in defined if name not in referenced | exported]
    assert unused == []


def _imports_library(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return bool(node.level) or (node.module or "").partition(".")[0] == "congruence_lab"
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "congruence_lab" for alias in node.names)
    return False


def test_functions_import_no_library_module():
    """Every library import is at module level, so no function-level import
    hides a cycle between the layers.  The one exception is
    ``algebra.quotient``, which checks its argument with
    ``congruences.is_congruence`` from the layer above."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.stem}.{function.name}"
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if _imports_library(node)
        ]
    assert found == ["algebra.quotient"]


def test_no_module_assigns_an_attribute_of_an_imported_module():
    """A setting is a value passed or a context variable set, never an
    attribute written into another module, where every thread and every
    later call would read it."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        found += [
            f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
        ]
    assert found == []

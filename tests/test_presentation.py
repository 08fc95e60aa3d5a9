"""Verdicts depend on the algebra, not on its presentation.

Con(A), the commutator and every verdict of ``verify`` are invariant under
relabelling the universe and under renaming and reordering the operations;
adding a term operation changes neither Con(A) nor the clone.  Each input
is compared with two random relabellings, one renaming and reordering of
its operations, and its expansion by the term t(x, y) = f(x, f(y, x)) of
its first binary operation f.  The status (PASS, FAIL or EXPLORATORY) and
the verdict of every check that both sides run must agree.

The check sets may differ only by the closed-form oracles that are gated
on the presentation: the Z_n ring oracles compare the tables and names
with ``ring_zn``, and the distributive meet oracle reads the operation
names of a lattice.
"""

import random
from itertools import product as argument_tuples

import pytest

from congruence_lab import con_lattice, verify
from congruence_lab.algebra import FiniteAlgebra, Operation, load_algebra, product
from congruence_lab.builders import boolean_lattice, ring_zn
from congruence_lab.reticulation import reticulation_index

from test_scan_oracles import CORPUS_FILES, upper_triangular_f2

INPUTS = [load_algebra(path.read_text(encoding="utf-8")) for path in CORPUS_FILES] + [
    boolean_lattice(4),
    ring_zn(30),
    product(ring_zn(2), ring_zn(9)),
    ring_zn(24),
    upper_triangular_f2(),  # FAIL on every presentation
]

PRESENTATION_GATED = {
    "ring-gcd-oracle",
    "center-counts-idempotents",
    "cblp-matches-idempotent-lifting",
    "distributive-meet-oracle",
}


def relabel(alg: FiniteAlgebra, perm: list[int]) -> FiniteAlgebra:
    """alg carried along the bijection x -> perm[x]: every new operation
    takes perm[x1], ..., perm[xk] to perm[f(x1, ..., xk)]."""
    inverse = [0] * alg.size
    for x, y in enumerate(perm):
        inverse[y] = x
    operations = tuple(
        Operation(
            op.name,
            op.arity,
            tuple(
                perm[op.apply(alg.size, [inverse[y] for y in args])]
                for args in argument_tuples(range(alg.size), repeat=op.arity)
            ),
        )
        for op in alg.operations
    )
    return FiniteAlgebra(f"{alg.name}^perm", alg.size, operations)


def rename_and_reorder(alg: FiniteAlgebra) -> FiniteAlgebra:
    """The operations renamed o0, o1, ... and rotated by one place."""
    rotated = alg.operations[1:] + alg.operations[:1]
    operations = tuple(Operation(f"o{k}", op.arity, op.table) for k, op in enumerate(rotated))
    return FiniteAlgebra(f"{alg.name}^renamed", alg.size, operations)


def add_term(alg: FiniteAlgebra) -> FiniteAlgebra | None:
    """alg with t(x, y) = f(x, f(y, x)) added, f its first binary
    operation; None when it has none."""
    f = next((op.table for op in alg.operations if op.arity == 2), None)
    if f is None:
        return None
    n = alg.size
    term = tuple(f[x * n + f[y * n + x]] for x in range(n) for y in range(n))
    return FiniteAlgebra(f"{alg.name}^term", n, alg.operations + (Operation("t", 2, term),))


def presentations(alg: FiniteAlgebra) -> list[FiniteAlgebra]:
    rng = random.Random(alg.name)
    relabelled = []
    for _ in range(2):
        perm = list(range(alg.size))
        rng.shuffle(perm)
        relabelled.append(relabel(alg, perm))
    expanded = add_term(alg)
    return relabelled + [rename_and_reorder(alg)] + ([expanded] if expanded else [])


def status(report) -> str:
    if report.exploratory:
        return "EXPLORATORY"
    return "PASS" if report.ok else "FAIL"


def verdicts(report) -> dict[str, list[bool]]:
    found: dict[str, list[bool]] = {}
    for check in report.checks:
        found.setdefault(check.name, []).append(check.passed)
    return found


def test_relabelling_carries_the_tables():
    """The relabelled Z_3 under x -> -x is Z_3 again: negation is an
    automorphism of its additive group, and not of its multiplication."""
    z3 = ring_zn(3)
    moved = relabel(z3, [0, 2, 1])
    assert moved.operation("add").table == z3.operation("add").table
    assert moved.operation("mul").table != z3.operation("mul").table
    assert moved.apply("mul", 2, 2) == 2  # (-1)(-1) = 1 carried to 2


@pytest.mark.parametrize("alg", INPUTS, ids=lambda alg: alg.name)
def test_verdicts_are_invariant_under_presentation(alg):
    base = verify.verify_algebra(alg)
    base_verdicts = verdicts(base)
    shared_reticulation = not base.exploratory and _reticulation_is_con(alg)
    for other in presentations(alg):
        report = verify.verify_algebra(other)
        assert status(report) == status(base), other.name
        other_verdicts = verdicts(report)
        for name in base_verdicts.keys() & other_verdicts.keys():
            assert other_verdicts[name] == base_verdicts[name], (other.name, name)
        changed = base_verdicts.keys() ^ other_verdicts.keys()
        assert {name.rsplit(".", 1)[-1] for name in changed} <= PRESENTATION_GATED, other.name
        if not base.exploratory:
            assert _reticulation_is_con(other) == shared_reticulation, other.name


def _reticulation_is_con(alg) -> bool:
    lattice = con_lattice(alg)
    return reticulation_index(lattice)[1] is lattice

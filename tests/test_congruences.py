"""Congruence generation, Con(A) enumeration and the lattice structure."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab import (
    Congruence,
    NotACongruence,
    ParentMismatch,
    SizeBudgetExceeded,
    all_congruences,
    brute_force_congruences,
    con_lattice,
    congruence_from_blocks,
    delta,
    interval_above,
    is_congruence,
    join,
    join_irreducibles,
    meet,
    nabla,
    principal_congruence,
    quotient,
)
from congruence_lab.algebra import FiniteAlgebra, Operation
from congruence_lab.builders import (
    boolean_lattice,
    chain_lattice,
    mv_chain,
    pentagon,
    pointed_pair,
    ring_zn,
)
from congruence_lab.congruences import all_partitions

from conftest import theta


def test_principal_congruence_z6(z6):
    assert principal_congruence(z6, 0, 2).blocks == (0, 1, 0, 1, 0, 1)


def test_principal_reflexive_is_delta(z6):
    assert principal_congruence(z6, 3, 3) == delta(z6)


def test_principal_on_three_chain():
    c3 = chain_lattice(3)
    assert principal_congruence(c3, 0, 1).blocks == (0, 0, 2)
    # exhaustive lattice-compatibility oracle
    assert is_congruence(c3, (0, 0, 2))


def test_principal_is_least_brute_force():
    for alg in [ring_zn(6), chain_lattice(4), mv_chain(3), pentagon()]:
        compatible = [Congruence(alg, b) for b in brute_force_congruences(alg)]
        for a, b in combinations(range(alg.size), 2):
            cg = principal_congruence(alg, a, b)
            assert cg.related(a, b)
            for other in compatible:
                if other.related(a, b):
                    assert cg.leq(other)


@pytest.mark.parametrize(
    "alg,expected",
    [
        (ring_zn(6), 4),
        (ring_zn(12), 6),
        (quotient(ring_zn(2), nabla(ring_zn(2))), 1),
        (chain_lattice(3), 4),
        (pentagon(), 5),
    ],
)
def test_con_counts(alg, expected):
    assert len(con_lattice(alg)) == expected


def test_con_z6_elements(z6):
    got = {c.blocks for c in con_lattice(z6).congruences}
    assert got == {
        (0, 0, 0, 0, 0, 0),
        (0, 1, 0, 1, 0, 1),
        (0, 1, 2, 0, 1, 2),
        (0, 1, 2, 3, 4, 5),
    }


def test_enumeration_matches_brute_force_small():
    for alg in [
        ring_zn(6),
        ring_zn(7),
        chain_lattice(5),
        boolean_lattice(2),
        mv_chain(4),
        pentagon(),
        pointed_pair(),
    ]:
        assert alg.size <= 7
        brute = set(brute_force_congruences(alg))
        assert {c.blocks for c in con_lattice(alg).congruences} == brute


def test_all_partitions_bell_numbers():
    # Bell numbers count set partitions
    assert sum(1 for _ in all_partitions(1)) == 1
    assert sum(1 for _ in all_partitions(4)) == 15
    assert sum(1 for _ in all_partitions(6)) == 203


def test_all_partitions_are_the_canonical_block_arrays_in_order():
    """Every tuple over range(n) that names each block by its least member,
    once each, in lexicographic order."""
    from itertools import product as iproduct

    for n in range(6):
        canonical = [
            t for t in iproduct(range(n), repeat=n) if all(t[t[x]] == t[x] <= x for x in range(n))
        ]
        assert list(all_partitions(n)) == canonical


def test_all_partitions_leave_no_cyclic_garbage():
    """The enumeration builds no reference cycle, so what it allocates is
    freed when it is exhausted, not at the next collection."""
    import gc

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()  # an automatic collection would hide a cycle
    try:
        assert len(list(all_partitions(5))) == 52
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@given(index=st.integers(min_value=0, max_value=202))
@settings(max_examples=40, deadline=None)
def test_partition_membership_is_compatibility(z6, index):
    partitions = list(all_partitions(6))
    blocks = partitions[index]
    in_con = blocks in {c.blocks for c in con_lattice(z6).congruences}
    assert is_congruence(z6, blocks) == in_con


@st.composite
def random_algebras(draw):
    """A random algebra on at most 5 elements with one to three operations of
    arity 0 to 2; on at most 3 elements an operation may also be ternary.
    Some draws add a permutation or a Latin square, an isotope of the cyclic
    group, so that some translations are bijections."""
    n = draw(st.integers(1, 5))
    arities = draw(st.lists(st.integers(0, 3 if n <= 3 else 2), min_size=1, max_size=3))
    cells = st.integers(0, n - 1)
    operations = tuple(
        Operation(f"f{i}", k, tuple(draw(st.lists(cells, min_size=n**k, max_size=n**k))))
        for i, k in enumerate(arities)
    )
    extra = draw(st.sampled_from(["none", "permutation", "latin"]))
    if extra == "permutation":
        operations += (Operation("p", 1, tuple(draw(st.permutations(range(n))))),)
    elif extra == "latin":
        rows, columns, values = (draw(st.permutations(range(n))) for _ in range(3))
        table = tuple(values[(rows[a] + columns[b]) % n] for a in range(n) for b in range(n))
        operations += (Operation("q", 2, table),)
    return FiniteAlgebra(f"random_{n}", n, operations)


def _compatible(alg, blocks) -> bool:
    """Read from the tables alone: every operation sends each pair of
    coordinatewise-related argument tuples to related values."""
    n = alg.size
    related = [(x, y) for x in range(n) for y in range(n) if blocks[x] == blocks[y]]
    for op in alg.operations:
        for pairs in product(related, repeat=op.arity):
            left = right = 0
            for x, y in pairs:
                left, right = left * n + x, right * n + y
            if blocks[op.table[left]] != blocks[op.table[right]]:
                return False
    return True


@given(random_algebras())
@settings(max_examples=300, deadline=None)
def test_con_matches_independent_compatibility_check(alg):
    """Con(A) is exactly the partitions that pass a compatibility check
    sharing no code with generation, and is_congruence agrees with that
    check on every partition."""
    partitions = list(all_partitions(alg.size))
    compatible = {blocks for blocks in partitions if _compatible(alg, blocks)}
    assert {c.blocks for c in all_congruences(alg).congruences} == compatible
    for blocks in partitions:
        assert is_congruence(alg, blocks) == (blocks in compatible)


def test_random_partition_cross_check_z12(z12):
    # beyond the exhaustive n <= 7 range: random partitions of a 12-set are
    # congruences exactly when the enumeration contains them
    import random

    rng = random.Random(20260811)
    members = {c.blocks for c in con_lattice(z12).congruences}
    for _ in range(300):
        labels = [rng.randrange(4) for _ in range(12)]
        seen: dict[int, int] = {}
        blocks = []
        for x, label in enumerate(labels):
            seen.setdefault(label, x)
            blocks.append(seen[label])
        assert is_congruence(z12, blocks) == (tuple(blocks) in members)


def test_join_meet_examples(z12, z6):
    assert join(theta(z12, 4), theta(z12, 6)) == theta(z12, 2)  # gcd(4, 6)
    assert meet(theta(z6, 2), nabla(z6)) == theta(z6, 2)
    assert meet(theta(z6, 2), theta(z6, 3)) == delta(z6)  # lcm(2, 3) = 6


def test_join_meet_reject_parent_mismatch(z6, z12):
    with pytest.raises(ParentMismatch):
        join(theta(z6, 2), theta(z12, 2))
    with pytest.raises(ParentMismatch):
        meet(nabla(z6), nabla(z12))


def test_lattice_axioms_on_corpus_lattice(z12):
    lattice = con_lattice(z12)
    elems = lattice.congruences
    for a in elems:
        for b in elems:
            assert join(a, b) == join(b, a)
            assert meet(a, b) == meet(b, a)
            assert join(a, meet(a, b)) == a
            assert meet(a, join(a, b)) == a


def test_join_irreducibles_z12(z12):
    # oracle: theta_d is join-irreducible iff exactly one prime p has dp | 12
    got = {c.blocks for c in join_irreducibles(con_lattice(z12))}
    expected = {theta(z12, d).blocks for d in (3, 4, 6)}
    assert got == expected


def test_join_irreducibles_two_chain():
    two = ring_zn(2)
    lattice = con_lattice(two)
    assert [c.blocks for c in join_irreducibles(lattice)] == [(0, 0)]


def test_join_irreducibles_boolean_square():
    prod = quotient(ring_zn(6), delta(ring_zn(6)))
    lattice = con_lattice(prod)
    ji = {c.blocks for c in join_irreducibles(lattice)}
    atoms = {theta(prod, 2).blocks, theta(prod, 3).blocks}
    assert ji == atoms


def test_every_element_join_of_irreducibles():
    for alg in [ring_zn(12), chain_lattice(5), pentagon()]:
        lattice = con_lattice(alg)
        ji = lattice.join_irreducible_indices()
        for i in range(len(lattice)):
            below = [g for g in ji if lattice.leq_index(g, i)]
            assert lattice.join_many(below) == i


def test_interval_above_z12(z12):
    got = [c.blocks for c in interval_above(con_lattice(z12), theta(z12, 6))]
    expected = {theta(z12, d).blocks for d in (1, 2, 3, 6)}  # divisors of 6
    assert set(got) == expected
    assert got == sorted(got)  # canonical order


def test_interval_above_delta_is_everything(z6):
    lattice = con_lattice(z6)
    assert interval_above(lattice, delta(z6)) == list(lattice.congruences)


def test_interval_size_matches_quotient():
    for alg in [ring_zn(12), chain_lattice(4), pentagon()]:
        lattice = con_lattice(alg)
        for c in lattice.congruences:
            assert len(interval_above(lattice, c)) == len(
                con_lattice(quotient(alg, c))
            )


def test_congruence_from_blocks_normalizes(z6):
    c = congruence_from_blocks(z6, [2, 1, 2, 1, 2, 1])
    assert c.blocks == (0, 1, 0, 1, 0, 1)


def test_congruence_from_blocks_rejects_incompatible(z6):
    with pytest.raises(NotACongruence):
        congruence_from_blocks(z6, [0, 0, 2, 3, 4, 5])  # {0,1} not compatible
    with pytest.raises(NotACongruence):
        congruence_from_blocks(z6, [0, 1, 0])  # wrong length


def test_size_budget_cap(z12):
    with pytest.raises(SizeBudgetExceeded):
        all_congruences(z12, cap=3)


def test_serialization_format(z6):
    assert theta(z6, 2).as_list() == [0, 1, 0, 1, 0, 1]
    assert str(theta(z6, 2)) == "0,2,4|1,3,5"


def test_bottom_top_markers(z12):
    lattice = con_lattice(z12)
    assert lattice.congruences[lattice.bottom_index] == delta(z12)
    assert lattice.congruences[lattice.top_index] == nabla(z12)


def test_con_lattice_budget_applies_to_cached_lattice(set_cap):
    """Every call checks |Con(A)| against the cap in force, including a
    lattice enumerated earlier under a larger one; one entry per algebra."""
    from congruence_lab.congruences import CON_CAP

    alg = ring_zn(12)
    lattice = con_lattice(alg)
    assert len(lattice) == 6
    set_cap(CON_CAP, 3)
    with pytest.raises(SizeBudgetExceeded, match=r"\|Con\(Z_12\)\| exceeds the cap of 3"):
        con_lattice(alg)
    with pytest.raises(SizeBudgetExceeded, match="exceeds the cap of 5"):
        con_lattice(alg, cap=5)
    assert con_lattice(alg, cap=6) is lattice
    set_cap(CON_CAP, 6)
    assert con_lattice(alg) is lattice

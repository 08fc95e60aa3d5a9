"""The term-condition commutator, its iterates, residuation and surrogates."""

import importlib
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congruence_lab import (
    SizeBudgetExceeded,
    TheoryHypothesisFailed,
    all_congruences,
    annihilator,
    commutator,
    commutator_stabilization,
    con_lattice,
    delta,
    iterated_commutator,
    matrix_subalgebra,
    nabla,
    parse_algebra,
    quotient,
    residuation,
    surrogate_checks,
)
from congruence_lab.algebra import FiniteAlgebra, Operation
from congruence_lab.builders import (
    boolean_lattice,
    chain_lattice,
    diamond,
    mv_chain,
    pentagon,
    pointed_pair,
    ring_zn,
)
from congruence_lab.commutator import commutator_index, require_theory
from congruence_lab.spectrum import spectrum

from conftest import theta
from test_algebra import algebra_docs


def test_commutator_ring_gcd_examples(z12, z4):
    assert commutator(z12, theta(z12, 2), theta(z12, 2)) == theta(z12, 4)
    assert commutator(z12, theta(z12, 2), theta(z12, 3)) == theta(z12, 6)
    assert commutator(z4, theta(z4, 2), theta(z4, 2)) == delta(z4)


def test_commutator_with_delta_is_delta(z12):
    for c in con_lattice(z12).congruences:
        assert commutator(z12, c, delta(z12)) == delta(z12)


def test_commutator_ring_oracle_all_divisors():
    for n in (6, 8, 9, 10, 12):
        alg = ring_zn(n)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for d in divisors:
            for e in divisors:
                assert commutator(alg, theta(alg, d), theta(alg, e)) == theta(
                    alg, gcd(d * e, n)
                )


def test_commutator_is_meet_on_distributive_corpus():
    for alg in [pentagon(), diamond(), chain_lattice(3)]:
        lattice = con_lattice(alg)
        for i in range(len(lattice)):
            for j in range(len(lattice)):
                assert commutator_index(lattice, i, j) == lattice.meet_index(i, j)


def test_commutator_commutative_and_monotone(z12):
    lattice = con_lattice(z12)
    size = len(lattice)
    for i in range(size):
        for j in range(size):
            assert commutator_index(lattice, i, j) == commutator_index(lattice, j, i)
            for i2 in range(size):
                if lattice.leq_index(i, i2):
                    assert lattice.leq_index(
                        commutator_index(lattice, i, j),
                        commutator_index(lattice, i2, j),
                    )


def test_commutator_below_meet(z12):
    lattice = con_lattice(z12)
    for i in range(len(lattice)):
        for j in range(len(lattice)):
            assert lattice.leq_index(
                commutator_index(lattice, i, j), lattice.meet_index(i, j)
            )


def test_iterated_commutator_conventions(z12):
    t2 = theta(z12, 2)
    assert iterated_commutator(z12, t2, 0) == t2
    assert iterated_commutator(z12, t2, 1) == theta(z12, 4)
    # gcd(16, 12) = 4: stable from the first iterate on
    assert iterated_commutator(z12, t2, 5) == theta(z12, 4)
    value, index = commutator_stabilization(z12, t2)
    assert value == theta(z12, 4) and index == 1


def test_iterated_commutator_z4_nilpotence(z4):
    assert iterated_commutator(z4, theta(z4, 2), 1) == delta(z4)


def test_iterated_commutator_rejects_negative(z12):
    with pytest.raises(ValueError):
        iterated_commutator(z12, theta(z12, 2), -1)


def test_residuation_examples(z12, z6):
    # oracle: largest congruence gamma with [alpha, gamma] <= beta, by scan
    def oracle(alg, alpha, beta):
        lattice = con_lattice(alg)
        best = lattice.bottom_index
        for g in range(len(lattice)):
            if lattice.leq_index(
                commutator_index(lattice, lattice.index(alpha), g),
                lattice.index(beta),
            ):
                best = lattice.join_index(best, g)
        return lattice.congruences[best]

    for alg in (z12, z6):
        lattice = con_lattice(alg)
        for alpha in lattice.congruences:
            for beta in lattice.congruences:
                assert residuation(alg, alpha, beta) == oracle(alg, alpha, beta)

    assert residuation(z12, theta(z12, 2), theta(z12, 4)) == theta(z12, 2)
    assert residuation(z12, theta(z12, 3), nabla(z12)) == nabla(z12)


def test_annihilator_examples(z6):
    assert annihilator(z6, theta(z6, 2)) == theta(z6, 3)
    assert annihilator(z6, theta(z6, 3)) == theta(z6, 2)
    assert annihilator(z6, nabla(z6)) == delta(z6)  # Z_6 is semiprime
    assert annihilator(z6, delta(z6)) == nabla(z6)


def test_residuation_adjunction(z12):
    lattice = con_lattice(z12)
    for a in lattice.congruences:
        for b in lattice.congruences:
            arrow = residuation(z12, b, a)
            for c in lattice.congruences:
                assert c.leq(arrow) == commutator(z12, c, b).leq(a)


def test_surrogate_checks_pass_on_rings_and_lattices(z6):
    assert surrogate_checks(z6).ok
    assert surrogate_checks(pentagon()).ok
    assert surrogate_checks(mv_chain(3)).ok
    one = quotient(ring_zn(2), nabla(ring_zn(2)))
    assert surrogate_checks(one).ok  # trivially: bottom = top


def test_surrogate_checks_flag_pointed_pair():
    report = surrogate_checks(pointed_pair())
    assert not report.top_idempotent
    assert not report.ok
    assert "[nabla, nabla] != nabla" in report.failures()


def test_require_theory_raises():
    with pytest.raises(TheoryHypothesisFailed):
        require_theory(pointed_pair())
    with pytest.raises(TheoryHypothesisFailed):
        spectrum(pointed_pair())


def test_matrix_subalgebra_invariants(z4):
    t2 = theta(z4, 2)
    m = matrix_subalgebra(z4, t2, nabla(z4))
    for a in range(4):
        for b in range(4):
            if t2.related(a, b):
                assert (a, a, b, b) in m.matrices
            assert (a, b, a, b) in m.matrices  # nabla relates everything
    n = z4.size
    for op in z4.operations:
        if op.arity == 2:
            for x in m.matrices:
                for y in m.matrices:
                    image = tuple(op.table[a * n + b] for a, b in zip(x, y))
                    assert image in m.matrices


def test_matrix_subalgebra_cap():
    with pytest.raises(SizeBudgetExceeded):
        matrix_subalgebra(ring_zn(4), nabla(ring_zn(4)), nabla(ring_zn(4)), cap=10)


def test_commutator_cap():
    alg = ring_zn(4)
    with pytest.raises(SizeBudgetExceeded):
        commutator(alg, nabla(alg), nabla(alg), cap=10)


def test_commutator_agrees_with_materialized_fixpoint():
    """Dual-route check at small size: the production fixpoint equals the
    reference fixpoint over the materialized matrix set."""
    from congruence_lab.verify import _term_condition_fixpoint

    for alg in [ring_zn(4), chain_lattice(3), pentagon()]:
        lattice = con_lattice(alg)
        pairs = [
            (lattice.bottom, lattice.top),
            (lattice.top, lattice.top),
        ]
        ji = lattice.join_irreducible_indices()
        if ji:
            pairs.append((lattice.congruences[ji[0]], lattice.congruences[ji[-1]]))
        for alpha, beta in pairs:
            m = matrix_subalgebra(alg, alpha, beta)
            assert _term_condition_fixpoint(alg, m) == commutator(alg, alpha, beta)


def test_pointed_pair_commutator_degenerates():
    alg = pointed_pair()
    assert commutator(alg, nabla(alg), nabla(alg)) == delta(alg)


def majority_algebra(k):
    """The k-chain with the ternary median operation: exercises the generic
    arity >= 3 translation and matrix machinery."""
    table = tuple(
        sorted((x, y, z))[1]
        for x in range(k)
        for y in range(k)
        for z in range(k)
    )
    return FiniteAlgebra(f"median_{k}", k, (Operation("median", 3, table),))


def test_arity_three_median_commutator_is_meet():
    alg = majority_algebra(3)
    lattice = con_lattice(alg)
    assert surrogate_checks(alg).ok
    for i in range(len(lattice)):
        for j in range(len(lattice)):
            assert commutator_index(lattice, i, j) == lattice.meet_index(i, j)


def test_arity_three_matrix_cross_check():
    from congruence_lab.verify import _term_condition_fixpoint

    alg = majority_algebra(2)
    lattice = con_lattice(alg)
    for alpha in lattice.congruences:
        for beta in lattice.congruences:
            m = matrix_subalgebra(alg, alpha, beta)
            assert _term_condition_fixpoint(alg, m) == commutator(alg, alpha, beta)


def test_commutator_budget_checked_before_con_lattice():
    from congruence_lab.commutator import DEFAULT_MATRIX_CAP

    alg = ring_zn(64)
    before = con_lattice.cache_info().currsize
    # 64**2 pairs in nabla, so up to 64**4 matrices: over the cap
    with pytest.raises(SizeBudgetExceeded, match="matrix subalgebra budget"):
        commutator(alg, nabla(alg), nabla(alg), cap=DEFAULT_MATRIX_CAP)
    assert con_lattice.cache_info().currsize == before


@st.composite
def noncommutative_algebras(draw):
    """A random algebra of size 2..4 plus a non-commutative binary operation,
    so the closure translates by both the rows and the columns of a table."""
    doc = draw(algebra_docs().filter(lambda d: d["size"] >= 2))
    n = doc["size"]
    table = draw(
        st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n).filter(
            lambda t: any(t[a * n + b] != t[b * n + a] for a in range(n) for b in range(a))
        )
    )
    doc["operations"].append({"name": "nc", "arity": 2, "table": table})
    return parse_algebra(doc)


def _assert_matches_materialized_fixpoint(alg):
    from congruence_lab.verify import _term_condition_fixpoint

    for alpha in con_lattice(alg).congruences:
        for beta in con_lattice(alg).congruences:
            m = matrix_subalgebra(alg, alpha, beta)
            assert _term_condition_fixpoint(alg, m) == commutator(alg, alpha, beta)


# few random tables need the column translations to get Delta right; this
# one does, so it is always run
@example(FiniteAlgebra("nc_3", 3, (Operation("nc", 2, (2, 2, 1, 0, 0, 1, 2, 2, 1)),)))
@given(noncommutative_algebras())
@settings(max_examples=40, deadline=None)
def test_commutator_matches_oracle_on_random_algebras(alg):
    _assert_matches_materialized_fixpoint(alg)


def test_commutator_matches_oracle_with_ternary_operation():
    """x - y + z on Z_3, with x -> -x: an abelian Mal'cev algebra whose Delta
    closure goes through the arity >= 3 translations."""
    table = tuple((x - y + z) % 3 for x in range(3) for y in range(3) for z in range(3))
    alg = FiniteAlgebra(
        "malcev_3",
        3,
        (Operation("p", 3, table), Operation("neg", 1, (0, 2, 1))),
    )
    _assert_matches_materialized_fixpoint(alg)
    assert commutator(alg, nabla(alg), nabla(alg)) == delta(alg)  # affine


def _delta_partition(lattice, a, b):
    from congruence_lab.commutator import _close_delta, _pair_algebra

    members, _ = _pair_algebra(lattice, b)
    classes = {}
    for member, label in zip(members, _close_delta(lattice, a, b)):
        classes.setdefault(label, set()).add(member)
    return frozenset(frozenset(cls) for cls in classes.values())


def _join_partitions(p, q):
    merged = []
    for cls in list(p) + list(q):
        cls = set(cls)
        for other in [m for m in merged if m & cls]:
            merged.remove(other)
            cls |= other
        merged.append(cls)
    return frozenset(frozenset(cls) for cls in merged)


@pytest.mark.parametrize("alg", [boolean_lattice(4), ring_zn(24)], ids=["B_4", "Z_24"])
def test_delta_of_a_join_is_the_join_of_deltas(alg):
    """Delta_{alpha v alpha', beta} = Delta_{alpha,beta} v Delta_{alpha',beta},
    with every Delta closed directly, and the production classes agree."""
    from congruence_lab.commutator import _delta_classes

    lattice = all_congruences(alg)
    size = len(lattice)
    for b in range(size):
        closed = [_delta_partition(lattice, a, b) for a in range(size)]
        for a in range(size):
            production = frozenset(frozenset(cls) for cls in _delta_classes(lattice, a, b))
            assert production == closed[a]
            for a2 in range(a + 1, size):
                joined = closed[lattice.join_index(a, a2)]
                assert joined == _join_partitions(closed[a], closed[a2])


def test_full_table_closes_only_join_irreducible_deltas(monkeypatch):
    module = importlib.import_module("congruence_lab.commutator")
    calls = []
    close = module._close_delta
    monkeypatch.setattr(
        module, "_close_delta", lambda lattice, a, b: calls.append(a) or close(lattice, a, b)
    )
    lattice = all_congruences(boolean_lattice(4))  # uncached: a cold lattice
    ji = lattice.join_irreducible_indices()
    commutator_index(lattice, lattice.top_index, lattice.top_index)
    assert sorted(calls) == ji  # a cold query: the JIs below nabla, once each
    for i in range(len(lattice)):
        for j in range(len(lattice)):
            commutator_index(lattice, i, j)
    assert set(calls) == set(ji)
    assert len(calls) == len(ji) * len(lattice)

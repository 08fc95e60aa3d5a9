"""The term-condition commutator, its iterates, residuation and surrogates."""

import random
from itertools import product as iproduct
from math import gcd
from pathlib import Path

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
from congruence_lab.algebra import FiniteAlgebra, Operation, load_algebra, product
from congruence_lab.builders import (
    boolean_lattice,
    chain_lattice,
    diamond,
    mv_chain,
    pentagon,
    pointed_pair,
    ring_zn,
)
from congruence_lab.commutator import commutator_index, require_theory, surrogate_index
from congruence_lab.congruences import Congruence, all_partitions, congruence_from_pairs
from congruence_lab.spectrum import spectrum

from conftest import theta
from test_algebra import algebra_docs
from test_congruences import _compatible


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


def test_commutator_cap_applies_to_cached_values():
    """The budget is checked on every call: a value cached by an uncapped
    call is still refused under a cap it exceeds."""
    lattice = con_lattice(ring_zn(4))
    top = lattice.top_index
    assert commutator_index(lattice, top, top) == top
    with pytest.raises(SizeBudgetExceeded):
        commutator_index(lattice, top, top, cap=10)


def test_residuation_cap_applies_to_stored_rows(set_cap):
    """A residuum is refused under a cap that one of the commutators it
    reads exceeds, with the message of the cold refusal, whether an
    uncapped residuation or the whole table has filled the memo first."""
    from congruence_lab.commutator import MATRIX_CAP, commutator_table, residuation_index

    alg = ring_zn(4)
    cold, warm, full = all_congruences(alg), all_congruences(alg), all_congruences(alg)
    top, bottom = warm.top_index, warm.bottom_index
    assert residuation_index(warm, top, bottom) == bottom
    commutator_table(full)
    set_cap(MATRIX_CAP, 10)
    messages = []
    for lattice in (cold, warm, full):
        with pytest.raises(SizeBudgetExceeded) as raised:
            residuation_index(lattice, top, bottom)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] == messages[2]


def test_commutator_values_are_held_once():
    """After the table, residuations read the memo and store nothing more,
    and the table is the same object on every call."""
    from congruence_lab.commutator import commutator_table, residuation_index

    lattice = all_congruences(chain_lattice(7))
    table = commutator_table(lattice)
    stored = {name: len(results) for name, results in lattice._caches.items()}
    size = len(lattice)
    for i in range(size):
        for j in range(size):
            residuation_index(lattice, i, j)
    assert {name: len(results) for name, results in lattice._caches.items()} == stored
    assert commutator_table(lattice) is table


def test_commutator_agrees_with_materialized_fixpoint():
    """Dual-route check at small size: the production fixpoint equals the
    reference fixpoint over the materialized matrix set."""
    from congruence_lab.verify import _term_condition_fixpoint

    for alg in [ring_zn(4), chain_lattice(3), pentagon()]:
        lattice = con_lattice(alg)
        bottom = lattice.congruences[lattice.bottom_index]
        top = lattice.congruences[lattice.top_index]
        pairs = [(bottom, top), (top, top)]
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
# a non-associative table whose Delta closures need translations by more
# than a generating set of the pair algebras
@example(FiniteAlgebra("na_3", 3, (Operation("na", 2, (0, 0, 0, 0, 0, 0, 1, 0, 0)),)))
# [nabla, theta] for theta = 013|2 is 0|13|2 here by the term condition for
# M(theta, nabla): for M(nabla, theta) alone the bottom is closed, and few
# random tables tell the two apart
@example(
    FiniteAlgebra(
        "tc_4", 4, (Operation("f", 2, (1, 1, 3, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0)),)
    )
)
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


def _pool_matrix_subalgebra(alg, alpha, beta):
    """Reference closure for M(alpha, beta): each popped matrix is combined
    with a snapshot of every matrix found so far, popped or not."""
    n = alg.size
    generators = set()
    for a in range(n):
        for a2 in range(n):
            if alpha.related(a, a2):
                generators.add((a, a, a2, a2))
            if beta.related(a, a2):
                generators.add((a, a2, a, a2))
    elements = set(generators)
    worklist = list(generators)

    def push(tup):
        if tup not in elements:
            elements.add(tup)
            worklist.append(tup)

    while worklist:
        current = worklist.pop()
        pool = list(elements)
        for op in alg.operations:
            if op.arity == 0:
                continue
            table = op.table
            if op.arity == 1:
                push(tuple(table[c] for c in current))
            elif op.arity == 2:
                for s in pool:
                    push(tuple(table[a * n + b] for a, b in zip(current, s)))
                    push(tuple(table[a * n + b] for a, b in zip(s, current)))
            else:
                for pos in range(op.arity):
                    for fillers in iproduct(pool, repeat=op.arity - 1):
                        args = fillers[:pos] + (current,) + fillers[pos:]
                        push(tuple(op.apply(n, coords) for coords in zip(*args)))
    return frozenset(elements)


def _assert_matches_pool_closure(alg):
    congruences = con_lattice(alg).congruences
    for alpha in congruences:
        for beta in congruences:
            got = matrix_subalgebra(alg, alpha, beta).matrices
            assert got == _pool_matrix_subalgebra(alg, alpha, beta)


# f(m, m) gives a matrix of M(nabla, nabla) here that no pair of distinct
# matrices gives, so it is always run
@example(FiniteAlgebra("r_3", 3, (Operation("f", 2, (2, 0, 0, 0, 1, 0, 0, 0, 0)),)))
@given(noncommutative_algebras())
@settings(max_examples=20, deadline=None)
def test_matrix_subalgebra_matches_pool_closure_on_random_algebras(alg):
    _assert_matches_pool_closure(alg)


@pytest.mark.parametrize(
    "alg",
    [
        majority_algebra(2),
        majority_algebra(3),
        mv_chain(3),
        FiniteAlgebra("t_2", 2, (Operation("t", 3, (1, 0, 1, 1, 1, 1, 1, 1)),)),
    ],
    ids=["median_2", "median_3", "L_3", "t_2"],
)
def test_matrix_subalgebra_matches_pool_closure(alg):
    """Ternary and unary operations, besides binary.  In t_2, M(nabla, nabla)
    needs argument tuples that repeat the newest matrix."""
    _assert_matches_pool_closure(alg)


CORPUS = [
    load_algebra(path.read_text(encoding="utf-8"))
    for path in sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.json"))
]


def _u_size(alg, alpha, beta):
    """|U(alpha, beta)|: the matrices (x, y, z, w) with x alpha z, y alpha w,
    x beta y and z beta w, counted one by one."""
    return sum(
        alpha.related(x, z) and alpha.related(y, w) and beta.related(x, y) and beta.related(z, w)
        for x, y, z, w in iproduct(range(alg.size), repeat=4)
    )


@pytest.mark.parametrize(
    "alg", [alg for alg in CORPUS if alg.size <= 4], ids=lambda alg: alg.name
)
def test_matrix_subalgebra_matches_pool_closure_on_the_corpus(alg):
    """Every ordered pair of every corpus algebra that verify materializes M
    for: the closures that stop at |U| and those with M smaller than U."""
    _assert_matches_pool_closure(alg)


def test_corpus_matrix_subalgebras_equal_u_on_68_of_70_pairs():
    """M = U on all but two of the 70 ordered pairs of the corpus algebras
    with n <= 4, so the stop at |U| is taken; on the other two the closure
    runs to the end and M is smaller than U."""
    sizes = [
        (len(matrix_subalgebra(alg, alpha, beta)), _u_size(alg, alpha, beta))
        for alg in CORPUS
        if alg.size <= 4
        for alpha in con_lattice(alg).congruences
        for beta in con_lattice(alg).congruences
    ]
    assert len(sizes) == 70
    assert sum(m == u for m, u in sizes) == 68
    assert all(m <= u for m, u in sizes)


def test_matrix_subalgebra_runs_past_u_for_an_incompatible_alpha():
    """alpha = 02|1 is an equivalence but not compatible with f (f(0, 1) = 2
    and f(2, 1) = 1), and beta is the bottom: U(alpha, beta) is the five
    generators, which are not closed, so stopping at |U| would be wrong
    before any product has left U.  The closure runs to the end."""
    alg = FiniteAlgebra("f_3", 3, (Operation("f", 2, (2, 2, 0, 1, 2, 1, 2, 1, 1)),))
    alpha, beta = Congruence(alg, (0, 1, 0)), delta(alg)
    assert _u_size(alg, alpha, beta) == 5
    matrices = matrix_subalgebra(alg, alpha, beta).matrices
    assert matrices == _pool_matrix_subalgebra(alg, alpha, beta)
    assert len(matrices) == 9


def test_matrix_subalgebra_cap_boundary():
    """The cap refuses exactly when |M| > cap, whatever the closure order."""
    alg = ring_zn(4)
    top = nabla(alg)
    matrices = matrix_subalgebra(alg, top, top).matrices
    size = len(matrices)
    assert matrix_subalgebra(alg, top, top, cap=size).matrices == matrices
    with pytest.raises(SizeBudgetExceeded, match=f"exceeds the cap of {size - 1} matrices"):
        matrix_subalgebra(alg, top, top, cap=size - 1)


def _pairs(mask, n):
    """The pairs (x, y) whose bit x * n + y is set in a relation mask."""
    return frozenset(divmod(k, n) for k in range(mask.bit_length()) if mask >> k & 1)


def _delta_partition(lattice, a, b):
    """The classes of Delta_{alpha,beta} with more than one member, closed
    from the diagonal alpha-pairs directly, whether alpha is
    join-irreducible or not.  The congruence of A stored with each class
    must be the one its members generate."""
    from congruence_lab.commutator import _close_delta

    alg = lattice.algebra
    classes = []
    flat = _close_delta(lattice, a, b)
    for mask, generated in zip(flat[::2], flat[1::2]):
        members = _pairs(mask, alg.size)
        assert lattice.congruences[generated] == congruence_from_pairs(alg, members)
        classes.append(members)
    return frozenset(classes)


def _join_partitions(p, q):
    merged = []
    for cls in list(p) + list(q):
        cls = set(cls)
        for other in [m for m in merged if m & cls]:
            merged.remove(other)
            cls |= other
        merged.append(cls)
    return frozenset(frozenset(cls) for cls in merged)


def _with_diagonal(partition, n):
    """The partition with every diagonal pair (x, x) in one class.  Classes
    of diagonal pairs alone are not stored, and delta always holds the
    diagonal, so the fixpoint sees the partitions only up to this."""
    return _join_partitions(partition, [frozenset((x, x) for x in range(n))])


@pytest.mark.parametrize(
    "alg", [boolean_lattice(4), ring_zn(24), chain_lattice(5)], ids=["B_4", "Z_24", "C_5"]
)
def test_delta_of_a_join_is_the_join_of_deltas(alg):
    """Delta_{alpha v alpha', beta} = Delta_{alpha,beta} v Delta_{alpha',beta},
    with every Delta closed directly; in particular the classes of the
    join-irreducible closures below alpha, joined, are those of
    Delta_{alpha,beta}, which the commutator saturates for one by one.  On
    C_5 the diagonal matters: a class of diagonal pairs alone, which is not
    stored, can link two stored classes of a join."""
    lattice = all_congruences(alg)
    size = len(lattice)
    ji = lattice.join_irreducible_indices()
    for b in range(size):
        closed = [_with_diagonal(_delta_partition(lattice, a, b), alg.size) for a in range(size)]
        for a in range(size):
            joined = _with_diagonal(frozenset(), alg.size)
            for g in ji:
                if lattice.leq_index(g, a):
                    joined = _join_partitions(joined, closed[g])
            assert joined == closed[a]
            for a2 in range(a + 1, size):
                joined = closed[lattice.join_index(a, a2)]
                assert joined == _join_partitions(closed[a], closed[a2])


def test_full_table_closes_only_join_irreducible_deltas():
    """A bottom-up table on B_4 closes Delta_{g,g} for each join-irreducible
    g and nothing else: [alpha, beta] = alpha ^ beta, so every other pair
    starts at its bound, the join of the stored values one lower cover down.
    A cold surrogate gate on Z_18 closes nothing on A(nabla) = A x A: every
    theta below nabla reaches [theta, nabla] = theta from closures on the
    smaller A(theta), and [nabla, nabla] starts from the join of the two
    coatoms' values, which is nabla.  On Z_16, whose one coatom makes nabla
    join-irreducible, the gate closes only Delta_{nabla,nabla} there."""
    lattice = all_congruences(boolean_lattice(4))  # uncached: a cold lattice
    ji = lattice.join_irreducible_indices()
    bottom_up = range(len(lattice) - 1, -1, -1)  # a finer congruence sorts later
    for i in bottom_up:
        for j in bottom_up:
            assert commutator_index(lattice, i, j) == lattice.meet_index(i, j)
    store = lattice._caches["congruence_lab.commutator._close_delta"]
    assert set(store) == {(g, g) for g in ji}

    lattice = all_congruences(ring_zn(18))
    top = lattice.top_index
    assert surrogate_index(lattice) == (True, True, True)
    store = lattice._caches["congruence_lab.commutator._close_delta"]
    assert [b for _, b in store if b == top] == []

    lattice = all_congruences(ring_zn(16))
    top = lattice.top_index
    assert top in lattice.join_irreducible_indices()
    assert surrogate_index(lattice) == (True, True, True)
    store = lattice._caches["congruence_lab.commutator._close_delta"]
    assert [(g, b) for g, b in store if b == top] == [(top, top)]


# Associative binary operations: the closures translate by a generating set
# of each semigroup instead of by every element.
_SEMIGROUPS = {
    "add": lambda n, a, b: (a + b) % n,
    "mul": lambda n, a, b: a * b % n,
    "max": lambda n, a, b: max(a, b),
    "min": lambda n, a, b: min(a, b),
    "left-zero": lambda n, a, b: a,
    "right-zero": lambda n, a, b: b,
    "null": lambda n, a, b: 0,
}
# left-zero and right-zero bands and null semigroups have every partition as
# a congruence, so above size 4 only these keep the full tables quick
_FEW_CONGRUENCES = ["add", "max", "min", "mul"]


def _semigroup_algebra(n, kinds):
    return FiniteAlgebra(
        "S",
        n,
        tuple(
            Operation(f"f{k}", 2, tuple(_SEMIGROUPS[kind](n, a, b) for a in range(n) for b in range(n)))
            for k, kind in enumerate(kinds)
        ),
    )


def _relabel(alg, pi):
    """The copy of alg in which element x is called pi[x]."""
    n = alg.size
    operations = []
    for op in alg.operations:
        table = [0] * len(op.table)
        for args in iproduct(range(n), repeat=op.arity):
            index = 0
            for arg in args:
                index = index * n + pi[arg]
            table[index] = pi[op.apply(n, args)]
        operations.append(Operation(op.name, op.arity, tuple(table)))
    return FiniteAlgebra(alg.name, n, tuple(operations))


@st.composite
def associative_algebras(draw):
    """Rings Z_n, chains with max and min, left-zero and right-zero bands and
    null semigroups, with one of these operations on one universe, or two
    up to size 4 (the materialized M grows fastest with them); or the
    direct product of two such algebras; or the quotient of one by a
    congruence.  The result, of size at most 6, is relabelled and sometimes
    gets a random unary operation."""

    def kinds(n, count):
        pool = sorted(_SEMIGROUPS) if n <= 4 else _FEW_CONGRUENCES
        return draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))

    shape = draw(st.sampled_from(["base", "product", "quotient"]))
    if shape == "product":
        m = draw(st.integers(2, 3))
        k = draw(st.integers(2, 6 // m))
        count = draw(st.integers(1, 2 if m * k <= 4 else 1))
        alg = product(
            _semigroup_algebra(m, kinds(m * k, count)), _semigroup_algebra(k, kinds(m * k, count))
        )
    else:
        n = draw(st.integers(1, 6))
        alg = _semigroup_algebra(n, kinds(n, draw(st.integers(1, 2 if n <= 4 else 1))))
        if shape == "quotient":
            alg = quotient(alg, draw(st.sampled_from(all_congruences(alg).congruences)))
    alg = _relabel(alg, draw(st.permutations(range(alg.size))))
    if draw(st.integers(0, 3)) == 0:
        unary = draw(st.lists(st.integers(0, alg.size - 1), min_size=alg.size, max_size=alg.size))
        alg = FiniteAlgebra(alg.name, alg.size, alg.operations + (Operation("u", 1, tuple(unary)),))
    return alg


def _row_classes(m, beta):
    """Classes of the transitive closure of M(alpha, beta), read as a
    relation between the rows of its matrices, on the beta-pairs."""
    n = m.algebra.size
    label = {(x, y): (x, y) for x in range(n) for y in range(n) if beta.related(x, y)}
    for x, y, z, w in m.matrices:
        old, new = label[(z, w)], label[(x, y)]
        if old != new:
            for pair, value in label.items():
                if value == old:
                    label[pair] = new
    classes = {}
    for pair, value in label.items():
        classes.setdefault(value, set()).add(pair)
    return {frozenset(cls) for cls in classes.values()}


@given(associative_algebras())
@settings(max_examples=40, deadline=None)
def test_closures_match_oracles_on_associative_algebras(alg):
    """Con(A) against a compatibility check read from the tables; the
    classes of every Delta_{alpha,beta}, closed directly, against those of
    the transitive closure of the materialized M(alpha, beta); and the full
    commutator table against the fixpoint on M."""
    from congruence_lab.verify import _term_condition_fixpoint

    partitions = all_partitions(alg.size)
    compatible = {blocks for blocks in partitions if _compatible(alg, blocks)}
    lattice = all_congruences(alg)
    assert {c.blocks for c in lattice.congruences} == compatible
    for a, alpha in enumerate(lattice.congruences):
        for b, beta in enumerate(lattice.congruences):
            m = matrix_subalgebra(alg, alpha, beta)
            # a class of diagonal pairs alone generates the bottom: not stored
            rows = {
                cls
                for cls in _row_classes(m, beta)
                if len(cls) > 1 and any(x != y for x, y in cls)
            }
            assert set(_delta_partition(lattice, a, b)) == rows
            assert _term_condition_fixpoint(alg, m) == commutator(alg, alpha, beta)


def _generated(mul, gens):
    """The subsemigroup generated by gens: every product of two elements
    found so far, in both orders, until nothing new appears."""
    found = list(dict.fromkeys(gens))
    seen = set(found)
    for i, x in enumerate(found):
        for y in found[: i + 1]:
            for z in (mul(x, y), mul(y, x)):
                if z not in seen:
                    seen.add(z)
                    found.append(z)
    return seen


def _ladder_and_corpus():
    from pathlib import Path

    from congruence_lab.algebra import load_algebra

    corpus = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.json"))
    return [load_algebra(path.read_text(encoding="utf-8")) for path in corpus] + [
        chain_lattice(9),
        boolean_lattice(4),
        ring_zn(30),
        product(ring_zn(2), ring_zn(9)),
    ]


def _random_tables(count=12, seed=31):
    """Seeded random binary algebras on 2 to 6 elements, in turn: a
    relabelled semigroup, the same with one cell changed, and a uniformly
    random table, which is seldom associative."""
    rng = random.Random(seed)
    algebras = []
    for k in range(count):
        n = rng.randint(2, 6)
        kind = rng.choice(_FEW_CONGRUENCES)
        table = [_SEMIGROUPS[kind](n, a, b) for a in range(n) for b in range(n)]
        if k % 3 == 1:
            cell = rng.randrange(n * n)
            table[cell] = (table[cell] + rng.randint(1, n - 1)) % n
        elif k % 3 == 2:
            table = [rng.randrange(n) for _ in range(n * n)]
        alg = FiniteAlgebra(f"random_{k}", n, (Operation("f", 2, tuple(table)),))
        algebras.append(_relabel(alg, rng.sample(range(n), n)))
    return algebras


@pytest.mark.parametrize("alg", _ladder_and_corpus() + _random_tables(), ids=lambda alg: alg.name)
def test_stored_generating_sets_generate(alg):
    """Each associative plan entry, and only those, keeps a set that
    generates A, and each A(beta) keeps one that generates A(beta) (or none,
    meaning all of A(beta)), each generator with the tuple of its products,
    which must be member t times the generator at every t; the universe of
    A(beta) is every beta-pair.  Associativity is graded by the cubic scan
    of ``test_scan_oracles``."""
    from congruence_lab.commutator import _pair_algebra
    from congruence_lab.congruences import _translation_plan

    from test_scan_oracles import cubic_is_associative

    n = alg.size
    plan = _translation_plan(alg)
    lattice = con_lattice(alg)
    for b, beta in enumerate(lattice.congruences):
        firsts, seconds, index_of, products = _pair_algebra(lattice, b)
        members = list(zip(firsts, seconds))
        assert set(members) == {(x, y) for x in range(n) for y in range(n) if beta.related(x, y)}
        for (_, rows, _, _, scores), found in zip(plan, products):
            if found is None:
                continue
            assert scores is not None

            def mul(p, q, rows=rows):
                return rows[p[0]][q[0]], rows[p[1]][q[1]]

            assert _generated(mul, [members[g] for g in found]) == set(members)
            for g, column in found.items():
                images = [mul(t, members[g]) for t in members]
                assert column == tuple([index_of[x * n + y] for x, y in images])
    for width, rows, _, of_a, scores in plan:
        associative = width == 1 and cubic_is_associative(rows)
        assert (of_a is not None) == (scores is not None) == associative
        if associative:
            assert _generated(lambda x, y: rows[x][y], of_a) == set(range(n))


def test_uncapped_tables_of_z64_and_b5_have_closed_forms():
    """The hard cases for the Delta closures, on pair algebras of up to 4,096
    and 1,024 members: [theta_d, theta_e] = theta_gcd(de, 64) on Z_64, and
    [alpha, beta] = alpha ^ beta on B_5, whose Con is Boolean."""
    z64 = ring_zn(64)
    lattice = con_lattice(z64)
    index = {d: lattice.index(theta(z64, d)) for d in (1, 2, 4, 8, 16, 32, 64)}
    for d, i in index.items():
        for e, j in index.items():
            assert commutator_index(lattice, i, j, cap=10**9) == index[gcd(d * e, 64)]
    lattice = con_lattice(boolean_lattice(5))
    for i in range(len(lattice)):
        for j in range(len(lattice)):
            assert commutator_index(lattice, i, j, cap=10**9) == lattice.meet_index(i, j)

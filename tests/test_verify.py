"""The property-suite runner and the cross-algebra checks."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congruence_lab import SizeBudgetExceeded, load_algebra
from congruence_lab.algebra import FiniteAlgebra, Operation
from congruence_lab.builders import pointed_pair, ring_zn, chain_lattice
from congruence_lab.commutator import MATRIX_CAP, commutator, commutator_index, commutator_table
from congruence_lab.congruences import all_congruences, con_lattice
from congruence_lab.lifting import has_cblp
from congruence_lab.verify import verify_algebra, verify_corpus

from conftest import fresh_copy, theta
from test_scan_oracles import CORPUS_FILES, LADDER

# Con(R338) is the 3-chain with [nabla, theta] = Delta for its middle theta
R338 = FiniteAlgebra("R338", 3, (Operation("f", 2, (2, 1, 1, 0, 1, 1, 0, 1, 1)),))


def test_verify_algebra_passes_on_z6(z6):
    report = verify_algebra(z6)
    assert report.ok
    assert not report.exploratory
    assert len(report.checks) > 40
    names = {c.name for c in report.checks}
    assert "commutator.ring-gcd-oracle" in names
    assert "lifting.b-normal-iff-cblp" in names


def test_verify_algebra_marks_exploratory():
    report = verify_algebra(pointed_pair())
    assert report.exploratory
    assert report.ok  # basic suites still pass
    assert any("EXPLORATORY" in c.detail for c in report.checks)
    assert all(not c.name.startswith("lifting.") for c in report.checks)


def test_verify_corpus_cross_checks():
    reports = verify_corpus([ring_zn(2), ring_zn(3), ring_zn(4), chain_lattice(2)])
    cross = reports[-1]
    assert cross.algebra.name == "corpus-cross-checks"
    by_name = {c.name: c for c in cross.checks}
    assert by_name["product.congruence-factorization"].passed
    assert by_name["product.associativity"].passed
    for report in reports[:-1]:
        assert report.ok


def test_lattice_signature_oracle_runs():
    report = verify_algebra(chain_lattice(3))
    names = {c.name for c in report.checks}
    assert "commutator.distributive-meet-oracle" in names
    assert report.ok


@pytest.mark.parametrize(
    "alg",
    [load_algebra(path.read_text(encoding="utf-8")) for path in CORPUS_FILES] + LADDER,
    ids=lambda alg: alg.name,
)
def test_commutator_table_equals_the_pairwise_queries(alg):
    """The stored table, filled bottom-up, against one query per pair asked
    top-down on a Con(A) of its own."""
    lattice, pairwise = all_congruences(alg), all_congruences(alg)
    size = len(lattice)
    assert commutator_table(lattice) == tuple(
        tuple(commutator_index(pairwise, i, j) for j in range(size)) for i in range(size)
    )


def test_single_queries_store_no_table():
    """A cold has_cblp and a cold commutator fill only the cells of the
    pairs they need; the first whole-lattice scan fills every cell."""

    def unfilled(alg):
        return sum(row.count(None) for row in con_lattice(alg)._caches["commutator"])

    alg = fresh_copy(ring_zn(12))
    has_cblp(alg, theta(alg, 2))
    assert unfilled(alg) > 0
    alg = fresh_copy(ring_zn(12))
    commutator(alg, theta(alg, 2), theta(alg, 3))
    assert unfilled(alg) > 0
    commutator_table(con_lattice(alg))
    assert unfilled(alg) == 0


def test_stored_table_is_refused_under_a_cap_below_its_bound(set_cap):
    """The budget is checked on every call against the top congruence, whose
    bound is the largest: a stored table is refused under a cap one below
    it, while a query on smaller congruences still passes that cap."""
    lattice = con_lattice(ring_zn(4))
    bound = lattice.matrix_bounds[lattice.top_index]
    assert max(lattice.matrix_bounds) == bound
    table = commutator_table(lattice)
    set_cap(MATRIX_CAP, bound - 1)
    with pytest.raises(SizeBudgetExceeded):
        commutator_table(lattice)
    bottom = lattice.bottom_index
    assert commutator_index(lattice, bottom, bottom) == table[bottom][bottom]


def test_top_commutator_gate_makes_r338_exploratory():
    report = verify_algebra(R338)
    assert report.exploratory
    assert report.ok
    hypotheses = [c for c in report.checks if c.name == "surrogate.hypotheses"]
    assert hypotheses[0].detail == "EXPLORATORY: [theta, nabla] != theta for some theta"


@st.composite
def small_algebras(draw):
    """A random algebra on at most 4 elements: one binary table and, half the
    time, a unary one."""
    n = draw(st.integers(1, 4))
    cells = st.integers(0, n - 1)
    operations = [Operation("f", 2, tuple(draw(st.lists(cells, min_size=n * n, max_size=n * n))))]
    if draw(st.booleans()):
        operations.append(Operation("g", 1, tuple(draw(st.lists(cells, min_size=n, max_size=n)))))
    return FiniteAlgebra(f"random_{n}", n, tuple(operations))


@example(R338)
@given(small_algebras())
@settings(max_examples=200, deadline=None)
def test_verify_passes_or_is_exploratory_on_random_algebras(alg):
    report = verify_algebra(alg)  # raises nothing
    assert report.ok

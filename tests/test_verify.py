"""The property-suite runner and the cross-algebra checks."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from congruence_lab.algebra import FiniteAlgebra, Operation
from congruence_lab.builders import pointed_pair, ring_zn, chain_lattice
from congruence_lab.verify import verify_algebra, verify_corpus

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


def _commutator_calls(monkeypatch, alg):
    """Run the commutator suite on alg; count verify's commutator_index
    calls on Con(alg) itself and on the other lattices (quotients)."""
    from congruence_lab import verify
    from congruence_lab.congruences import con_lattice

    lattice = con_lattice(alg)
    counts = {"own": 0, "other": 0}
    real = verify.commutator_index

    def counting(lat, i, j, cap=None):
        counts["own" if lat is lattice else "other"] += 1
        return real(lat, i, j, cap)

    monkeypatch.setattr(verify, "commutator_index", counting)
    checks = list(verify._suite_commutator_axioms(alg))
    assert checks and all(c.passed for c in checks)
    return len(lattice), counts


def test_commutator_suite_reads_one_table(monkeypatch):
    """One commutator_index call per ordered pair of Con(A); every other read
    of [i, j] on Con(A) comes from that table."""
    size, counts = _commutator_calls(monkeypatch, chain_lattice(5))
    assert size == 16
    assert counts == {"own": 256, "other": 0}

    # the projection and quotient-iterate checks skip theta = Delta, whose
    # quotient lattice would be Con(A) itself
    size, counts = _commutator_calls(monkeypatch, ring_zn(12))
    assert size == 6
    assert counts == {"own": 36, "other": 214}


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

"""The reticulation, its quotient map, star/costar and the spectrum match."""

import pytest

from congruence_lab import (
    ParentMismatch,
    TheoryHypothesisFailed,
    build_reticulation,
    check_spec_homeomorphism,
    con_lattice,
    costar,
    delta,
    ideal_spectra,
    lambda_,
    nabla,
    preserves_boolean_center,
    quotient,
    spectrum,
    star,
)
from congruence_lab import lattices, reticulation, verify
from congruence_lab.builders import (
    boolean_lattice,
    chain_lattice,
    mv_chain,
    pentagon,
    pointed_pair,
    ring_zn,
)
from congruence_lab.lattices import principal_ideal

from conftest import fresh_copy, theta


def test_reticulation_of_z12_is_boolean_square(z12):
    retic = build_reticulation(z12)
    assert {e.blocks for e in retic.elements} == {
        theta(z12, 6).blocks,
        theta(z12, 2).blocks,
        theta(z12, 3).blocks,
        nabla(z12).blocks,
    }
    lat = retic.lattice
    assert lat.size == 4
    assert lat.is_distributive()
    assert retic.bottom == theta(z12, 6)
    assert retic.top == nabla(z12)
    assert len(lat.atoms()) == 2


def test_reticulation_of_z4_is_two_chain(z4):
    retic = build_reticulation(z4)
    assert [e.blocks for e in retic.elements] == sorted(
        [theta(z4, 2).blocks, nabla(z4).blocks]
    )
    assert retic.lattice.size == 2


def test_reticulation_of_one_element_algebra():
    one = quotient(ring_zn(3), nabla(ring_zn(3)))
    assert build_reticulation(one).lattice.size == 1


def test_lambda_examples(z12, z4):
    retic = build_reticulation(z12)
    assert lambda_(retic, theta(z12, 4)) == theta(z12, 2)
    assert lambda_(retic, nabla(z12)) == nabla(z12)
    retic4 = build_reticulation(z4)
    assert lambda_(retic4, theta(z4, 2)) == retic4.bottom


def test_element_index_refuses_a_congruence_that_is_not_radical(z12, z4):
    retic = build_reticulation(z12)
    assert retic.element_index(theta(z12, 2)) == retic.lambda_index(theta(z12, 4))
    with pytest.raises(ParentMismatch, match=r"\[0, 1, 2, .*\] is not a radical congruence"):
        retic.element_index(delta(z12))  # rho(Delta) is the mod-6 congruence
    with pytest.raises(ParentMismatch):
        retic.element_index(theta(z4, 2))  # not a congruence of Z_12


class _CountedStore(dict):
    """A result store that counts the results written into it."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


def test_verify_builds_the_prime_ideals_and_the_costar_table_once(monkeypatch):
    """One verify_algebra stores the costar table and the prime ideals of
    L(A) once each, and searches L(A) for prime ideals once."""
    alg = fresh_copy(chain_lattice(5))
    lattice = con_lattice(alg)
    stores = [
        lattice._caches.setdefault(f"congruence_lab.reticulation.{core}", _CountedStore())
        for core in ("costar_table", "prime_ideal_index")
    ]
    searches = []

    def counted(lat):
        searches.append(lat)
        return lattices.prime_ideals(lat)

    monkeypatch.setattr(reticulation, "prime_ideals", counted)
    assert verify.verify_algebra(alg).ok
    assert [store.writes for store in stores] == [1, 1]
    assert len(searches) == 1


def test_star_examples(z12):
    retic = build_reticulation(z12)
    bottom = retic.lattice.bottom_index
    assert star(retic, theta(z12, 6)).members() == [bottom]
    assert star(retic, nabla(z12)).members() == list(range(retic.lattice.size))
    expected = {retic.element_index(theta(z12, 6)), retic.element_index(theta(z12, 2))}
    assert set(star(retic, theta(z12, 2)).members()) == expected


def test_star_is_principal_on_lambda(z12):
    for alg in (z12, chain_lattice(5), boolean_lattice(3)):
        retic = build_reticulation(alg)
        congruences = con_lattice(alg).congruences
        for c in congruences:
            definitional = {retic.lambda_index(a) for a in congruences if a.leq(c)}
            ideal = star(retic, c)
            assert set(ideal.members()) == definitional
            assert ideal.generator == retic.lambda_index(c)


def test_costar_examples(z12):
    retic = build_reticulation(z12)
    two = retic.element_index(theta(z12, 2))
    ideal = principal_ideal(retic.lattice, two)
    assert costar(retic, ideal) == theta(z12, 2)
    bottom_ideal = principal_ideal(retic.lattice, retic.lattice.bottom_index)
    assert costar(retic, bottom_ideal) == theta(z12, 6)  # rho(bottom)


@pytest.mark.parametrize("generator", [2, 10])
def test_costar_refuses_an_ideal_of_another_reticulation(z12, generator):
    """An ideal of L(C_5) is no ideal of L(Z_12): (2] used to be read as
    L(Z_12)'s (2], and (10] lies outside L(Z_12)'s four elements."""
    other = principal_ideal(build_reticulation(chain_lattice(5)).lattice, generator)
    with pytest.raises(ParentMismatch, match="not an ideal of the reticulation"):
        costar(build_reticulation(z12), other)


def test_costar_star_is_radical(z12, z6, z4):
    from congruence_lab import radical

    for alg in (z12, z6, z4, chain_lattice(4), pentagon()):
        retic = build_reticulation(alg)
        for c in con_lattice(alg).congruences:
            assert costar(retic, star(retic, c)) == radical(alg, c)


def test_ideal_spectra_counts(z12):
    from congruence_lab.lattices import lattice_from_leq

    boolean_sq = lattice_from_leq([[a & b == a for b in range(4)] for a in range(4)])
    primes, maxes = ideal_spectra(boolean_sq)
    assert len(primes) == 2 and len(maxes) == 2
    two_chain = lattice_from_leq([[a <= b for b in range(2)] for a in range(2)])
    primes, _ = ideal_spectra(two_chain)
    assert len(primes) == 1 and primes[0].members() == [0]
    retic = build_reticulation(z12)
    assert len(ideal_spectra(retic.lattice)[0]) == len(spectrum(z12).primes) == 2


def test_spec_homeomorphism_reports(z12, z4):
    for alg in (z12, z4, quotient(ring_zn(2), nabla(ring_zn(2)))):
        report = check_spec_homeomorphism(alg)
        assert report.ok, report.failures
        assert report.prime_count == report.ideal_prime_count


def test_spec_homeomorphism_corpus():
    for alg in [ring_zn(8), chain_lattice(5), boolean_lattice(2), mv_chain(3), pentagon()]:
        report = check_spec_homeomorphism(alg)
        assert report.ok, report.failures


def test_preserves_boolean_center(z12, z4, z6):
    assert preserves_boolean_center(z12).preserves
    assert preserves_boolean_center(z4).preserves
    report = preserves_boolean_center(z6)
    assert report.preserves and report.semiprime
    assert preserves_boolean_center(pentagon()).preserves  # semiprime lattice
    # semiprime or the star property each suffice
    for alg in (z12, z4, z6):
        r = preserves_boolean_center(alg)
        if r.sufficient_conditions_hold:
            assert r.preserves


def test_reticulation_requires_theory():
    with pytest.raises(TheoryHypothesisFailed):
        build_reticulation(pointed_pair())


def test_reticulation_serialize(z4):
    retic = build_reticulation(z4)
    doc = retic.serialize()
    assert doc["size"] == 2
    # canonical element order puts the total congruence first
    assert retic.elements[0] == nabla(z4)
    assert doc["leq"] == [[True, False], [True, True]]
    assert retic.lattice.bottom_index == 1 and retic.lattice.top_index == 0

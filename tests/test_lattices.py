"""The standalone finite-lattice toolkit."""

import pytest

from congruence_lab import (
    MalformedDoc,
    NotALattice,
    all_ideals,
    lattice_from_leq,
    maximal_ideals,
    parse_lattice,
    prime_ideals,
    principal_ideal,
    quotient_by_ideal,
    serialize_lattice,
)
from congruence_lab.lattices import LatticeIdeal, is_prime_ideal


def chain(k):
    return lattice_from_leq([[a <= b for b in range(k)] for a in range(k)])


def boolean(k):
    n = 2**k
    return lattice_from_leq([[a & b == a for b in range(n)] for a in range(n)])


def kite_lattice():
    # 0 < 1 < {2, 3} < 4
    le = {
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 1), (1, 2), (1, 3), (1, 4),
        (2, 2), (2, 4), (3, 3), (3, 4), (4, 4),
    }
    return lattice_from_leq([[(a, b) in le for b in range(5)] for a in range(5)])


def m3_lattice():
    le = {(0, b) for b in range(5)} | {(a, a) for a in range(5)} | {
        (1, 4), (2, 4), (3, 4)
    }
    return lattice_from_leq([[(a, b) in le for b in range(5)] for a in range(5)])


def test_lattice_from_leq_validates():
    with pytest.raises(NotALattice):
        lattice_from_leq([[True, False], [False, False]])  # not reflexive
    with pytest.raises(NotALattice):
        lattice_from_leq([[True, True], [True, True]])  # not antisymmetric
    with pytest.raises(NotALattice):
        # 4-element poset with two incomparable tops
        lattice_from_leq(
            [
                [True, False, True, True],
                [False, True, True, True],
                [False, False, True, False],
                [False, False, False, True],
            ]
        )


def test_join_meet_tables():
    b = boolean(2)
    assert b.join_index(1, 2) == 3
    assert b.meet_index(1, 2) == 0
    assert b.bottom_index == 0 and b.top_index == 3
    assert b.is_distributive()
    assert not m3_lattice().is_distributive()


def test_serialize_roundtrip():
    for lat in [chain(3), boolean(2), kite_lattice()]:
        doc = serialize_lattice(lat)
        assert parse_lattice(doc) == lat
    # only lists of JSON booleans and an int size are a lattice document
    for doc in [
        {"size": 2},
        {"size": 2, "leq": [1, 2]},
        {"size": 2, "leq": [[True, "x"], [False, True]]},
        {"size": 2, "leq": [[True, 1], [False, True]]},
        {"size": True, "leq": [[True]]},
        {"size": "1", "leq": [[True]]},
    ]:
        with pytest.raises(MalformedDoc):
            parse_lattice(doc)


def test_ideals_are_principal_downsets():
    lat = kite_lattice()
    ideals = all_ideals(lat)
    assert len(ideals) == lat.size
    for ideal in ideals:
        members = ideal.members()
        g = ideal.generator
        assert members == [x for x in range(lat.size) if lat.leq_index(x, g)]


def test_ideal_validation():
    lat = boolean(2)
    for generator in (-1, lat.size):
        with pytest.raises(NotALattice):
            LatticeIdeal(lat, generator)


def test_prime_ideals_of_boolean_square():
    lat = boolean(2)
    primes = prime_ideals(lat)
    assert len(primes) == 2
    assert {frozenset(p.members()) for p in primes} == {
        frozenset({0, 1}),
        frozenset({0, 2}),
    }


def test_prime_ideals_of_chain():
    lat = chain(2)
    primes = prime_ideals(lat)
    assert len(primes) == 1 and primes[0].members() == [0]
    # longer chains: every proper principal ideal is prime
    assert len(prime_ideals(chain(4))) == 3


def test_maximal_ideals():
    lat = boolean(2)
    maxes = maximal_ideals(lat)
    assert {frozenset(m.members()) for m in maxes} == {
        frozenset({0, 1}),
        frozenset({0, 2}),
    }
    assert all(is_prime_ideal(m) for m in maxes)


def test_quotient_by_ideal_kite():
    lat = kite_lattice()
    quo, class_of = quotient_by_ideal(principal_ideal(lat, 1))
    assert quo.size == 4
    assert class_of[0] == class_of[1]  # 0 and the collapsed middle merge
    assert quo.is_distributive()
    assert len(quo.center) == 4  # quotient is the Boolean square


def definitional_quotient(ideal):
    """Reference for quotient_by_ideal, from the definition: x ~ y iff
    x v i = y v i for some i in I (an equivalence, since i, j in I give
    i v j in I), classes numbered in the order of their least members and
    ordered by "some members are related"."""
    lat = ideal.lattice
    members = ideal.members()
    class_of = []
    reps: list[int] = []
    for x in range(lat.size):
        for k, r in enumerate(reps):
            if any(lat.join_index(x, i) == lat.join_index(r, i) for i in members):
                class_of.append(k)
                break
        else:
            class_of.append(len(reps))
            reps.append(x)
    leq = [[False] * len(reps) for _ in reps]
    for x in range(lat.size):
        for y in range(lat.size):
            if lat.leq_index(x, y):
                leq[class_of[x]][class_of[y]] = True
    return lattice_from_leq(leq), class_of


def _reticulations():
    from congruence_lab import build_reticulation, standard_corpus, surrogate_checks

    return [
        build_reticulation(alg).lattice
        for alg in standard_corpus()
        if surrogate_checks(alg).ok
    ]


def test_quotient_by_ideal_matches_definition():
    lattices = [chain(5), boolean(3), kite_lattice()] + _reticulations()
    for lat in lattices:
        for ideal in all_ideals(lat):
            quo, class_of = quotient_by_ideal(ideal)
            ref, ref_class_of = definitional_quotient(ideal)
            assert class_of == ref_class_of
            assert quo.leq == ref.leq
            assert quo.join_table == ref.join_table
            assert quo.meet_table == ref.meet_table
            assert (quo.bottom_index, quo.top_index) == (ref.bottom_index, ref.top_index)


def test_quotient_by_trivial_and_total_ideal():
    lat = boolean(2)
    quo, class_of = quotient_by_ideal(principal_ideal(lat, lat.bottom_index))
    assert quo.size == lat.size and class_of == list(range(lat.size))
    quo, _ = quotient_by_ideal(principal_ideal(lat, lat.top_index))
    assert quo.size == 1


def test_complemented_elements():
    assert boolean(2).center == (0, 1, 2, 3)
    assert kite_lattice().center == (0, 4)
    assert chain(3).center == (0, 2)
    m3 = m3_lattice()
    for _ in range(2):  # a raising cached property stores nothing
        with pytest.raises(NotALattice):
            m3.center  # complements not unique


def test_atoms():
    assert boolean(2).atoms() == [1, 2]
    assert chain(3).atoms() == [1]

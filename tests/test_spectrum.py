"""Prime/maximal congruences, radicals and the spectral topology."""

import importlib

import pytest

from congruence_lab import (
    con_lattice,
    delta,
    is_prime,
    is_semiprime,
    nabla,
    quotient,
    radical,
    radical_oracle,
    spectrum,
    v_set,
)
from congruence_lab.builders import chain_lattice, pentagon, ring_zn
from congruence_lab.spectrum import (
    brute_force_clopens,
    clopens_of_max,
    d_set,
    is_hyperarchimedean,
    spectrum_index,
)

from conftest import fresh_copy, theta


def test_primes_of_z12(z12):
    data = spectrum(z12)
    assert {p.blocks for p in data.primes} == {
        theta(z12, 2).blocks,
        theta(z12, 3).blocks,
    }
    assert {m.blocks for m in data.maximals} == {p.blocks for p in data.primes}
    assert data.rad == theta(z12, 6)
    assert data.nilradical == theta(z12, 6)


def test_is_prime_examples(z12):
    assert is_prime(z12, theta(z12, 2))
    assert not is_prime(z12, theta(z12, 4))  # [theta_2, theta_2] inside it
    assert not is_prime(z12, nabla(z12))
    assert is_prime(z12, theta(z12, 2), all_pairs=True)
    assert not is_prime(z12, theta(z12, 4), all_pairs=True)


def test_is_prime_reads_the_stored_primes(monkeypatch):
    """Primality is decided once per flag value on a fresh Z_12: every
    later is_prime call, like spectrum, reads the stored primes."""
    spectrum_module = importlib.import_module("congruence_lab.spectrum")  # not the function
    real = spectrum_module._prime_indices
    calls = []

    def counted(lattice, all_pairs):
        calls.append(all_pairs)
        return real(lattice, all_pairs)

    monkeypatch.setattr(spectrum_module, "_prime_indices", counted)
    alg = fresh_copy(ring_zn(12))
    for all_pairs in (False, True):
        for d in (1, 2, 3, 4, 6, 12):
            assert is_prime(alg, theta(alg, d), all_pairs) == (d in (2, 3))
    assert spectrum(alg).primes == spectrum(alg, all_pairs=True).primes
    assert calls == [False, True]


def test_all_pairs_oracle_agreement():
    for alg in [ring_zn(12), chain_lattice(4), pentagon()]:
        default = {p.blocks for p in spectrum(alg).primes}
        oracle = {p.blocks for p in spectrum(alg, all_pairs=True).primes}
        assert default == oracle


def test_simple_algebra_spectrum():
    z2 = ring_zn(2)
    data = spectrum(z2)
    assert [p.blocks for p in data.primes] == [delta(z2).blocks]
    assert data.rad == delta(z2)


def test_radical_examples(z12, z4):
    assert radical(z12, theta(z12, 4)) == theta(z12, 2)
    assert radical(z12, nabla(z12)) == nabla(z12)  # empty meet
    assert radical(z4, delta(z4)) == theta(z4, 2)  # Z_4 is not semiprime


def test_radical_dual_path(z12, z4, z6):
    for alg in (z12, z4, z6, chain_lattice(4), pentagon()):
        for c in con_lattice(alg).congruences:
            assert radical(alg, c) == radical_oracle(alg, c)


def test_radical_of_primes_fixed(z12):
    for p in spectrum(z12).primes:
        assert radical(z12, p) == p


def test_semiprimeness(z6, z4, z12):
    assert is_semiprime(z6)
    assert not is_semiprime(z4)
    assert not is_semiprime(z12)
    assert is_semiprime(ring_zn(2))
    assert is_semiprime(pentagon())


def test_open_sets_z12(z12):
    data = spectrum(z12)
    index_of = {p.blocks: k for k, p in enumerate(data.primes)}
    d4 = d_set(z12, theta(z12, 4))
    assert d4.members == (index_of[theta(z12, 3).blocks],)
    assert d_set(z12, nabla(z12)).members == tuple(range(len(data.primes)))
    assert d_set(z12, delta(z12)).members == ()
    assert set(v_set(z12, theta(z12, 6))) == {
        index_of[theta(z12, 2).blocks],
        index_of[theta(z12, 3).blocks],
    }


def test_clopens_of_max_z12(z12):
    witnesses = clopens_of_max(z12)
    members = {w.members for w in witnesses}
    data = spectrum(z12)
    assert members == {(), (0,), (1,), (0, 1)}
    lattice = con_lattice(z12)
    rad = lattice.index(data.rad)
    for w in witnesses:
        a, b = lattice.index(w.alpha), lattice.index(w.beta)
        assert lattice.join_index(a, b) == lattice.top_index
        from congruence_lab.commutator import commutator_index

        assert lattice.leq_index(commutator_index(lattice, a, b), rad)
    # every witness cuts out exactly its clopen
    index_of = {p.blocks: k for k, p in enumerate(data.maximals)}
    for w in witnesses:
        trace = tuple(
            sorted(
                k
                for m, k in index_of.items()
                if not w.alpha.leq(lattice.congruences[lattice.index(
                    next(p for p in data.maximals if p.blocks == m)
                )])
            )
        )
        assert trace == w.members
    # the pair (theta_4, theta_3) also witnesses the singleton {theta_3}:
    # coprime, commutator theta_12 = bottom inside Rad, trace = {theta_3}
    a, b = lattice.index(theta(z12, 4)), lattice.index(theta(z12, 3))
    assert lattice.join_index(a, b) == lattice.top_index
    from congruence_lab.commutator import commutator_index as ci

    assert lattice.congruences[ci(lattice, a, b)] == delta(z12)
    singleton = tuple(
        k
        for k, m in enumerate(data.maximals)
        if not theta(z12, 4).leq(m)
    )
    assert singleton == (index_of[theta(z12, 3).blocks],)


def test_clopens_of_max_z4(z4):
    # singleton maximal spectrum: only the empty set and the whole space
    assert {w.members for w in clopens_of_max(z4)} == {(), (0,)}


def test_brute_force_clopens_matches(z12, z6):
    for alg in (z12, z6, chain_lattice(4), pentagon()):
        assert {w.members for w in clopens_of_max(alg)} == set(
            brute_force_clopens(alg)
        )


def test_hyperarchimedean(z4, z12):
    assert is_hyperarchimedean(z4)  # [theta_2, theta_2] = bottom, complemented
    assert is_hyperarchimedean(z12)
    one = quotient(ring_zn(2), nabla(ring_zn(2)))
    assert is_hyperarchimedean(one)
    # the pentagon's collapse-{1,2} congruence squares to itself and is not
    # complemented
    assert not is_hyperarchimedean(pentagon())


def test_spectrum_is_cached(z12):
    lattice = con_lattice(z12)
    assert spectrum_index(lattice, False) is spectrum_index(lattice, False)
    assert spectrum(z12) == spectrum(z12)


def test_spectrum_default_and_keyword_share_one_entry(z12):
    """A default left out, passed by keyword or passed by position is one
    stored result; the all-pairs oracle is another."""
    data = spectrum(z12)
    assert spectrum(z12, all_pairs=False) == data
    assert spectrum(z12, False) == data
    oracle = spectrum(z12, all_pairs=True)
    assert oracle == data
    entries = con_lattice(z12)._caches["congruence_lab.spectrum.spectrum_index"]
    assert set(entries) == {(False,), (True,)}

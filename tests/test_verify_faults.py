"""Planted faults: each table-row check of ``verify`` reports failed, by name,
when one cell it reads is wrong.

Every check passes on every corpus input, so the pinned JSON alone cannot
tell a working check from one that has become always-true.  Each test plants
one wrong cell (a commutator value, a residuum, a radical, a prime
congruence, a lambda value, a costar entry or a prime ideal of the
reticulation, a join or meet cell of Con(A), a stored principal congruence,
a cell of a center-map row, or a cell of the projection onto a quotient) in
what one suite reads, runs that suite on a fresh copy of C_5 (the costar
plant also on Z_12, the plants that show which one check states a
spectral fact on Z_12 alone, the dropped prime on Z_6 through ``verify``)
and asserts that the named check fails.  Con(C_5) is the 16-element
Boolean lattice: every congruence is central and radical, and the
commutator is the meet.
"""

import importlib
from pathlib import Path

import pytest

from congruence_lab import lifting, verify
from congruence_lab.builders import chain_lattice, ring_zn
from congruence_lab.congruences import con_lattice
from congruence_lab.reticulation import costar_table, prime_ideal_index, reticulation_index

from conftest import fresh_copy, replace


@pytest.fixture()
def alg():
    """A fresh C_5 whose every stored result is already computed, so a plant
    changes only what the suite under test reads."""
    alg = fresh_copy(chain_lattice(5))
    assert verify.verify_algebra(alg).ok
    return alg


def _failed(suite, alg) -> set[str]:
    return {check.name for check in suite(alg) if not check.passed}


def _elements(alg):
    """Bottom, top and three of the four atoms of Con(alg)."""
    lattice = con_lattice(alg)
    a1, a2, a3, _ = lattice.atoms()
    return lattice.bottom_index, lattice.top_index, a1, a2, a3


def _plant_cell(monkeypatch, alg, table: str, x: int, y: int, value: int) -> None:
    """verify reads Con(alg) with one cell of its join or meet table wrong."""
    lattice = con_lattice(alg)
    rows = [list(row) for row in getattr(lattice, table)]
    assert rows[x][y] != value
    rows[x][y] = value
    _plant_lattice(monkeypatch, alg, **{table: tuple(map(tuple, rows))})


def _plant_stored(monkeypatch, alg, core, value) -> None:
    """Every module reads the stored result of ``core`` (an index core that
    takes Con(A) alone) for Con(alg) as ``value``."""
    store = con_lattice(alg)._caches[f"{core.__module__}.{core.__qualname__}"]
    monkeypatch.setitem(store, (), value)


def _plant_lattice(monkeypatch, alg, **fields) -> None:
    """verify reads Con(alg) with the given fields replaced."""
    planted = replace(con_lattice(alg), **fields)
    real = verify.con_lattice
    monkeypatch.setattr(
        verify, "con_lattice", lambda a, cap=None: planted if a is alg else real(a, cap)
    )


def _plant_commutator(
    monkeypatch, alg, i: int, j: int, value: int, both: bool = True, module=verify
) -> None:
    """``module`` (verify unless given) reads [i, j] = value in the
    commutator table of Con(alg), and [j, i] = value too unless ``both`` is
    false."""
    lattice = con_lattice(alg)
    rows = [list(row) for row in module.commutator_table(lattice)]
    assert rows[i][j] != value
    rows[i][j] = value
    if both:
        rows[j][i] = value
    planted = tuple(map(tuple, rows))
    real = module.commutator_table
    monkeypatch.setattr(
        module, "commutator_table", lambda lat: planted if lat is lattice else real(lat)
    )


@pytest.mark.parametrize("table", ["join_table", "meet_table"])
def test_lattice_axioms_catch_one_cell(monkeypatch, alg, table):
    bottom, top, a1, a2, _ = _elements(alg)
    _plant_cell(monkeypatch, alg, table, a1, a2, top if table == "join_table" else a1)
    assert "join-meet-lattice-axioms" in _failed(verify._suite_con_enumeration, alg)


@pytest.mark.parametrize("cell", [(0, 1), (1, 0), (2, 2)], ids=["upper", "lower", "diagonal"])
def test_principal_minimality_reads_every_stored_principal(monkeypatch, alg, cell):
    """One wrong entry of the stored Cg table fails the check, in either
    order of the pair and on the diagonal."""
    lattice = con_lattice(alg)
    a, b = cell
    principals = list(lattice.principals)
    principals[a * alg.size + b] = lattice.top_index
    _plant_lattice(monkeypatch, alg, principals=tuple(principals))
    assert "principal-minimality" in _failed(verify._suite_con_enumeration, alg)


def test_interval_count_catches_one_wrong_quotient():
    """The stored quotient at theta = Delta read as A/nabla, whose Con has
    one element against the 16 of [Delta, nabla], on a C_5 with nothing
    stored: the count check alone fails, and the suite raises nothing,
    where the projection that reads the same quotient raises Falsified."""
    from congruence_lab.algebra import quotient
    from congruence_lab.congruences import _quotient_algebra, projection
    from congruence_lab.errors import Falsified

    alg = fresh_copy(chain_lattice(5))
    lattice = con_lattice(alg)
    bottom, top = lattice.bottom_index, lattice.top_index
    _quotient_algebra(lattice, bottom)
    store = lattice._caches["congruence_lab.congruences._quotient_algebra"]
    store[(bottom,)] = quotient(alg, lattice.congruences[top])
    assert _failed(verify._suite_con_enumeration, alg) == {"interval-vs-quotient-count"}
    with pytest.raises(Falsified, match="is not a congruence of the quotient"):
        projection(lattice, bottom)


def test_commutator_above_its_meet(monkeypatch, alg):
    bottom, top, a1, _, _ = _elements(alg)
    _plant_commutator(monkeypatch, alg, bottom, a1, top)
    failed = _failed(verify._suite_commutator_axioms, alg)
    assert {"commutator-below-meet", "commutator-monotone"} <= failed


def test_matrix_cross_check_reads_both_orientations(monkeypatch):
    """M(alpha, beta) is closed once per unordered pair and its fixpoint
    compared with [alpha, beta] and with [beta, alpha]: on Z_4 a wrong
    [j, i] alone, for i < j, fails the check."""
    alg = fresh_copy(ring_zn(4))
    assert verify.verify_algebra(alg).ok
    lattice = con_lattice(alg)
    i, j = sorted((lattice.top_index, *lattice.atoms()))
    _plant_commutator(monkeypatch, alg, j, i, lattice.bottom_index, both=False)
    assert "matrix-subalgebra-cross-check" in _failed(verify._suite_commutator_axioms, alg)


def test_commutator_cell_breaks_adjunction_and_coprime_transfer(monkeypatch, alg):
    # [a1, a1] = bottom stays below the meet and monotone, but the coatom
    # complementing a1 no longer joins it to the top
    bottom, _, a1, _, _ = _elements(alg)
    _plant_commutator(monkeypatch, alg, a1, a1, bottom)
    failed = _failed(verify._suite_commutator_axioms, alg)
    assert {"residuation-adjunction", "coprime-join-transfer"} <= failed
    assert not {"commutator-below-meet", "commutator-monotone"} & failed


def test_annihilator_catches_one_residuum_at_bottom(monkeypatch, alg):
    # a1 -> bottom read as the top, by annihilator_index and by verify alike:
    # only the join of the gamma with [a1, gamma] = bottom tells them apart
    lattice = con_lattice(alg)
    bottom, top, a1, _, _ = _elements(alg)
    commutator = importlib.import_module("congruence_lab.commutator")  # not the function
    real = commutator.residuation_index

    def planted(lat, i, j):
        return top if lat is lattice and (i, j) == (a1, bottom) else real(lat, i, j)

    monkeypatch.setattr(commutator, "residuation_index", planted)
    monkeypatch.setattr(verify, "residuation_index", planted)
    assert "annihilator-is-residuum-at-bottom" in _failed(verify._suite_commutator_axioms, alg)


def test_center_complement_catches_one_residuum_above_delta(monkeypatch):
    """(a1 v a2) -> a1 read as the top, on a C_5 with nothing stored: a1 v a2
    is a member of B([a1, nabla]) whose complement there is a1 v a3 v a4,
    so center-complement-unique, which compares every complement in every
    interval with its residuum, fails.  The library's center reads no
    residuum, so has_cblp at a1 still answers."""
    alg = fresh_copy(chain_lattice(5))
    lattice = con_lattice(alg)
    _, top, a1, a2, _ = _elements(alg)
    member = lattice.join_index(a1, a2)
    commutator = importlib.import_module("congruence_lab.commutator")  # not the function
    real = commutator.residuation_index

    def planted(lat, i, j):
        return top if lat is lattice and (i, j) == (member, a1) else real(lat, i, j)

    monkeypatch.setattr(commutator, "residuation_index", planted)
    monkeypatch.setattr(verify, "residuation_index", planted)
    assert lifting.has_cblp(alg, lattice.congruences[a1]).cblp
    assert _failed(verify._suite_boolean_center, alg) == {"center-complement-unique"}


def _plant_radicals(monkeypatch, alg, rho) -> None:
    """verify reads the stored rho table of Con(alg) as ``rho``."""
    lattice = con_lattice(alg)
    real = verify.radical_table
    monkeypatch.setattr(
        verify, "radical_table", lambda lat: tuple(rho) if lat is lattice else real(lat)
    )


def test_wrong_radical_of_a_join_is_a_failed_check(monkeypatch):
    """The stored rho table of a C_5 with nothing else stored read as the
    bottom, a1, a2, a1 v a2 v a3 and the top fixed and every other
    congruence sent to the top, before L(A) is built: rho(a1 v a2) is the
    top, not the join a1 v a2 v a3 of a1 and a2 in L(A)'s order.  L(A) is
    still distributive and is built from that order; verify reports the
    wrong rho as failed checks instead of refusing the input."""
    alg = fresh_copy(chain_lattice(5))
    lattice = con_lattice(alg)
    bottom, top, a1, a2, a3 = _elements(alg)
    kept = {bottom, a1, a2, lattice.join_many((a1, a2, a3)), top}
    verify.radical_table(lattice)  # the real table, stored for the plant to replace
    rho = tuple(i if i in kept else top for i in range(len(lattice)))
    _plant_stored(monkeypatch, alg, verify.radical_table, rho)
    failed = {check.name for check in verify.verify_algebra(alg).checks if not check.passed}
    assert "reticulation.lambda-clause-suite" in failed


def test_radical_of_an_atom(monkeypatch, alg):
    _, top, a1, _, _ = _elements(alg)
    rho = list(verify.radical_table(con_lattice(alg)))
    rho[a1] = top
    _plant_radicals(monkeypatch, alg, rho)
    failed = _failed(verify._suite_radicals, alg)
    assert {"radical-lemma-suite", "radical-lattice-distributive"} <= failed


def test_radical_frame_distributivity_catches_one_join(monkeypatch, alg):
    # a1 v a2 read as the top: the radical lemmas read that cell on both
    # sides and still hold, the frame's distributive law does not
    _, top, a1, a2, _ = _elements(alg)
    _plant_cell(monkeypatch, alg, "join_table", a1, a2, top)
    failed = _failed(verify._suite_radicals, alg)
    assert "radical-lattice-distributive" in failed
    assert "radical-lemma-suite" not in failed


def test_radical_frame_distributivity_catches_a_diamond(monkeypatch, alg):
    # radicals read as the bottom, three atoms and the top: closed under
    # intersection and radical-of-join, but the diamond M3, not distributive
    bottom, top, a1, a2, a3 = _elements(alg)
    rho = [i if i in (bottom, a1, a2, a3) else top for i in range(len(con_lattice(alg)))]
    _plant_radicals(monkeypatch, alg, rho)
    assert "radical-lattice-distributive" in _failed(verify._suite_radicals, alg)


def test_spectral_topology_catches_one_commutator(monkeypatch, alg):
    _, _, a1, a2, _ = _elements(alg)
    _plant_commutator(monkeypatch, alg, a1, a2, a1)
    assert "spectral-topology-identities" in _failed(verify._suite_spectrum, alg)


def test_v_d_complement_catches_one_v_set(monkeypatch, alg):
    lattice = con_lattice(alg)
    _, _, a1, _, _ = _elements(alg)
    real = verify.v_set_index
    monkeypatch.setattr(
        verify,
        "v_set_index",
        lambda lat, i: real(lat, i)[1:] if lat is lattice and i == a1 else real(lat, i),
    )
    assert "v-d-complement" in _failed(verify._suite_spectrum, alg)


def test_v_d_complement_catches_a_wrong_v_set_everywhere(monkeypatch, alg):
    """V(a1) read one prime short by every reader of ``v_set_index``: D is
    read off the order by ``open_table``, not as the complement of V, so
    the two no longer agree."""
    spectrum_module = importlib.import_module("congruence_lab.spectrum")  # not the function
    lattice = con_lattice(alg)
    _, _, a1, _, _ = _elements(alg)
    real = spectrum_module.v_set_index

    def planted(lat, i):
        return real(lat, i)[1:] if lat is lattice and i == a1 else real(lat, i)

    monkeypatch.setattr(spectrum_module, "v_set_index", planted)
    monkeypatch.setattr(verify, "v_set_index", planted)
    assert _failed(verify._suite_spectrum, alg) == {"v-d-complement"}


def test_topology_checks_catch_one_wrong_d_bit(monkeypatch, alg):
    """One bit of the stored D(a1) flipped: the identities of the opens
    and the complement of V(a1) both read it."""
    _, _, a1, _, _ = _elements(alg)
    store = con_lattice(alg)._caches["congruence_lab.spectrum.open_table"]
    d_bits, traces = store[()]
    planted = list(d_bits)
    planted[a1] ^= 1
    monkeypatch.setitem(store, (), (tuple(planted), traces))
    failed = _failed(verify._suite_spectrum, alg)
    assert {"spectral-topology-identities", "v-d-complement"} <= failed


def test_witness_conditions_catch_two_swapped_traces(monkeypatch, alg):
    """The stored traces Max(A) n D of two atoms swapped: the set of traces
    is unchanged, so the enumerated and witnessed clopens still agree, but
    clopens_of_max now picks each atom as the witness of the other's clopen,
    and the trace read off the order tells them apart."""
    _, _, a1, a2, _ = _elements(alg)
    store = con_lattice(alg)._caches["congruence_lab.spectrum.open_table"]
    d_bits, traces = store[()]
    planted = list(traces)
    planted[a1], planted[a2] = traces[a2], traces[a1]
    monkeypatch.setitem(store, (), (d_bits, tuple(planted)))
    assert _failed(verify._suite_spectrum, alg) == {"clopen-witness-conditions"}


def test_lambda_and_star_catch_one_lambda_value(monkeypatch, alg):
    # lambda(a1) read as the top by every module that reads the stored
    # reticulation; the costar table stays the one built from the real
    # lambda.  check_spec_homeomorphism reads the stored lambda too.
    _, _, a1, _, _ = _elements(alg)
    radicals, rl, lam = reticulation_index(con_lattice(alg))
    planted = list(lam)
    planted[a1] = rl.top_index
    _plant_stored(monkeypatch, alg, reticulation_index, (radicals, rl, tuple(planted)))
    failed = _failed(verify._suite_reticulation, alg)
    assert {"lambda-clause-suite", "star-identity-suite", "costar-identity-suite"} <= failed
    assert "spec-homeomorphism" in failed
    assert {"lambda-boolean-embedding", "center-preservation-equivalences"} <= _failed(
        verify._suite_boolean_center, alg
    )


@pytest.mark.parametrize("source", [chain_lattice(5), ring_zn(12)], ids=lambda alg: alg.name)
def test_costar_checks_catch_one_costar_entry(monkeypatch, source):
    """(g]_* read wrong for one g: the costar identities fail, and the
    homeomorphism check fails exactly when (g] is a prime ideal, the only
    ideals whose costar it reads."""
    alg = fresh_copy(source)
    assert verify.verify_algebra(alg).ok
    lattice = con_lattice(alg)
    down, primes = costar_table(lattice), prime_ideal_index(lattice)
    for g, d in enumerate(down):
        planted = list(down)
        planted[g] = lattice.top_index if d != lattice.top_index else lattice.bottom_index
        with monkeypatch.context() as patch:
            _plant_stored(patch, alg, costar_table, tuple(planted))
            failed = _failed(verify._suite_reticulation, alg)
        assert "costar-identity-suite" in failed
        assert ("spec-homeomorphism" in failed) == (g in primes)


def test_prime_checks_catch_a_dropped_prime_ideal(monkeypatch, alg):
    dropped = prime_ideal_index(con_lattice(alg))[1:]
    _plant_stored(monkeypatch, alg, prime_ideal_index, dropped)
    assert _failed(verify._suite_reticulation, alg) == {"prime-counts-match", "spec-homeomorphism"}


def test_center_meet_catches_one_commutator(monkeypatch, alg):
    _, _, a1, a2, _ = _elements(alg)
    _plant_commutator(monkeypatch, alg, a1, a2, a1)
    assert "center-meet-is-commutator" in _failed(verify._suite_boolean_center, alg)


def test_center_distributivity_catches_one_meet(monkeypatch, alg):
    # (a1 v a2) ^ (a1 v a3) read as the bottom instead of a1
    lattice = con_lattice(alg)
    bottom, _, a1, a2, a3 = _elements(alg)
    p, q = lattice.join_index(a1, a2), lattice.join_index(a1, a3)
    _plant_cell(monkeypatch, alg, "meet_table", p, q, bottom)
    assert "center-join-distributes" in _failed(verify._suite_boolean_center, alg)


def _plant_verdict(monkeypatch, alg, t: int) -> None:
    """verify reads the CBLP verdict of congruence t of Con(alg) flipped."""
    lattice = con_lattice(alg)
    real = verify.cblp_index

    def planted(lat, i):
        cblp, *rest = real(lat, i)
        return (not cblp, *rest) if lat is lattice and i == t else (cblp, *rest)

    monkeypatch.setattr(verify, "cblp_index", planted)


def _plant_row(monkeypatch, alg, t: int, a: int, value: int) -> None:
    """verify reads the cell of complemented congruence a in the center-map
    row of congruence t of Con(alg) as value."""
    lattice = con_lattice(alg)
    real = verify.center_map_index
    cell = verify.center_index(lattice, lattice.bottom_index)[0].index(a)

    def planted(lat, i):
        row = real(lat, i)
        if lat is lattice and i == t:
            assert row[cell] != value
            return row[:cell] + (value,) + row[cell + 1 :]
        return row

    monkeypatch.setattr(verify, "center_map_index", planted)


def test_lifting_suite_catches_one_center_map_cell(monkeypatch, alg):
    # at Delta the image of a1 read as theta = Delta, the bottom of the
    # interval: a1 no longer projects onto its target, its image differs
    # from the congruence that its projected pairs generate in the
    # quotient, and the image of a1 joined with that of its complement is
    # no longer the top
    bottom, _, a1, _, _ = _elements(alg)
    _plant_row(monkeypatch, alg, bottom, a1, bottom)
    assert _failed(verify._suite_lifting, alg) == {
        "cblp-decided-everywhere",
        "projection-center-morphism",
    }


def _z8():
    """A fresh Z_8, verified: Con(Z_8) is the chain 0 < (4) < (2) < Z_8, so
    the bottom lies strictly below its radical (2) with the same maximal
    congruence above both, and every quotient has a trivial center."""
    alg = fresh_copy(ring_zn(8))
    assert verify.verify_algebra(alg).ok
    return alg


@pytest.mark.parametrize(
    "check, planted_at",
    [
        # the flipped verdict no longer matches its witnesses
        ("cblp-decided-everywhere", "a1"),
        ("cblp-decided-everywhere", "z8-bottom"),
        # Z_8: bottom is not radical, so its verdict differs from rho's
        ("radical-invariance", "z8-bottom"),
        # C_5: reticulation ideal lambda(a1) still lifts
        ("star-transfer", "a1"),
        ("ideal-transfer", "a1"),
        # Z_8: bottom <= (2), same maximal above, (2) still lifts
        ("max-interval-transfer", "z8-bottom"),
        # C_5: bottom lifts, a1 is regular, bottom v a1 = a1
        ("regular-join-transfer", "a1"),
        ("regular-congruences-lift", "a1"),
        # Z_8: (4) lifts, bottom is not coprime to it and A/bottom has a
        # trivial center, (4) ^ bottom = bottom
        ("noncoprime-meet-transfer", "z8-bottom"),
    ],
)
def test_transfer_checks_catch_one_flipped_verdict(monkeypatch, alg, check, planted_at):
    if planted_at == "z8-bottom":
        alg = _z8()
        t = con_lattice(alg).bottom_index
    else:
        t = _elements(alg)[2]
    _plant_verdict(monkeypatch, alg, t)
    assert check in _failed(verify._suite_lifting, alg)


def test_star_and_ideal_transfer_catch_one_flipped_id_blp(monkeypatch, alg):
    # the ideal (lambda(a1)] of the reticulation read as not lifting: both
    # transfers read the one Id-BLP verdict of that ideal
    _, rl, lam = reticulation_index(con_lattice(alg))
    g = lam[_elements(alg)[2]]
    real = verify.has_id_blp

    def planted(lattice, ideal):
        report = real(lattice, ideal)
        if lattice is rl and ideal.generator == g:
            return replace(report, lifts=not report.lifts)
        return report

    monkeypatch.setattr(verify, "has_id_blp", planted)
    failed = _failed(verify._suite_lifting, alg)
    assert {"star-transfer", "ideal-transfer"} <= failed
    assert "radical-invariance" not in failed


def test_orthogonal_lifts_catch_one_commutator(monkeypatch, alg):
    # [a1, a2] read as a1 by the lifting module: the atoms a1 and a2 of the
    # quotient center at Delta lift to themselves, now not orthogonal
    _, _, a1, a2, _ = _elements(alg)
    _plant_commutator(monkeypatch, alg, a1, a2, a1, module=lifting)
    assert _failed(verify._suite_orthogonal, alg) == {"orthogonal-lift-orthogonal"}


def test_maximals_are_prime_catches_a_dropped_prime(tmp_path, monkeypatch, capsys):
    """The first prime dropped from every primality test, on a fresh copy of
    corpus/z_6.json: a maximal congruence is then not prime, which verify
    reports as a failed check (exit 1), not as an input error."""
    from congruence_lab.algebra import dump_algebra, load_algebra
    from congruence_lab.cli import EXIT_FALSIFIED, main

    path = tmp_path / "z_6.json"
    corpus = Path(__file__).resolve().parent.parent / "corpus" / "z_6.json"
    path.write_text(dump_algebra(fresh_copy(load_algebra(corpus.read_text(encoding="utf-8")))))
    spectrum_module = importlib.import_module("congruence_lab.spectrum")  # not the function
    real = spectrum_module._prime_indices
    monkeypatch.setattr(
        spectrum_module, "_prime_indices", lambda lattice, all_pairs: real(lattice, all_pairs)[1:]
    )
    assert main(["verify", str(path)]) == EXIT_FALSIFIED
    lines = capsys.readouterr().out.splitlines()
    assert any(line.split()[:2] == ["FAIL", "spectrum.maximals-are-prime"] for line in lines)


def test_clopen_completeness_catches_a_missing_clopen(monkeypatch, alg):
    # the one stored open family of Max(A) loses {m_0}, the bitset 1, so
    # every reader of it loses the clopens {m_0} and {m_1, m_2, m_3}: the
    # witnessed clopens are then exactly the enumerated ones, but the trace
    # of some witness pair is not among them, and B(Con(A)) no longer maps
    # onto them
    spectrum_module = importlib.import_module("congruence_lab.spectrum")  # not the function
    store = con_lattice(alg)._caches["congruence_lab.spectrum._max_open_family"]
    monkeypatch.setitem(store, (), store[()] - {1})
    assert _failed(verify._suite_spectrum, alg) == {"clopen-witness-completeness"}
    assert len(spectrum_module.clopens_of_max(alg)) == 14
    assert _failed(verify._suite_lifting, alg) == {"rad-clopen-criterion"}


# ---------------------------------------------------------------------------
# the checks that quantify over generators: each plant goes through a value
# that the generator route reads


def test_center_distributivity_catches_one_join_of_an_atom(monkeypatch, alg):
    # a2 v a1 read as the top in a1's column of the join table, which the
    # law at the generator a1 reads for every t
    _, top, a1, a2, _ = _elements(alg)
    _plant_cell(monkeypatch, alg, "join_table", a2, a1, top)
    assert "center-join-distributes" in _failed(verify._suite_boolean_center, alg)


def test_monotonicity_catches_one_cover_row(monkeypatch, alg):
    # [a1 v a2, a1] read as the bottom: below the meet, but below [a1, a1]
    # along the cover a1 < a1 v a2
    bottom, _, a1, a2, _ = _elements(alg)
    _plant_commutator(monkeypatch, alg, con_lattice(alg).join_index(a1, a2), a1, bottom)
    failed = _failed(verify._suite_commutator_axioms, alg)
    assert {"commutator-monotone", "residuation-adjunction"} <= failed
    assert "commutator-below-meet" not in failed


def test_adjunction_catches_one_missing_lower_cover(monkeypatch, alg):
    # the coatom a1 v a2 v a3 dropped from the lower covers of the top: the
    # congruences [a, nabla] = a below that coatom alone leave below[top]
    lattice = con_lattice(alg)
    _, top, a1, a2, a3 = _elements(alg)
    coatom = lattice.join_many((a1, a2, a3))
    planted = replace(lattice)
    lower = list(planted.lower_covers)
    lower[top] = tuple(c for c in lower[top] if c != coatom)
    planted.__dict__["lower_covers"] = tuple(lower)
    real = verify.con_lattice
    monkeypatch.setattr(
        verify, "con_lattice", lambda a, cap=None: planted if a is alg else real(a, cap)
    )
    assert _failed(verify._suite_commutator_axioms, alg) == {"residuation-adjunction"}


@pytest.mark.parametrize("member", ["atom", "join of atoms"])
def test_center_map_cross_check_catches_one_projected_cell(alg, member):
    """One wrong cell of theta's projection, at a1 v theta or at
    a1 v a2 v theta, on a verified C_5: projection-center-morphism, which
    holds the quotient side of the center map, maps the row and the
    interval center through the projection and fails.  The library's
    center map reads no projection and is unchanged."""
    from congruence_lab.congruences import projection

    lattice = con_lattice(alg)
    t = lattice.bottom_index
    a1, a2 = lattice.atoms()[:2]
    a = a1 if member == "atom" else lattice.join_index(a1, a2)
    row = lifting.center_map_index(lattice, t)
    real = projection(lattice, t)
    down = list(real.down)
    j = lattice.join_index(a, t)
    down[j] = real.lattice.top_index
    lattice._caches["congruence_lab.congruences.projection"][(t,)] = replace(
        real, down=tuple(down)
    )
    assert "projection-center-morphism" in _failed(verify._suite_lifting, alg)
    assert lifting.center_map_index(lattice, t) == row


def test_characterization_catches_one_center_pair(monkeypatch):
    """The center pair (a1, a1') dropped from the bits that clauses (2) and
    (3) read, on a C_5 with nothing stored: (a1, a1') is a coprime pair with
    [a1, a1'] = Delta that only that center pair separates, so at theta =
    Delta the clauses fail while CBLP holds."""
    alg = fresh_copy(chain_lattice(5))
    lattice = con_lattice(alg)
    a1 = lattice.atoms()[0]
    real = lifting._center_pair_bits
    k = lifting.center_index(lattice, lattice.bottom_index)[0].index(a1)

    def planted(lat):
        below_a, below_na = real(lat)
        if lat is lattice:
            below_a = [bits & ~(1 << k) for bits in below_a]
        return below_a, below_na

    monkeypatch.setattr(lifting, "_center_pair_bits", planted)
    assert _failed(verify._suite_lifting, alg) == {"characterization-four-way"}


def test_id_blp_catches_one_center_entry(monkeypatch, alg):
    # lambda(a1) dropped from the center held by the reticulation that
    # has_id_blp reads: at the ideal (lambda(Delta)] the class of lambda(a1)
    # has no lift
    _, rl, lam = reticulation_index(con_lattice(alg))
    dropped = lam[_elements(alg)[2]]
    center = tuple(x for x in rl.center if x != dropped)
    monkeypatch.setattr(rl, "center", center)
    failed = _failed(verify._suite_lifting, alg)
    assert {"star-transfer", "ideal-transfer"} <= failed


def test_clopen_completeness_reports_a_clopen_without_a_witness(monkeypatch, alg):
    """The stored commutator [a, a'] read as a, for a an atom of B and a'
    its complement: the pair (a, a') was the only witness of the clopen
    Max(A) n D(a).  The check reports it, and clopens_of_max, which raises
    on that fault, is not called, so the rest of the suite still reports."""
    lattice = con_lattice(alg)
    _, complement, atoms = verify.center_index(lattice, lattice.bottom_index)
    a = atoms[0]
    memo = [list(row) for row in lattice._caches["commutator"]]
    memo[a][complement[a]] = a
    monkeypatch.setitem(lattice._caches, "commutator", tuple(map(tuple, memo)))
    assert _failed(verify._suite_spectrum, alg) == {
        "clopen-witness-completeness",
        "spectral-topology-identities",
    }


# ---------------------------------------------------------------------------
# each fact stated by one check: a plant in what the check reads fails it,
# and a check that no longer repeats the comparison passes


def _z12():
    """A fresh Z_12, verified: L(A) is the four-element Boolean lattice on
    the radicals (6), (2), (3) and Z_12, a lattice of its own, and lambda
    maps B(Con(A)) = {0, (4), (3), Z_12} onto it."""
    alg = fresh_copy(ring_zn(12))
    assert verify.verify_algebra(alg).ok
    return alg


def _center_atoms(lattice):
    """The two atoms of B(Con(Z_12)), the congruences mod 4 and mod 3."""
    atoms = verify.center_index(lattice, lattice.bottom_index)[2]
    assert len(atoms) == 2
    return atoms


@pytest.mark.parametrize("table", ["join_table", "meet_table"])
def test_lambda_clauses_alone_catch_one_cell_of_the_reticulation(monkeypatch, table):
    """One join or meet cell of the stored L(A) read as the first of its
    two arguments, the images of the atoms of B: lambda-clause-suite
    compares it with Con(A)'s tables and fails.  spec-homeomorphism reads
    L(A)'s order only and passes."""
    alg = _z12()
    lattice = con_lattice(alg)
    radicals, rl, lam = reticulation_index(lattice)
    gx, gy = (lam[a] for a in _center_atoms(lattice))
    rows = [list(row) for row in getattr(rl, table)]
    assert rows[gx][gy] != gx
    rows[gx][gy] = gx
    planted = replace(rl, **{table: tuple(map(tuple, rows))})
    _plant_stored(monkeypatch, alg, reticulation_index, (radicals, planted, lam))
    failed = _failed(verify._suite_reticulation, alg)
    assert "lambda-clause-suite" in failed
    assert "spec-homeomorphism" not in failed


def test_lambda_clauses_alone_catch_one_join_of_the_center(monkeypatch):
    """The join of the two atoms of B read as the first, still a member of
    B: lambda-clause-suite fails, and lambda-boolean-embedding, which reads
    membership and injectivity only, passes."""
    alg = _z12()
    lattice = con_lattice(alg)
    a, b = _center_atoms(lattice)
    _plant_cell(monkeypatch, alg, "join_table", a, b, a)
    assert "lambda-clause-suite" in _failed(verify._suite_reticulation, alg)
    assert "lambda-boolean-embedding" not in _failed(verify._suite_boolean_center, alg)


def test_lift_uniqueness_alone_catches_a_non_injective_rad_center_map(monkeypatch):
    """The stored center-map row at Rad(A) = (6) with the image of an atom
    of B read as Rad itself, the image of the bottom: orthogonal-lift-unique
    fails at theta = Rad, and rad-clopen-criterion passes."""
    alg = _z12()
    lattice = con_lattice(alg)
    rad = verify.spectrum_index(lattice, False)[2]
    store = lattice._caches["congruence_lab.lifting.center_map_index"]
    row = list(store[(rad,)])
    members = verify.center_index(lattice, lattice.bottom_index)[0]
    k = members.index(_center_atoms(lattice)[0])
    assert row[k] != rad
    row[k] = rad
    monkeypatch.setitem(store, (rad,), tuple(row))
    assert "orthogonal-lift-unique" in _failed(verify._suite_orthogonal, alg)
    assert "rad-clopen-criterion" not in _failed(verify._suite_lifting, alg)


def test_upper_triangular_ring_fails_the_lifting_transfers():
    """T_2(F_2) passes the hypothesis surrogates but lambda does not carry
    its Boolean center onto L(A)'s: verify fails exactly these six lifting
    checks on it."""
    from test_scan_oracles import upper_triangular_f2

    failed = {check.name for check in verify.verify_algebra(upper_triangular_f2()).failures()}
    assert failed == {
        "lifting.radical-invariance",
        "lifting.star-transfer",
        "lifting.ideal-transfer",
        "lifting.equal-radicals-equal-verdicts",
        "lifting.below-nilradical-lifts",
        "lifting.diamond-star-commute",
    }

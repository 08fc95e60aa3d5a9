"""Planted faults: each table-row check of ``verify`` reports failed, by name,
when one cell it reads is wrong.

Every check passes on every corpus input, so the pinned JSON alone cannot
tell a working check from one that has become always-true.  Each test plants
one wrong cell (a commutator value, a residuum, a radical, a lambda value,
a join or meet cell of Con(A), or a stored principal congruence) in what
one suite reads, runs that suite on a fresh copy of C_5 and asserts that
the named check fails.  Con(C_5) is the 16-element Boolean lattice: every
congruence is central and radical, and the commutator is the meet.
"""

import importlib

import pytest

from congruence_lab import verify
from congruence_lab.builders import chain_lattice, ring_zn
from congruence_lab.congruences import con_lattice
from congruence_lab.reticulation import build_reticulation

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


def _plant_lattice(monkeypatch, alg, **fields) -> None:
    """verify reads Con(alg) with the given fields replaced."""
    planted = replace(con_lattice(alg), **fields)
    real = verify.con_lattice
    monkeypatch.setattr(
        verify, "con_lattice", lambda a, cap=None: planted if a is alg else real(a, cap)
    )


def _plant_commutator(monkeypatch, alg, i: int, j: int, value: int, both: bool = True) -> None:
    """verify reads [i, j] = value in the commutator table of Con(alg), and
    [j, i] = value too unless ``both`` is false."""
    lattice = con_lattice(alg)
    rows = [list(row) for row in verify.commutator_table(lattice)]
    assert rows[i][j] != value
    rows[i][j] = value
    if both:
        rows[j][i] = value
    planted = tuple(map(tuple, rows))
    real = verify.commutator_table
    monkeypatch.setattr(
        verify, "commutator_table", lambda lat: planted if lat is lattice else real(lat)
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


def test_radical_of_an_atom(monkeypatch, alg):
    lattice = con_lattice(alg)
    _, top, a1, _, _ = _elements(alg)
    real = verify.radical_index
    monkeypatch.setattr(
        verify,
        "radical_index",
        lambda lat, i: top if lat is lattice and i == a1 else real(lat, i),
    )
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
    lattice = con_lattice(alg)
    bottom, top, a1, a2, a3 = _elements(alg)
    real = verify.radical_index
    monkeypatch.setattr(
        verify,
        "radical_index",
        lambda lat, i: (i if i in (bottom, a1, a2, a3) else top)
        if lat is lattice
        else real(lat, i),
    )
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


def test_lambda_and_star_catch_one_lambda_value(monkeypatch, alg):
    _, _, a1, _, _ = _elements(alg)
    retic = build_reticulation(alg)
    lam = list(retic._lambda_by_con)
    lam[a1] = retic.lattice.top_index
    planted = replace(retic, _lambda_by_con=tuple(lam))
    real = verify.build_reticulation
    monkeypatch.setattr(
        verify, "build_reticulation", lambda a: planted if a is alg else real(a)
    )
    failed = _failed(verify._suite_reticulation, alg)
    assert {"lambda-clause-suite", "star-identity-suite", "costar-identity-suite"} <= failed


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
    retic = build_reticulation(alg)
    g = retic._lambda_by_con[_elements(alg)[2]]
    real = verify.has_id_blp

    def planted(lattice, ideal):
        report = real(lattice, ideal)
        if lattice is retic.lattice and ideal.generator == g:
            return replace(report, lifts=not report.lifts)
        return report

    monkeypatch.setattr(verify, "has_id_blp", planted)
    failed = _failed(verify._suite_lifting, alg)
    assert {"star-transfer", "ideal-transfer"} <= failed
    assert "radical-invariance" not in failed


def test_clopen_completeness_catches_a_missing_clopen(monkeypatch, alg):
    # the direct enumeration of Clop(Max(A)) loses {m_0}: the witnessed
    # clopens are then exactly the enumerated ones, but the trace of some
    # witness pair is not among them
    spectrum_module = importlib.import_module("congruence_lab.spectrum")  # not the function
    real = spectrum_module.brute_force_clopens

    def planted(a):
        clopens = real(a)
        return [u for u in clopens if u != (0,)] if a is alg else clopens

    monkeypatch.setattr(spectrum_module, "brute_force_clopens", planted)
    monkeypatch.setattr(verify, "brute_force_clopens", planted)
    assert _failed(verify._suite_spectrum, alg) == {"clopen-witness-completeness"}

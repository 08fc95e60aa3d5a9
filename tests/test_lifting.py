"""Boolean centers, CBLP, the characterization theorem and orthogonal lifts."""

import json

import pytest

from congruence_lab import (
    HypothesisNotMet,
    NoCBLP,
    NotOrthogonal,
    Falsified,
    ParentMismatch,
    boolean_center_of_congruences,
    cblp_characterization,
    con_lattice,
    congruence_from_blocks,
    congruence_from_pairs,
    delta,
    diamond,
    has_cblp,
    has_id_blp,
    hyperarchimedean_cblp,
    is_b_normal,
    lift_orthogonal,
    nabla,
    orthogonal_uniqueness_and_atoms,
    preserves_boolean_center,
    projection_image,
    quotient,
    quotient_cblp_descent,
    rad_cblp_criterion,
    spectrum,
    surrogate_checks,
)
from congruence_lab.algebra import FiniteAlgebra, load_algebra, product
from congruence_lab.builders import (
    boolean_lattice,
    chain_lattice,
    kite,
    mv_chain,
    pentagon,
    ring_zn,
)
from congruence_lab import lifting
from congruence_lab.congruences import projection, quotient_edge
from congruence_lab.lattices import LatticeIdeal, center_index, lattice_from_leq, principal_ideal
from congruence_lab.lifting import (
    cblp_index,
    diamond_index,
    ring_idempotent_lifting,
    ring_idempotents,
)
from congruence_lab.reticulation import reticulation_index
from congruence_lab.spectrum import radical_table
from congruence_lab.verify import _suite_lifting

from conftest import fresh_copy, replace, theta
from test_scan_oracles import CORPUS_FILES, LADDER


def kite_as_lattice():
    k = kite()
    meet = k.operation("meet")
    return lattice_from_leq(
        [[meet.apply(5, (a, b)) == a for b in range(5)] for a in range(5)]
    )


# ---------------------------------------------------------------------------
# Boolean centers


def test_center_of_z12(z12):
    center = boolean_center_of_congruences(z12)
    assert {c.blocks for c in center.elements} == {
        delta(z12).blocks,
        theta(z12, 3).blocks,
        theta(z12, 4).blocks,
        nabla(z12).blocks,
    }
    assert {a.blocks for a in center.atoms} == {
        theta(z12, 3).blocks,
        theta(z12, 4).blocks,
    }
    assert center.complement[theta(z12, 3).blocks] == theta(z12, 4)
    assert center.complement[delta(z12).blocks] == nabla(z12)
    # matches the idempotent count of the ring
    assert len(center.elements) == len(ring_idempotents(12)) == 4


def test_center_of_z4_and_simple(z4):
    assert {c.blocks for c in boolean_center_of_congruences(z4).elements} == {
        delta(z4).blocks,
        nabla(z4).blocks,
    }
    z2 = ring_zn(2)
    assert len(boolean_center_of_congruences(z2).elements) == 2


def test_center_of_pentagon():
    n5 = pentagon()
    center = boolean_center_of_congruences(n5)
    assert {c.blocks for c in center.elements} == {
        delta(n5).blocks,
        nabla(n5).blocks,
    }


# ---------------------------------------------------------------------------
# projections


def test_projection_image_examples(z12):
    t6 = theta(z12, 6)
    quo = quotient(z12, t6)
    image = projection_image(z12, t6, theta(z12, 4))
    assert image.blocks == theta(quo, 2).blocks  # theta_4 v theta_6 = theta_2
    assert projection_image(z12, t6, nabla(z12)) == nabla(quo)
    assert projection_image(z12, t6, t6) == delta(quo)


# the algebras whose stored per-congruence results are checked below
STORED_ALGEBRAS = [chain_lattice(5), boolean_lattice(3), pentagon(), ring_zn(12)]


def test_section_inverts_projection():
    """chi -> chi/theta and its section, the maps ``down`` and ``up`` of
    ``projection``, are inverse bijections between [theta) and
    Con(A/theta), for every theta; ``down`` is None off [theta)."""
    for alg in STORED_ALGEBRAS:
        lattice = con_lattice(alg)
        for t, th in enumerate(lattice.congruences):
            p = projection(lattice, t)
            qlattice = con_lattice(quotient(alg, th))
            assert len(p.lattice) == len(qlattice)
            above = [chi for chi in lattice.congruences if th.leq(chi)]
            assert len(above) == len(qlattice)
            for c, chi in enumerate(lattice.congruences):
                if chi not in above:
                    assert p.down[c] is None
                    continue
                assert p.up[p.down[c]] == c
            for k in range(len(qlattice)):
                assert p.down[p.up[k]] == k


@pytest.mark.parametrize(
    "alg",
    [load_algebra(path.read_text(encoding="utf-8")) for path in CORPUS_FILES]
    + LADDER
    + [chain_lattice(10)],
    ids=lambda alg: alg.name,
)
def test_correspondence_keeps_the_index_order(alg):
    """chi -> chi/theta is increasing from [theta, nabla] onto Con(A/theta),
    both in block-array order, at every theta: two block arrays above theta
    first differ at a least representative of a theta-block.  So the
    members of B([theta, nabla]) come in the order of B(Con(A/theta)), and
    the witnesses of a LiftingReport in the order that Con(A/theta) gives."""
    lattice = con_lattice(alg)
    for t in range(len(lattice)):
        up = projection(lattice, t).up
        assert list(up) == sorted(up)


def _c3_to_the_4():
    c3 = chain_lattice(3)
    return product(product(product(c3, c3), c3), c3)


@pytest.mark.parametrize(
    "build", [lambda: ring_zn(30), lambda: chain_lattice(9), _c3_to_the_4],
    ids=["Z_30", "C_9", "C_3^4"],
)
def test_has_cblp_enumerates_no_quotient_lattice(monkeypatch, set_cap, build):
    """has_cblp at every theta, once Con(A) and the surrogates are built,
    reads the interval [theta, nabla] and enumerates no Con(A/theta):
    all_congruences is not called.  (Building each Con(A/theta) made 7
    calls on Z_30, 8 on C_9 and 30 on C_3^4.)  C_3^4 has 81 elements, and
    the matrix bound of its top congruence, 6,561 related pairs squared, is
    over the default MATRIX_CAP of 10**6, so the cap is raised for it."""
    from congruence_lab import congruences
    from congruence_lab.commutator import MATRIX_CAP

    set_cap(MATRIX_CAP, 10**8)
    alg = fresh_copy(build())
    lattice = con_lattice(alg)
    assert surrogate_checks(alg).ok
    calls = []
    real = congruences.all_congruences
    monkeypatch.setattr(
        congruences, "all_congruences", lambda a, cap=None: calls.append(a) or real(a, cap)
    )
    assert all(has_cblp(alg, th).cblp for th in lattice.congruences)
    assert calls == []


def test_projection_outside_the_quotient_lattice_is_falsified(monkeypatch):
    """A projected congruence missing from Con(A/theta), or a congruence of
    A/theta that nothing projects to, contradicts the correspondence
    theorem: Falsified, not an input error, and nothing is stored."""
    alg = fresh_copy(ring_zn(12))
    lattice = con_lattice(alg)
    t6, t2 = lattice.index(theta(alg, 6)), lattice.index(theta(alg, 2))
    store = lattice._caches.setdefault("congruence_lab.congruences._quotient_algebra", {})
    for stand_in, message in (
        # Con(C_6) holds the interval partitions only, so theta_2/theta_6 misses
        (chain_lattice(6), "is not a congruence of the quotient"),
        # every partition of a set without operations is a congruence
        (FiniteAlgebra("6-set", 6, ()), "larger than the interval"),
    ):
        monkeypatch.setitem(store, (t6,), stand_in)
        with pytest.raises(Falsified, match=message):
            projection(lattice, t6)
    monkeypatch.undo()
    p = projection(lattice, t6)
    assert p.lattice.congruences[p.down[t2]].blocks == (0, 1, 0, 1, 0, 1)


def test_projection_image_routes_check_each_other():
    """The generated image reads neither ``down`` nor ``up``, and the
    projected join reads no principal congruence of A/theta, so one wrong
    cell of either fails projection-center-morphism, the check that holds
    the quotient side of the center map.  On the chain C_5, theta = Cg(3, 4)
    and alpha = Cg(0, 1) = 01|2|3|4, an atom of B(A) whose one projected
    pair is (1, 0).  The plant keeps every stored result, so only the
    projection reads it."""
    from congruence_lab.congruences import principal_congruence

    for planted in ("down", "principals"):
        alg = fresh_copy(chain_lattice(5))
        assert _suite_passes(alg)
        lattice = con_lattice(alg)
        t = lattice.index(principal_congruence(alg, 3, 4))
        a = lattice.index(principal_congruence(alg, 0, 1))
        real = projection(lattice, t)
        qlattice = real.lattice
        if planted == "down":
            down = list(real.down)
            j = lattice.join_index(a, t)
            down[j] = (down[j] + 1) % len(qlattice)
            wrong = replace(real, down=tuple(down))
        else:
            principals = list(qlattice.principals)
            principals[1 * real.quotient.size + 0] = qlattice.top_index
            wrong = replace(real, lattice=replace(qlattice, principals=tuple(principals)))
        lattice._caches["congruence_lab.congruences.projection"][(t,)] = wrong
        assert not _suite_passes(alg, "projection-center-morphism")


def _suite_passes(alg, name=None) -> bool:
    """Whether the lifting suite passes on alg: every check, or the one
    named."""
    verdicts = {check.name: check.passed for check in _suite_lifting(alg)}
    return all(verdicts.values()) if name is None else verdicts[name]


# ---------------------------------------------------------------------------
# CBLP


def test_cblp_on_z12_everywhere(z12):
    for c in con_lattice(z12).congruences:
        report = has_cblp(z12, c)
        assert report.cblp
        assert report.counterexample is None
        assert len(report.witnesses) == len(
            boolean_center_of_congruences(quotient(z12, c)).elements
        )


def test_cblp_trivial_cases(z6):
    assert has_cblp(z6, nabla(z6)).cblp  # one-element quotient
    assert has_cblp(z6, delta(z6)).cblp  # identity lifting


def test_cblp_fails_on_pentagon_radical():
    """The pentagon is a genuine desk-scale CBLP failure: its radical's
    quotient is the Boolean square, whose four complemented congruences
    cannot all be reached from B(Con(N5)) = {bottom, top}."""
    n5 = pentagon()
    rad = spectrum(n5).rad
    report = has_cblp(n5, rad)
    assert not report.cblp
    assert report.counterexample is not None
    quo = quotient(n5, rad)
    assert len(con_lattice(quo)) == 4  # the 2x2 lattice
    assert len(boolean_center_of_congruences(quo).elements) == 4


def test_lifting_report_json(z12):
    report = cblp_characterization(z12, theta(z12, 6))
    doc = json.loads(report.to_json())
    assert set(doc) == {"theta", "cblp", "witnesses", "thm63", "regular", "diamond"}
    assert doc["theta"] == [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]
    assert doc["cblp"] is True
    assert doc["thm63"] == {"c1": True, "c2": True, "c3": True, "c4": True}
    assert doc["regular"] is False
    assert doc["diamond"] == list(delta(z12).blocks)


def _filled_commutator_cells(lattice) -> int:
    return sum(len(row) - row.count(None) for row in lattice._caches["commutator"])


@pytest.mark.parametrize(
    "alg",
    [chain_lattice(9), ring_zn(30), boolean_lattice(4), product(ring_zn(2), ring_zn(9))],
    ids=lambda alg: alg.name,
)
def test_cblp_and_center_fill_no_commutator_cell(alg):
    """B([theta, nabla]) is read off the lattice alone: after the surrogate
    gate, has_cblp at every theta and then B(Con(A)) fill no cell of the
    commutator memo."""
    alg = fresh_copy(alg)
    assert surrogate_checks(alg).ok
    lattice = con_lattice(alg)
    filled = _filled_commutator_cells(lattice)
    for th in lattice.congruences:
        has_cblp(alg, th)
    boolean_center_of_congruences(alg)
    assert _filled_commutator_cells(lattice) == filled


# ---------------------------------------------------------------------------
# Id-BLP


def test_id_blp_negative_kite():
    lat = kite_as_lattice()
    report = has_id_blp(lat, principal_ideal(lat, 1))
    assert not report.lifts
    assert report.counterexample is not None  # an unliftable quotient class


def test_id_blp_trivial_ideal():
    lat = kite_as_lattice()
    report = has_id_blp(lat, principal_ideal(lat, lat.bottom_index))
    assert report.lifts


def test_id_blp_boolean_cube_everywhere():
    lat = lattice_from_leq([[a & b == a for b in range(8)] for a in range(8)])
    for x in range(lat.size):
        assert has_id_blp(lat, principal_ideal(lat, x)).lifts


def test_id_blp_refuses_an_ideal_of_another_lattice():
    """The center and the tables come from one lattice: the 4-chain with
    the ideal (1] of the Boolean square, also of four elements, is refused,
    not reported as a mix of the two."""
    chain = lattice_from_leq([[a <= b for b in range(4)] for a in range(4)])
    square = lattice_from_leq([[a & b == a for b in range(4)] for a in range(4)])
    with pytest.raises(ParentMismatch, match="not an ideal of the given lattice"):
        has_id_blp(chain, principal_ideal(square, 1))
    assert has_id_blp(square, principal_ideal(square, 1)).witnesses == ((0, 0), (1, 2))


# ---------------------------------------------------------------------------
# transfer results


# The transfer results live in verify's lifting suite, which checks them
# over lists of cblp_index verdicts; these tests state them on the index
# cores one congruence or pair at a time.


def _verdicts(lattice) -> list[bool]:
    return [cblp_index(lattice, t)[0] for t in range(len(lattice))]


def test_star_transfer(z12, z4):
    """theta has CBLP iff the ideal theta* = (lambda(theta)] of the
    reticulation has Id-BLP."""
    for alg in (z12, z4, pentagon()):
        lattice = con_lattice(alg)
        _, rl, lam = reticulation_index(lattice)
        for t, verdict in enumerate(_verdicts(lattice)):
            assert verdict == has_id_blp(rl, LatticeIdeal(rl, lam[t])).lifts


def test_radical_invariance(z12, z4):
    for alg in (z12, z4, pentagon()):
        lattice = con_lattice(alg)
        verdicts = _verdicts(lattice)
        for t, verdict in enumerate(verdicts):
            assert verdict == verdicts[radical_table(lattice)[t]]


def test_max_interval_transfer_z4(z4):
    """theta <= chi with the same maximal congruences above both: chi CBLP
    implies theta CBLP.  (nabla, Delta) is outside the hypothesis."""
    rad = spectrum(z4).rad
    assert rad == theta(z4, 2)
    lattice = con_lattice(z4)
    verdicts = _verdicts(lattice)
    maximals = spectrum(z4).maximals
    above = [{m for m in maximals if th.leq(m)} for th in lattice.congruences]
    d, r = lattice.index(delta(z4)), lattice.index(rad)
    for t, c in ((d, r), (r, r)):  # (rad, rad) is a tautology
        assert lattice.leq[t][c] and above[t] == above[c]
        assert verdicts[t] or not verdicts[c]
    assert not lattice.leq[lattice.top_index][d]


CORPUS = [load_algebra(path.read_text(encoding="utf-8")) for path in CORPUS_FILES]


@pytest.mark.parametrize(
    "alg", [alg for alg in CORPUS if surrogate_checks(alg).ok], ids=lambda alg: alg.name
)
def test_transfer_results_hold_on_every_pair(alg):
    """verify's lifting suite checks each transfer result over every theta,
    or every pair meeting its hypotheses, and each check passes."""
    passed = {check.name: check.passed for check in _suite_lifting(alg)}
    for name in (
        "radical-invariance",
        "star-transfer",
        "regular-join-transfer",
        "noncoprime-meet-transfer",
        "max-interval-transfer",
    ):
        assert passed[name], name


def test_rad_criterion(z12, z4):
    assert rad_cblp_criterion(z12)
    assert rad_cblp_criterion(z4)
    assert rad_cblp_criterion(ring_zn(2))
    # the pentagon: Rad lacks CBLP, so g must fail to be an isomorphism, and
    # the criterion still reports the equivalence as holding
    assert rad_cblp_criterion(pentagon())


def test_diamond_examples(z12, z4):
    assert diamond(z12, theta(z12, 2)) == theta(z12, 4)
    assert diamond(z12, nabla(z12)) == nabla(z12)
    assert diamond(z4, theta(z4, 2)) == delta(z4)

    def regular(alg, th):
        lattice = con_lattice(alg)
        return diamond_index(lattice, lattice.index(th)) == lattice.index(th)

    assert not regular(z4, theta(z4, 2))
    assert regular(z12, theta(z12, 4))
    assert not regular(z12, theta(z12, 6))


def test_diamond_star_commute(z12, z4):
    from congruence_lab import diamond_star_commute

    for alg in (z12, z4, pentagon()):
        for c in con_lattice(alg).congruences:
            assert diamond_star_commute(alg, c)


def test_characterization_z12_theta6(z12):
    report = cblp_characterization(z12, theta(z12, 6))
    assert report.thm63 == {"c1": True, "c2": True, "c3": True, "c4": True}
    assert not report.exploratory
    # the quotient in condition (4) at phi = theta_2: phi-diamond = theta_4,
    # theta_6 v theta_4 = theta_2, quotient Z_2 has trivial center
    dia = diamond(z12, theta(z12, 2))
    assert dia == theta(z12, 4)
    from congruence_lab.congruences import join

    joined = join(theta(z12, 6), dia)
    assert joined == theta(z12, 2)
    quo = quotient(z12, joined)
    assert len(boolean_center_of_congruences(quo).elements) == 2


def test_characterization_four_way_agreement(z12, z4):
    for alg in (z12, z4, pentagon(), chain_lattice(4)):
        for c in con_lattice(alg).congruences:
            report = cblp_characterization(alg, c)
            assert len(set(report.thm63.values())) == 1, (alg.name, str(c), report.thm63)


def test_characterization_detects_pentagon_failure():
    n5 = pentagon()
    rad = spectrum(n5).rad
    report = cblp_characterization(n5, rad)
    assert report.thm63 == {"c1": False, "c2": False, "c3": False, "c4": False}


def _regular_join_transfer(alg, th, chi) -> bool:
    """theta CBLP and chi regular imply theta v chi CBLP."""
    lattice = con_lattice(alg)
    t, c = lattice.index(th), lattice.index(chi)
    if not (cblp_index(lattice, t)[0] and diamond_index(lattice, c) == c):
        return True
    return cblp_index(lattice, lattice.join_table[t][c])[0]


def _noncoprime_meet_transfer(alg, th, chi) -> bool:
    """Non-coprime theta, chi with theta CBLP and A/chi of trivial center
    give theta ^ chi CBLP."""
    lattice = con_lattice(alg)
    t, c = lattice.index(th), lattice.index(chi)
    if lattice.join_table[t][c] == lattice.top_index or not cblp_index(lattice, t)[0]:
        return True
    if len(center_index(lattice, c)[0]) > 2:
        return True
    return cblp_index(lattice, lattice.meet_table[t][c])[0]


def test_regular_join_transfer_examples(z12):
    assert _regular_join_transfer(z12, theta(z12, 6), theta(z12, 4))
    for a in con_lattice(z12).congruences:
        for b in con_lattice(z12).congruences:
            assert _regular_join_transfer(z12, a, b)


def test_noncoprime_meet_transfer_examples(z12, z4):
    assert _noncoprime_meet_transfer(z4, delta(z4), theta(z4, 2))
    assert _noncoprime_meet_transfer(z12, theta(z12, 6), theta(z12, 2))
    for a in con_lattice(z12).congruences:
        for b in con_lattice(z12).congruences:
            assert _noncoprime_meet_transfer(z12, a, b)


def test_quotient_descent(z12, z4):
    assert quotient_cblp_descent(z12, theta(z12, 6))
    assert quotient_cblp_descent(z12, delta(z12))
    assert quotient_cblp_descent(z4, theta(z4, 2))
    with pytest.raises(HypothesisNotMet):
        quotient_cblp_descent(z12, nabla(z12))  # nabla is not below Rad


def test_literal_descent_refuted_by_pentagon():
    """Without requiring the collapsed congruence itself to lift, descent
    from the quotient fails: N5/Rad is the Boolean square (CBLP everywhere)
    while Rad(N5) does not lift, so N5 is not CBLP."""
    n5 = pentagon()
    rad = spectrum(n5).rad
    lattice = con_lattice(n5)
    r = lattice.index(rad)
    quotient_lattice = projection(lattice, r).lattice
    assert all(_verdicts(quotient_lattice)) and not all(_verdicts(lattice))
    # the interval [Rad, nabla] decides CBLP of N5/Rad as its own Con does
    assert lifting._all_cblp(lattice, r) and not lifting._all_cblp(lattice, lattice.bottom_index)
    # with the lifting hypothesis the descent is vacuous here
    assert quotient_cblp_descent(n5, rad)
    assert quotient_cblp_descent(n5, delta(n5))


def test_b_normal(z12, z4):
    assert is_b_normal(z12).b_normal
    assert is_b_normal(z4).b_normal
    assert is_b_normal(ring_zn(2)).b_normal
    report = is_b_normal(pentagon())
    assert not report.b_normal
    assert report.counterexample is not None


def test_b_normal_iff_every_congruence_lifts():
    for alg in [ring_zn(12), ring_zn(4), pentagon(), chain_lattice(4), mv_chain(3)]:
        all_cblp = all(has_cblp(alg, c).cblp for c in con_lattice(alg).congruences)
        assert is_b_normal(alg).b_normal == all_cblp


def test_hyperarchimedean_cblp(z12, z4):
    assert hyperarchimedean_cblp(z12)
    assert hyperarchimedean_cblp(z4)
    one = quotient(ring_zn(2), nabla(ring_zn(2)))
    assert hyperarchimedean_cblp(one)
    assert hyperarchimedean_cblp(pentagon())  # vacuous: not hyperarchimedean


# ---------------------------------------------------------------------------
# orthogonal lifting


def test_lift_orthogonal_z12_atoms(z12):
    t6 = theta(z12, 6)
    quo = quotient(z12, t6)
    omega_prime = [theta(quo, 2), theta(quo, 3)]
    lifted = lift_orthogonal(z12, t6, omega_prime)
    assert [c.blocks for c in lifted] == [theta(z12, 4).blocks, theta(z12, 3).blocks]


def test_lift_orthogonal_trivial_cases(z12):
    t6 = theta(z12, 6)
    assert lift_orthogonal(z12, t6, []) == []
    quo = quotient(z12, t6)
    assert [c.blocks for c in lift_orthogonal(z12, t6, [delta(quo)])] == [
        delta(z12).blocks
    ]


def test_lift_orthogonal_requires_cblp():
    n5 = pentagon()
    rad = spectrum(n5).rad
    quo = quotient(n5, rad)
    with pytest.raises(NoCBLP):
        lift_orthogonal(n5, rad, [delta(quo)])


def test_lift_orthogonal_rejects_non_orthogonal(z12):
    t6 = theta(z12, 6)
    quo = quotient(z12, t6)
    with pytest.raises(NotOrthogonal):
        lift_orthogonal(z12, t6, [theta(quo, 2), nabla(quo)])
    with pytest.raises(NotOrthogonal):
        # theta_2/theta_6 of the quotient Z_6 is complemented, but the pair
        # (theta_2, theta_2) is not orthogonal to itself
        lift_orthogonal(z12, t6, [theta(quo, 2), theta(quo, 2)])


@pytest.mark.parametrize(
    "blocks", [(0, 0, 1, 1, 2, 2), (0, 1, 0, 1), (0, 0, 0, 3, 3, 3)],
    ids=["not canonical", "wrong length", "not compatible"],
)
def test_lift_orthogonal_rejects_a_block_array_off_the_quotient(z12, blocks):
    """A member of omega' that is no congruence of A/theta is mapped back
    to no member of [theta, nabla]: ParentMismatch, with the message that
    Con(A/theta).index gave."""
    from congruence_lab import Congruence

    t6 = theta(z12, 6)
    quo = quotient(z12, t6)
    with pytest.raises(ParentMismatch) as raised:
        lift_orthogonal(z12, t6, [Congruence(quo, blocks)])
    assert str(raised.value) == f"{list(blocks)} is not a congruence of {quo.name}"


def test_orthogonal_uniqueness_and_atoms_z12(z12):
    report = orthogonal_uniqueness_and_atoms(z12, theta(z12, 6))
    assert report.unique_lifts
    assert report.lifts_orthogonal
    assert report.atoms_lift_to_atoms is True
    assert report.difference_lemma


def test_orthogonal_uniqueness_identity_case(z12):
    report = orthogonal_uniqueness_and_atoms(z12, delta(z12))
    assert report.unique_lifts and report.lifts_orthogonal


def test_orthogonal_uniqueness_requires_radical_bound(z12):
    with pytest.raises(HypothesisNotMet):
        orthogonal_uniqueness_and_atoms(z12, nabla(z12))


def test_orthogonal_report_on_pentagon():
    """theta = Rad(N5) lacks CBLP, so the atom clause is skipped, but the
    liftable families still lift uniquely and orthogonally."""
    n5 = pentagon()
    report = orthogonal_uniqueness_and_atoms(n5, spectrum(n5).rad)
    assert report.atoms_lift_to_atoms is None
    assert report.unique_lifts and report.difference_lemma


def test_orthogonal_report_on_c10_under_the_default_caps():
    """Con(C_10) is the Boolean lattice of 512 congruences; its 231,950
    orthogonal families are decided by their pairs, under no cap."""
    alg = chain_lattice(10)
    report = orthogonal_uniqueness_and_atoms(alg, delta(alg))
    assert report.unique_lifts and report.lifts_orthogonal and report.difference_lemma
    assert report.atoms_lift_to_atoms is True


def test_no_complemented_congruence_below_rad_z12(z12):
    rad = spectrum(z12).rad
    center = boolean_center_of_congruences(z12)
    for c in center.elements:
        if c.leq(rad):
            assert c == delta(z12)
    assert not theta(z12, 3).leq(rad)
    assert not theta(z12, 4).leq(rad)


# ---------------------------------------------------------------------------
# ring oracle


def test_ring_idempotents():
    assert ring_idempotents(12) == [0, 1, 4, 9]
    assert ring_idempotents(4) == [0, 1]
    assert ring_idempotents(1) == [0]


def test_ring_idempotent_lifting_oracle():
    for n in range(1, 17):
        alg = ring_zn(n)
        for d in range(1, n + 1):
            if n % d:
                continue
            assert ring_idempotent_lifting(n, d) == has_cblp(alg, theta(alg, d)).cblp
    for n, d in [(6, 4), (4, 0), (4, -2), (0, 1), (-4, 2)]:
        with pytest.raises(HypothesisNotMet):
            ring_idempotent_lifting(n, d)


def test_boolean_lattice_algebra_centers():
    alg = boolean_lattice(2)
    lattice = con_lattice(alg)
    center = boolean_center_of_congruences(alg)
    # the congruence lattice of the Boolean square is Boolean: everything
    # is complemented
    assert len(center.elements) == len(lattice)


# ---------------------------------------------------------------------------
# Per-congruence results stored on Con(A)

def _center_blocks(center):
    return (
        [c.blocks for c in center.elements],
        {key: value.blocks for key, value in center.complement.items()},
        [a.blocks for a in center.atoms],
    )


@pytest.mark.parametrize("alg", STORED_ALGEBRAS, ids=lambda alg: alg.name)
def test_stored_results_match_direct_computation(alg):
    lattice = con_lattice(alg)
    n, size = alg.size, len(lattice)
    bottom, top = lattice.bottom_index, lattice.top_index
    complemented = [
        i
        for i in range(size)
        if any(
            lattice.meet_index(i, c) == bottom and lattice.join_index(i, c) == top
            for c in range(size)
        )
    ]
    for t, th in enumerate(lattice.congruences):
        for _ in range(2):  # the first call computes, the second reads the store
            # B([theta, nabla]) mapped to A/theta against the quotient's own center
            qcon = projection(lattice, t).lattice.congruences
            down, up = quotient_edge(lattice, t)
            members, complement, atoms = center_index(lattice, t)
            qcenter = (
                [down(i).blocks for i in members],
                {down(i).blocks: down(j).blocks for i, j in complement.items()},
                [down(i).blocks for i in atoms],
            )
            direct = boolean_center_of_congruences(fresh_copy(quotient(alg, th)))
            assert qcenter == _center_blocks(direct)

            reps = sorted(set(th.blocks))
            for c, chi in enumerate(lattice.congruences):
                if not lattice.leq_index(t, c):
                    continue
                labels = [chi.blocks[r] for r in reps]
                relabelled = tuple(labels.index(v) for v in labels)
                assert qcon[projection(lattice, t).down[c]].blocks == relabelled
                assert down(c).blocks == relabelled and up(down(c)) == c

            below = [lattice.congruences[i] for i in complemented if lattice.leq_index(i, t)]
            joined = congruence_from_pairs(
                alg, [(x, b.blocks[x]) for b in below for x in range(n)]
            )
            assert diamond(alg, th).blocks == joined.blocks

    report = preserves_boolean_center(alg)
    assert preserves_boolean_center(alg) == report
    other = preserves_boolean_center(fresh_copy(alg))
    assert (report.preserves, report.star_property, report.semiprime) == (
        other.preserves,
        other.star_property,
        other.semiprime,
    )
    assert (report.violating and report.violating.blocks) == (
        other.violating and other.violating.blocks
    )


def test_star_property_runs_once_per_verify(monkeypatch):
    from congruence_lab import reticulation
    from congruence_lab.verify import verify_algebra

    calls = []
    real = reticulation._star_property

    def counting(alg):
        calls.append(alg)
        return real(alg)

    monkeypatch.setattr(reticulation, "_star_property", counting)
    assert verify_algebra(fresh_copy(chain_lattice(5))).ok
    assert len(calls) == 1


def test_projection_built_once_per_theta(monkeypatch):
    """verify_algebra builds each theta's quotient algebra once per Con(A):
    the projection and the interval count read the same one."""
    from congruence_lab import congruences, verify
    from congruence_lab.verify import verify_algebra

    built = []
    real = congruences.quotient

    def counting(alg, th):
        built.append((alg, th.blocks))
        return real(alg, th)

    monkeypatch.setattr(congruences, "quotient", counting)
    monkeypatch.setattr(verify, "quotient", counting)
    alg = fresh_copy(chain_lattice(5))
    assert verify_algebra(alg).ok
    assert len(built) == len(set(built)) == len(con_lattice(alg))


def test_quotient_center_oracle_catches_one_dropped_member(monkeypatch):
    """The last member dropped from the center of every Con(A/theta) that
    verify reads, on a verified Z_12: projection-center-morphism compares
    B([theta, nabla]) with the quotient's own center and fails, while the
    interval center that the library reads is unchanged."""
    from congruence_lab import verify

    alg = fresh_copy(ring_zn(12))
    assert _suite_passes(alg)
    lattice = con_lattice(alg)
    real = verify.center_index

    def drop_one(lat, t):
        members, complement, atoms = real(lat, t)
        if lat is lattice:
            return members, complement, atoms
        return members[:-1], complement, atoms

    monkeypatch.setattr(verify, "center_index", drop_one)
    assert not _suite_passes(alg, "projection-center-morphism")
    monkeypatch.undo()
    assert _suite_passes(alg)
    t = lattice.index(theta(alg, 6))
    assert len(center_index(lattice, t)[0]) == len(ring_idempotents(6))


def test_quotient_center_oracle_catches_one_dropped_atom(monkeypatch):
    """The first atom dropped from the atoms of the center of every
    Con(A/theta) that verify reads, its members kept, on a verified Z_12:
    only the comparison of B([theta, nabla]) with the quotient's own center
    reads the atoms, and projection-center-morphism fails."""
    from congruence_lab import verify

    alg = fresh_copy(ring_zn(12))
    assert _suite_passes(alg)
    lattice = con_lattice(alg)
    real = verify.center_index

    def drop_atom(lat, t):
        members, complement, atoms = real(lat, t)
        return members, complement, atoms if lat is lattice else atoms[1:]

    monkeypatch.setattr(verify, "center_index", drop_atom)
    assert not _suite_passes(alg, "projection-center-morphism")


def test_stored_reports_name_the_callers_algebra(monkeypatch):
    """Algebras with the same tables share the stored results; a report read
    through a renamed copy names that copy, and the stored one is kept."""
    from congruence_lab import congruences, surrogate_checks
    from congruence_lab.reticulation import build_reticulation
    from congruence_lab.verify import verify_algebra

    # a fresh copy: an earlier quotient with Z_6's tables, such as Z_12/theta_6,
    # would otherwise have stored these reports under its own name
    z6 = fresh_copy(ring_zn(6))
    theta2 = theta(z6, 2)
    first = has_cblp(z6, theta2)
    assert first.algebra.name == "Z_6"
    renamed = z6.rename("Renamed")
    assert has_cblp(renamed, theta2).algebra.name == "Renamed"
    assert has_cblp(renamed, theta2).cblp == first.cblp
    assert cblp_characterization(renamed, theta2).algebra.name == "Renamed"
    assert is_b_normal(z6).algebra.name == "Z_6"
    assert is_b_normal(renamed).algebra.name == "Renamed"
    for report in (
        surrogate_checks,
        spectrum,
        build_reticulation,
        preserves_boolean_center,
    ):
        assert report(z6).algebra.name == "Z_6"
        assert report(renamed).algebra.name == "Renamed"
    assert has_cblp(z6, theta2) == first
    assert has_cblp(z6, theta2).algebra.name == "Z_6"

    # a renamed copy reads the same stored results: its verify run makes
    # exactly the closures of a repeated run on the original
    alg = fresh_copy(ring_zn(12))
    assert verify_algebra(alg).ok
    closures = []
    real = congruences._close_pairs
    monkeypatch.setattr(
        congruences, "_close_pairs", lambda *a: closures.append(a) or real(*a)
    )
    verify_algebra(alg)
    again = len(closures)
    report = verify_algebra(alg.rename("Renamed"))
    assert report.ok and report.algebra.name == "Renamed"
    assert len(closures) == 2 * again


def test_theory_gate_names_the_callers_algebra():
    """Con(A) is built for the first algebra with its tables and shared by
    every renamed copy; a hypothesis failure raised through a public function
    still names the copy that called it."""
    from congruence_lab.builders import pointed_pair
    from congruence_lab.errors import TheoryHypothesisFailed
    from congruence_lab.reticulation import build_reticulation

    original = fresh_copy(pointed_pair())
    with pytest.raises(TheoryHypothesisFailed, match="^pointed-pair: "):
        spectrum(original)
    copy = original.rename("Copy")
    assert con_lattice(copy).algebra is original
    bottom = con_lattice(copy).congruences[0]
    for call in (
        lambda: has_cblp(copy, bottom),
        lambda: spectrum(copy),
        lambda: build_reticulation(copy),
    ):
        with pytest.raises(TheoryHypothesisFailed, match="^Copy: "):
            call()


def test_center_map_is_one_stored_row_per_theta():
    """After a verify run, Con(A) holds B(p_theta) as one center-map row per
    theta, with one cell per complemented congruence, each a member of
    [theta, nabla]: the quotient is read as that interval."""
    from congruence_lab.verify import verify_algebra

    alg = fresh_copy(chain_lattice(5))
    assert verify_algebra(alg).ok
    lattice = con_lattice(alg)
    rows = lattice._caches["congruence_lab.lifting.center_map_index"]
    assert sorted(rows) == [(t,) for t in range(len(lattice))]
    members = center_index(lattice, lattice.bottom_index)[0]
    assert {len(row) for row in rows.values()} == {len(members)}
    assert all(lattice.leq[t][x] for (t,), row in rows.items() for x in row)


@pytest.mark.parametrize("alg", [chain_lattice(5), ring_zn(12)], ids=lambda alg: alg.name)
def test_stored_results_are_index_level(alg):
    """After a verify run, every result stored on Con(A) and on the lattices
    of its quotients is keyed by congruence indices and flags, and holds
    neither a congruence nor a report naming an algebra; every cell of the
    commutator memo is an index or, where not filled, None."""
    from congruence_lab import Congruence
    from congruence_lab.verify import verify_algebra

    alg = fresh_copy(alg)
    assert verify_algebra(alg).ok
    lattice = con_lattice(alg)
    projections = lattice._caches["congruence_lab.congruences.projection"].values()
    lattices = [lattice] + [p.lattice for p in projections]
    assert len(lattices) == 1 + len(lattice)
    for owner in lattices:
        for name, results in owner._caches.items():
            if name == "commutator":
                assert len(results) == len(owner), name
                for row in results:
                    assert len(row) == len(owner), name
                    assert {type(cell) for cell in row} <= {int, type(None)}, name
                continue
            for key, value in results.items():
                assert type(key) is tuple, name
                assert all(type(arg) in (int, bool) for arg in key), (name, key)
                assert not isinstance(value, Congruence), name
                assert not hasattr(value, "algebra"), name

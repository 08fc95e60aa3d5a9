"""Boolean centers, CBLP, the characterization theorem and orthogonal lifts."""

import json

import pytest

from congruence_lab import (
    HypothesisNotMet,
    NoCBLP,
    NotOrthogonal,
    Falsified,
    boolean_center_of_congruences,
    cblp_characterization,
    cblp_star_transfer,
    con_lattice,
    congruence_from_blocks,
    congruence_from_pairs,
    delta,
    diamond,
    has_cblp,
    has_id_blp,
    hyperarchimedean_cblp,
    is_b_normal,
    is_regular,
    lift_orthogonal,
    max_interval_transfer,
    nabla,
    noncoprime_meet_transfer,
    orthogonal_uniqueness_and_atoms,
    preserves_boolean_center,
    projection_image,
    quotient,
    quotient_cblp_descent,
    radical_invariance,
    rad_cblp_criterion,
    regular_join_transfer,
    spectrum,
    surrogate_checks,
)
from congruence_lab.algebra import FiniteAlgebra, load_algebra
from congruence_lab.builders import (
    boolean_lattice,
    chain_lattice,
    kite,
    mv_chain,
    pentagon,
    ring_zn,
)
from congruence_lab.lattices import lattice_from_leq, principal_ideal
from congruence_lab.lifting import (
    literal_quotient_descent,
    project_congruence,
    quotient_center_congruences,
    ring_idempotent_lifting,
    ring_idempotents,
    section_congruence,
)

from conftest import fresh_copy, replace, theta
from test_scan_oracles import CORPUS_FILES


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
    """chi -> chi/theta and its section are inverse bijections between
    [theta) and Con(A/theta), for every theta."""
    for alg in STORED_ALGEBRAS:
        lattice = con_lattice(alg)
        for th in lattice.congruences:
            qlattice = con_lattice(quotient(alg, th))
            above = [chi for chi in lattice.congruences if th.leq(chi)]
            assert len(above) == len(qlattice)
            for chi in lattice.congruences:
                if chi not in above:
                    with pytest.raises(HypothesisNotMet):
                        project_congruence(alg, th, chi)
                    continue
                down = project_congruence(alg, th, chi)
                assert section_congruence(alg, th, down) == chi
            for beta in qlattice.congruences:
                assert project_congruence(alg, th, section_congruence(alg, th, beta)) == beta


def test_projection_outside_the_quotient_lattice_is_falsified(monkeypatch):
    """A projected congruence missing from Con(A/theta), or a congruence of
    A/theta that nothing projects to, contradicts the correspondence
    theorem: Falsified, not an input error, and nothing is stored."""
    from congruence_lab import congruences

    alg = fresh_copy(ring_zn(12))
    t6 = theta(alg, 6)
    for stand_in, message in (
        # Con(C_6) holds the interval partitions only, so theta_2/theta_6 misses
        (chain_lattice(6), "is not a congruence of the quotient"),
        # every partition of a set without operations is a congruence
        (FiniteAlgebra("6-set", 6, ()), "larger than the interval"),
    ):
        monkeypatch.setattr(congruences, "quotient", lambda alg, th: stand_in)
        with pytest.raises(Falsified, match=message):
            project_congruence(alg, t6, theta(alg, 2))
    monkeypatch.undo()
    assert project_congruence(alg, t6, theta(alg, 2)).blocks == (0, 1, 0, 1, 0, 1)


def test_projection_image_routes_check_each_other():
    """The generated image reads neither ``down`` nor ``up``, and the
    projected join reads no principal congruence of A/theta, so one wrong
    cell of either is Falsified.  On the chain C_5, theta = Cg(3, 4) and
    alpha = Cg(0, 1) = 01|2|3|4, whose one projected pair is (1, 0)."""
    from congruence_lab.congruences import all_congruences, principal_congruence, projection
    from congruence_lab.lifting import projection_image_index

    alg = chain_lattice(5)
    message = "projected join and generated image disagree"
    for planted in ("down", "principals"):
        lattice = all_congruences(alg)  # uncached: nothing else reads the plant
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
            wrong = replace(
                real, lattice=replace(qlattice, principals=tuple(principals), _caches={})
            )
        lattice._caches["congruence_lab.congruences.projection"][(t,)] = wrong
        with pytest.raises(Falsified, match=message):
            projection_image_index(lattice, t, a)


def test_orthogonal_family_cap_stops_the_enumeration(monkeypatch):
    """The enumeration raises on the first family past FAMILY_CAP, naming
    the quantity and the cap: C_5 has 104 orthogonal families on the center
    of C_5/Delta, its own Boolean Con."""
    from congruence_lab import SizeBudgetExceeded, lifting

    alg = chain_lattice(5)
    lattice = con_lattice(alg)
    members = lifting.center_index(lattice)[0]
    monkeypatch.setattr(lifting, "FAMILY_CAP", 104)
    assert len(lifting._orthogonal_families(lattice, members)) == 104
    monkeypatch.setattr(lifting, "FAMILY_CAP", 103)
    message = "orthogonal families on the center of A/theta exceed the cap of 103"
    with pytest.raises(SizeBudgetExceeded, match=message):
        lifting._orthogonal_families(lattice, members)
    with pytest.raises(SizeBudgetExceeded, match=message):
        orthogonal_uniqueness_and_atoms(alg, delta(alg))


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


# ---------------------------------------------------------------------------
# transfer results


def test_star_transfer(z12, z4):
    for alg in (z12, z4, pentagon()):
        for c in con_lattice(alg).congruences:
            assert cblp_star_transfer(alg, c)


def test_radical_invariance(z12, z4):
    for alg in (z12, z4, pentagon()):
        for c in con_lattice(alg).congruences:
            assert radical_invariance(alg, c)


def test_max_interval_transfer_z4(z4):
    rad = spectrum(z4).rad
    assert rad == theta(z4, 2)
    assert max_interval_transfer(z4, delta(z4), rad)
    assert max_interval_transfer(z4, rad, rad)  # tautology
    with pytest.raises(HypothesisNotMet):
        max_interval_transfer(z4, nabla(z4), delta(z4))


CORPUS = [load_algebra(path.read_text(encoding="utf-8")) for path in CORPUS_FILES]


@pytest.mark.parametrize(
    "alg", [alg for alg in CORPUS if surrogate_checks(alg).ok], ids=lambda alg: alg.name
)
def test_transfer_results_hold_on_every_pair(alg):
    """verify checks the transfer results over lists of verdicts; the public
    functions evaluate them pair by pair, and hold on every pair (for
    max_interval_transfer, every pair meeting its precondition)."""
    con = con_lattice(alg).congruences
    maximals = spectrum(alg).maximals
    above = [{m.blocks for m in maximals if th.leq(m)} for th in con]
    for t, th in enumerate(con):
        assert radical_invariance(alg, th)
        assert cblp_star_transfer(alg, th)
        for c, chi in enumerate(con):
            assert regular_join_transfer(alg, th, chi)
            assert noncoprime_meet_transfer(alg, th, chi)
            if th.leq(chi) and above[t] == above[c]:
                assert max_interval_transfer(alg, th, chi)


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
    assert not is_regular(z4, theta(z4, 2))
    assert is_regular(z12, theta(z12, 4))
    assert not is_regular(z12, theta(z12, 6))


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


def test_regular_join_transfer_examples(z12):
    assert regular_join_transfer(z12, theta(z12, 6), theta(z12, 4))
    for a in con_lattice(z12).congruences:
        for b in con_lattice(z12).congruences:
            assert regular_join_transfer(z12, a, b)


def test_noncoprime_meet_transfer_examples(z12, z4):
    assert noncoprime_meet_transfer(z4, delta(z4), theta(z4, 2))
    assert noncoprime_meet_transfer(z12, theta(z12, 6), theta(z12, 2))
    for a in con_lattice(z12).congruences:
        for b in con_lattice(z12).congruences:
            assert noncoprime_meet_transfer(z12, a, b)


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
    assert not literal_quotient_descent(n5, rad)
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


def test_orthogonal_uniqueness_and_atoms_z12(z12):
    report = orthogonal_uniqueness_and_atoms(z12, theta(z12, 6))
    assert report.unique_lifts
    assert report.lifts_orthogonal
    assert report.atoms_lift_to_atoms is True
    assert report.difference_lemma
    assert report.families_checked >= 4


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
            _, qcenter = quotient_center_congruences(alg, th)
            direct = boolean_center_of_congruences(fresh_copy(quotient(alg, th)))
            assert _center_blocks(qcenter) == _center_blocks(direct)

            reps = sorted(set(th.blocks))
            for c, chi in enumerate(lattice.congruences):
                if not lattice.leq_index(t, c):
                    continue
                labels = [chi.blocks[r] for r in reps]
                relabelled = tuple(labels.index(v) for v in labels)
                assert project_congruence(alg, th, chi).blocks == relabelled

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
    """verify_algebra builds each theta's projection, and so its quotient
    algebra, at most once per Con(A)."""
    from congruence_lab import congruences
    from congruence_lab.verify import verify_algebra

    built = []
    real = congruences.quotient

    def counting(alg, th):
        built.append((alg, th.blocks))
        return real(alg, th)

    monkeypatch.setattr(congruences, "quotient", counting)
    assert verify_algebra(fresh_copy(chain_lattice(5))).ok
    assert built
    assert len(built) == len(set(built))


def test_quotient_center_cross_check_raises_on_first_call(monkeypatch):
    """A broken direct route is caught on the first call for theta, and the
    failed result is not stored."""
    from congruence_lab import lifting

    alg = fresh_copy(ring_zn(12))
    theta6 = theta(alg, 6)
    real = lifting.center_index

    def drop_one(lattice):
        members, complement, atoms = real(lattice)
        if lattice is con_lattice(alg):
            return members, complement, atoms
        return members[:-1], complement, atoms

    monkeypatch.setattr(lifting, "center_index", drop_one)
    with pytest.raises(Falsified, match="interval and direct quotient centers disagree"):
        quotient_center_congruences(alg, theta6)
    monkeypatch.undo()
    _, center = quotient_center_congruences(alg, theta6)
    assert len(center) == len(ring_idempotents(6))


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


@pytest.mark.parametrize("alg", [chain_lattice(5), ring_zn(12)], ids=lambda alg: alg.name)
def test_stored_results_are_index_level(alg):
    """After a verify run, every result stored on Con(A) and on the lattices
    of its quotients is keyed by congruence indices and flags, and holds
    neither a congruence nor a report naming an algebra."""
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
            for key, value in results.items():
                assert type(key) is tuple, name
                assert all(type(arg) in (int, bool) for arg in key), (name, key)
                assert not isinstance(value, Congruence), name
                assert not hasattr(value, "algebra"), name


def test_orthogonal_families_leave_no_cyclic_garbage():
    """The family enumeration builds no reference cycle, so what it
    allocates is freed when the call returns, not at the next collection."""
    import gc

    from congruence_lab.lifting import _orthogonal_families, center_index

    lattice = con_lattice(boolean_lattice(3))
    members = center_index(lattice)[0]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()  # an automatic collection would hide a cycle
    try:
        assert _orthogonal_families(lattice, members)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()

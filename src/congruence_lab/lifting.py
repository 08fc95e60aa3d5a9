"""Boolean centers, the congruence Boolean lifting property, and the
characterization/transfer suites built on it.

A congruence theta has CBLP when the Boolean-center map of the canonical
projection is surjective: every complemented congruence of A/theta is
(alpha v theta)/theta for some complemented alpha of A.  The center of the
quotient is computed twice, once inside the interval [theta) via residuation
(chi/theta is complemented iff chi v (chi -> theta) is the top congruence)
and once directly on the quotient algebra; a disagreement is an internal
falsification and raises :class:`Falsified`.

Indices inside, ``Congruence`` at the public edge.  Each result that the
``verify`` suites read has an index core, named after it with an ``_index``
suffix, that takes Con(A) and congruence indices and returns indices and
flags; the cores that run a cross-check are ``@stored``, so it runs on the
first call for each argument.  A public function runs the theory gate,
indexes its congruence arguments, calls its core and builds its report for
the caller's algebra.  The transfer results (radical invariance, the star
and maximal-interval transfers, the regular-join and non-coprime-meet
transfers) have no core: each public function reads the stored verdicts of
``cblp_index`` itself, and ``verify`` checks them over whole lists of those
verdicts.  The quotient A/theta, chi/theta and the section back into
[theta) are read from the index maps of ``congruences.projection``.
"""

from __future__ import annotations

import json
from itertools import combinations

from .algebra import FiniteAlgebra
from .commutator import commutator_index, commutator_table, require_theory, residuation_index
from .congruences import (
    Congruence,
    CongruenceLattice,
    con_lattice,
    projection,
    stored,
)
from .errors import (
    Falsified,
    HypothesisNotMet,
    NoCBLP,
    NotOrthogonal,
    SizeBudgetExceeded,
)
from .lattices import FiniteLattice, LatticeIdeal, lattice_center, quotient_by_ideal
from .spectrum import brute_force_clopens, is_hyperarchimedean, radical_index, spectrum_index

__all__ = [
    "BooleanCenter",
    "boolean_center_of_congruences",
    "projection_image",
    "project_congruence",
    "quotient_center_congruences",
    "LiftingReport",
    "has_cblp",
    "IdBlpReport",
    "has_id_blp",
    "cblp_star_transfer",
    "radical_invariance",
    "max_interval_transfer",
    "rad_cblp_criterion",
    "diamond",
    "is_regular",
    "diamond_star_commute",
    "cblp_characterization",
    "regular_join_transfer",
    "noncoprime_meet_transfer",
    "quotient_cblp_descent",
    "literal_quotient_descent",
    "BNormalReport",
    "is_b_normal",
    "hyperarchimedean_cblp",
    "lift_orthogonal",
    "OrthogonalReport",
    "orthogonal_uniqueness_and_atoms",
    "ring_idempotents",
    "ring_idempotent_lifting",
]

FAMILY_CAP = 100_000  # orthogonal families enumerated on one quotient center


def _indices(alg: FiniteAlgebra, *congruences: Congruence) -> tuple:
    """Con(A) and the indices of the given congruences, after the theory
    gate."""
    require_theory(alg)
    lattice = con_lattice(alg)
    return (lattice, *map(lattice.index, congruences))


# ---------------------------------------------------------------------------
# Boolean centers


class BooleanCenter:
    """The complemented congruences of an algebra, with complements."""

    __slots__ = ("elements", "complement", "atoms")

    def __init__(self, elements, complement, atoms):
        self.elements = elements  # congruences
        self.complement = complement
        self.atoms = atoms

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def boolean_center_of_congruences(alg: FiniteAlgebra) -> BooleanCenter:
    """B(Con(A)), from ``center_index``."""
    require_theory(alg)
    lattice = con_lattice(alg)
    return _center(lattice, center_index(lattice))


def _center(lattice: CongruenceLattice, center: tuple) -> BooleanCenter:
    """A result of ``center_index(lattice)`` as congruences."""
    members, complement, atoms = center
    con = lattice.congruences
    return BooleanCenter(
        elements=tuple(con[i] for i in members),
        complement={con[i].blocks: con[j] for i, j in complement.items()},
        atoms=tuple(con[i] for i in atoms),
    )


@stored
def center_index(
    lattice: CongruenceLattice,
) -> tuple[tuple[int, ...], dict[int, int], tuple[int, ...]]:
    """B(Con(A)) from the lattice's complement search: the complemented
    congruences, the complement of each, and the atoms.

    Membership means some complement exists; the recorded complement is the
    annihilator, which is cross-checked to be one.
    """
    mates = lattice.complements
    members = tuple(i for i in range(len(lattice)) if mates[i])
    complement = {}
    for i in members:
        complement[i] = residuation_index(lattice, i, lattice.bottom_index)
        if complement[i] not in mates[i]:
            raise Falsified(
                f"{lattice.algebra.name}: annihilator of a complemented congruence"
                " is not a complement"
            )
    bottom, leq = lattice.bottom_index, lattice.leq
    atoms = tuple(
        i
        for i in members
        if i != bottom and not any(j != i and j != bottom and leq[j][i] for j in members)
    )
    return members, complement, atoms


# ---------------------------------------------------------------------------
# Canonical projections


def project_congruence(
    alg: FiniteAlgebra, theta: Congruence, chi: Congruence
) -> Congruence:
    """chi/theta for theta <= chi, as a congruence of the quotient algebra."""
    lattice = con_lattice(alg)
    p = projection(lattice, lattice.index(theta))
    k = p.down[lattice.index(chi)]
    if k is None:
        raise HypothesisNotMet("chi must contain theta")
    return p.lattice.congruences[k]


def projection_image(alg: FiniteAlgebra, theta: Congruence, alpha: Congruence) -> Congruence:
    """The image congruence (alpha v theta)/theta of the canonical projection."""
    lattice = con_lattice(alg)
    t = lattice.index(theta)
    k = projection_image_index(lattice, t, lattice.index(alpha))
    return projection(lattice, t).lattice.congruences[k]


@stored
def projection_image_index(lattice: CongruenceLattice, t: int, a: int) -> int:
    """(alpha v theta)/theta as an index of Con(A/theta).

    Computed both as the projected join and as the congruence of the quotient
    generated by the projected pairs of alpha, the join of their principal
    congruences in Con(A/theta); the two must agree.
    """
    p = projection(lattice, t)
    via_interval = p.down[lattice.join_table[a][t]]
    theta, alpha = lattice.congruences[t].blocks, lattice.congruences[a].blocks
    block_of = {r: k for k, r in enumerate(sorted(set(theta)))}
    image = [block_of[r] for r in theta]  # x -> its element of A/theta
    m, principals = len(block_of), p.lattice.principals
    cgs = {principals[image[x] * m + image[rep]] for x, rep in enumerate(alpha)}
    via_generation = p.lattice.join_many(cgs)
    if via_interval != via_generation:
        raise Falsified(f"{lattice.algebra.name}: projected join and generated image disagree")
    return via_interval


def section_congruence(
    alg: FiniteAlgebra, theta: Congruence, quotient_congruence: Congruence
) -> Congruence:
    """The inverse of chi -> chi/theta: the member of [theta) projecting to
    the given congruence of A/theta."""
    lattice = con_lattice(alg)
    p = projection(lattice, lattice.index(theta))
    return lattice.congruences[p.up[p.lattice.index(quotient_congruence)]]


def quotient_center_congruences(
    alg: FiniteAlgebra, theta: Congruence
) -> tuple[FiniteAlgebra, BooleanCenter]:
    """A/theta and B(Con(A/theta)), from ``quotient_center_index``."""
    lattice = con_lattice(alg)
    t = lattice.index(theta)
    center = quotient_center_index(lattice, t)
    p = projection(lattice, t)
    return p.quotient, _center(p.lattice, center)


@stored
def quotient_center_index(lattice: CongruenceLattice, t: int) -> tuple:
    """B(Con(A/theta)) as ``center_index`` of Con(A/theta), computed on the
    quotient algebra and cross-checked against the interval route
    chi v (chi -> theta) = nabla."""
    p = projection(lattice, t)
    require_theory(p.quotient)
    direct = center_index(p.lattice)
    join, top = lattice.join_table, lattice.top_index
    interval_route = {
        k
        for j, k in enumerate(p.down)
        if k is not None and join[j][residuation_index(lattice, j, t)] == top
    }
    if interval_route != set(direct[0]):
        raise Falsified(
            f"{lattice.algebra.name}: interval and direct quotient centers disagree"
            f" for theta={lattice.congruences[t]}"
        )
    return direct


# ---------------------------------------------------------------------------
# CBLP


class LiftingReport:
    """Per-congruence lifting verdicts.

    ``witnesses`` maps each complemented congruence of the quotient to a
    complemented lift; ``counterexample`` holds an unliftable target when
    there is one.  ``thm63`` carries the four characterization verdicts once
    they are computed; ``exploratory`` marks reports computed although the
    reticulation fails to preserve the Boolean center.
    """

    __slots__ = (
        "algebra", "theta", "cblp", "witnesses", "counterexample", "regular", "diamond", "thm63",
        "exploratory",
    )

    def __init__(
        self, algebra, theta, cblp, witnesses, counterexample, regular, diamond, thm63=None,
        exploratory=False,
    ):
        self.algebra = algebra
        self.theta = theta
        self.cblp = cblp
        self.witnesses = witnesses  # pairs (target in A/theta, lift in A)
        self.counterexample = counterexample
        self.regular = regular
        self.diamond = diamond
        self.thm63 = thm63
        self.exploratory = exploratory

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def to_json_dict(self) -> dict:
        thm = self.thm63 or {}
        return {
            "theta": list(self.theta.blocks),
            "cblp": self.cblp,
            "witnesses": [
                {"target": list(b.blocks), "lift": list(a.blocks)}
                for b, a in self.witnesses
            ]
            + (
                [{"unliftable": list(self.counterexample.blocks)}]
                if self.counterexample is not None
                else []
            ),
            "thm63": {
                "c1": thm.get("c1"),
                "c2": thm.get("c2"),
                "c3": thm.get("c3"),
                "c4": thm.get("c4"),
            },
            "regular": self.regular,
            "diamond": list(self.diamond.blocks),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def has_cblp(alg: FiniteAlgebra, theta: Congruence) -> LiftingReport:
    """Decide whether B(p_theta) is surjective and record witnesses."""
    return _lifting_report(alg, *_indices(alg, theta))


def _lifting_report(
    alg: FiniteAlgebra, lattice: CongruenceLattice, t: int, thm63=None, exploratory=False
) -> LiftingReport:
    cblp, witnesses, counterexample = cblp_index(lattice, t)
    con, qcon = lattice.congruences, projection(lattice, t).lattice.congruences
    dia = diamond_index(lattice, t)
    return LiftingReport(
        algebra=alg,
        theta=con[t],
        cblp=cblp,
        witnesses=tuple((qcon[k], con[a]) for k, a in witnesses),
        counterexample=None if counterexample is None else qcon[counterexample],
        regular=dia == t,
        diamond=con[dia],
        thm63=thm63,
        exploratory=exploratory,
    )


@stored
def cblp_index(lattice: CongruenceLattice, t: int) -> tuple[bool, tuple, int | None]:
    """Whether theta has CBLP; the witnesses (k, a), each complemented
    congruence k of A/theta in order with a complemented lift a; and the
    first k with no lift, or None."""
    targets = quotient_center_index(lattice, t)[0]
    members = center_index(lattice)[0]
    images = [projection_image_index(lattice, t, a) for a in members]
    witnesses = []
    for k in targets:
        if k not in images:
            return False, tuple(witnesses), k
        witnesses.append((k, members[images.index(k)]))
    return True, tuple(witnesses), None


def _all_cblp(lattice: CongruenceLattice) -> bool:
    return all(cblp_index(lattice, t)[0] for t in range(len(lattice)))


# ---------------------------------------------------------------------------
# Ideal lifting in distributive lattices


class IdBlpReport:
    __slots__ = ("lattice", "ideal", "lifts", "witnesses", "counterexample")

    def __init__(self, lattice, ideal, lifts, witnesses, counterexample):
        self.lattice = lattice
        self.ideal = ideal
        self.lifts = lifts
        self.witnesses = witnesses  # pairs (quotient class index, lifting element)
        self.counterexample = counterexample  # quotient class index with no lift


def has_id_blp(lattice: FiniteLattice, ideal: LatticeIdeal) -> IdBlpReport:
    """Whether every complemented class of L/I lifts to a complemented
    element of L; the quotient is by x ~ y iff x v i = y v i for some i in I."""
    quo, class_of = quotient_by_ideal(ideal)
    center_l = set(lattice_center(lattice))
    center_q = set(lattice_center(quo))
    witnesses = []
    counterexample = None
    for target in sorted(center_q):
        lift = next(
            (x for x in sorted(center_l) if class_of[x] == target), None
        )
        if lift is None:
            counterexample = target
            break
        witnesses.append((target, lift))
    return IdBlpReport(
        lattice=lattice,
        ideal=ideal,
        lifts=counterexample is None,
        witnesses=tuple(witnesses),
        counterexample=counterexample,
    )


def cblp_star_transfer(alg: FiniteAlgebra, theta: Congruence) -> bool:
    """theta has CBLP exactly when the ideal theta* of the reticulation has
    Id-BLP; evaluates the two sides independently."""
    from .reticulation import reticulation_index

    lattice, t = _indices(alg, theta)
    _, retic_lattice, lam = reticulation_index(lattice)
    right = has_id_blp(retic_lattice, LatticeIdeal(retic_lattice, lam[t])).lifts
    return cblp_index(lattice, t)[0] == right


# ---------------------------------------------------------------------------
# Transfer results


def radical_invariance(alg: FiniteAlgebra, theta: Congruence) -> bool:
    """CBLP is invariant under taking the radical."""
    lattice, t = _indices(alg, theta)
    return cblp_index(lattice, t)[0] == cblp_index(lattice, radical_index(lattice, t))[0]


def _max_interval(lattice: CongruenceLattice, t: int) -> frozenset:
    above = lattice.leq[t]
    return frozenset(m for m in spectrum_index(lattice, False)[1] if above[m])


def max_interval_transfer(alg: FiniteAlgebra, theta: Congruence, chi: Congruence) -> bool:
    """Under theta <= chi with the same maximal congruences above both:
    chi CBLP implies theta CBLP.  Raises HypothesisNotMet when the
    precondition fails."""
    lattice, t, c = _indices(alg, theta, chi)
    if not lattice.leq[t][c]:
        raise HypothesisNotMet("theta must be contained in chi")
    if _max_interval(lattice, t) != _max_interval(lattice, c):
        raise HypothesisNotMet("theta and chi have different maximal intervals")
    if not cblp_index(lattice, c)[0]:
        return True  # implication holds vacuously
    return cblp_index(lattice, t)[0]


def rad_cblp_criterion(alg: FiniteAlgebra) -> bool:
    """Rad(A) has CBLP iff alpha -> Max(A) n D(alpha) is a Boolean
    isomorphism from B(Con(A)) onto Clop(Max(A)).

    Also verifies on the way: the quotient-center map onto Clop(Max(A)) is a
    Boolean isomorphism, and the center map of the Rad projection is
    injective.  Any failed sub-check makes the criterion return False.
    """
    require_theory(alg)
    lattice = con_lattice(alg)
    _, maximals, rad, _ = spectrum_index(lattice, False)
    clopens = {tuple(sorted(u)) for u in brute_force_clopens(alg)}

    def g_image(i: int) -> tuple[int, ...]:
        return tuple(k for k, m in enumerate(maximals) if not lattice.leq[i][m])

    members = center_index(lattice)[0]
    g_values = [g_image(a) for a in members]
    # g is always an injective Boolean morphism here; surjectivity onto the
    # clopens is the criterion
    if any(u not in clopens for u in g_values):
        return False
    g_iso = len(set(g_values)) == len(g_values) and set(g_values) == clopens

    # the quotient-center map: classes of [Rad) project to Clop(Max(A))
    p = projection(lattice, rad)
    f_values = {k: g_image(p.up[k]) for k in quotient_center_index(lattice, rad)[0]}
    f_iso = (
        len(set(f_values.values())) == len(f_values)
        and set(f_values.values()) == clopens
    )
    if not f_iso:
        return False
    # join/meet preservation for f on the quotient center
    qjoin, qmeet = p.lattice.join_table, p.lattice.meet_table
    for k1 in f_values:
        for k2 in f_values:
            if set(f_values[qjoin[k1][k2]]) != set(f_values[k1]) | set(f_values[k2]):
                return False
            if set(f_values[qmeet[k1][k2]]) != set(f_values[k1]) & set(f_values[k2]):
                return False

    # injectivity of the center map of the Rad projection
    rad_images = [projection_image_index(lattice, rad, a) for a in members]
    if len(set(rad_images)) != len(rad_images):
        return False

    return g_iso == cblp_index(lattice, rad)[0]


# ---------------------------------------------------------------------------
# Regular congruences and the characterization theorem


def diamond(alg: FiniteAlgebra, theta: Congruence) -> Congruence:
    """Join of the complemented congruences below theta."""
    lattice, t = _indices(alg, theta)
    return lattice.congruences[diamond_index(lattice, t)]


@stored
def diamond_index(lattice: CongruenceLattice, t: int) -> int:
    leq = lattice.leq
    return lattice.join_many(a for a in center_index(lattice)[0] if leq[a][t])


def is_regular(alg: FiniteAlgebra, theta: Congruence) -> bool:
    lattice, t = _indices(alg, theta)
    return diamond_index(lattice, t) == t


def diamond_star_commute(alg: FiniteAlgebra, theta: Congruence) -> bool:
    """The ideal of the reticulation generated by the complemented part of
    theta* equals (theta-diamond)*; also: regular theta gives a regular
    ideal theta*."""
    return diamond_star_commute_index(*_indices(alg, theta))


def diamond_star_commute_index(lattice: CongruenceLattice, t: int) -> bool:
    from .reticulation import reticulation_index

    _, retic_lattice, lam = reticulation_index(lattice)
    center = set(lattice_center(retic_lattice))
    ideal = LatticeIdeal(retic_lattice, lam[t])  # theta*
    # the generator of the ideal generated by the complemented part of theta*
    ideal_diamond = retic_lattice.join_many(x for x in ideal.members() if x in center)
    dia = diamond_index(lattice, t)
    if ideal_diamond != lam[dia]:
        return False
    return dia != t or ideal_diamond == ideal.generator


@stored
def _coprime_pairs(lattice: CongruenceLattice) -> list[tuple[int, int, int]]:
    """(i, j, [i,j]) for all ordered pairs with join the top congruence."""
    table, top = commutator_table(lattice), lattice.top_index
    return [
        (i, j, table[i][j])
        for i, row in enumerate(lattice.join_table)
        for j, joined in enumerate(row)
        if joined == top
    ]


@stored
def _center_pair_bits(lattice: CongruenceLattice) -> tuple[list[int], list[int]]:
    """Over the center pairs (alpha, alpha'), k-th in center order, where
    alpha' is alpha's complement: for each congruence x, the int bitsets
    {k : alpha_k <= x} and {k : alpha'_k <= x}."""
    members, complement, _ = center_index(lattice)
    below_a = [0] * len(lattice)
    below_na = [0] * len(lattice)
    for k, a in enumerate(members):
        for x, (above_a, above_na) in enumerate(zip(lattice.leq[a], lattice.leq[complement[a]])):
            if above_a:
                below_a[x] |= 1 << k
            if above_na:
                below_na[x] |= 1 << k
    return below_a, below_na


def cblp_characterization(alg: FiniteAlgebra, theta: Congruence) -> LiftingReport:
    """The four equivalent characterizations of CBLP for theta:

    (1) the lifting property itself; (2)/(3) a complemented congruence
    separating theta v phi from theta v psi for all coprime phi, psi with
    [phi, psi] below (resp. equal to) theta; (4) the center of
    A/(theta v phi-diamond) is trivial for every maximal phi.

    Requires the reticulation to preserve the Boolean center; when it does
    not, the verdicts are still computed and the report is marked
    exploratory.
    """
    from .reticulation import center_preservation_index

    lattice, t = _indices(alg, theta)
    c1, c2, c3, c4 = cblp_characterization_index(lattice, t)
    exploratory = not center_preservation_index(lattice)[0]
    thm63 = {"c1": c1, "c2": c2, "c3": c3, "c4": c4}
    return _lifting_report(alg, lattice, t, thm63, exploratory)


def cblp_characterization_index(lattice: CongruenceLattice, t: int) -> tuple[bool, ...]:
    below_a, below_na = _center_pair_bits(lattice)
    leq, join_t = lattice.leq, lattice.join_table[t]

    # phi, psi are separated when some center pair (alpha, alpha') has
    # alpha <= theta v phi and alpha' <= theta v psi
    c2 = True
    c3 = True  # c3's pairs ([phi,psi] = theta) are a subset of c2's
    for i, j, cij in _coprime_pairs(lattice):
        if not leq[cij][t] or below_a[join_t[i]] & below_na[join_t[j]]:
            continue
        c2 = False
        if cij == t:
            c3 = False
            break

    c4 = True
    for m in spectrum_index(lattice, False)[1]:
        joined = join_t[diamond_index(lattice, m)]
        if len(quotient_center_index(lattice, joined)[0]) > 2:
            c4 = False
            break

    return cblp_index(lattice, t)[0], c2, c3, c4


def regular_join_transfer(alg: FiniteAlgebra, theta: Congruence, chi: Congruence) -> bool:
    """theta CBLP and chi regular imply theta v chi CBLP (vacuously true
    when the hypotheses fail)."""
    lattice, t, c = _indices(alg, theta, chi)
    if not (cblp_index(lattice, t)[0] and diamond_index(lattice, c) == c):
        return True
    return cblp_index(lattice, lattice.join_table[t][c])[0]


def noncoprime_meet_transfer(alg: FiniteAlgebra, theta: Congruence, chi: Congruence) -> bool:
    """Non-coprime theta, chi with theta CBLP and trivial center of A/chi
    give theta n chi CBLP (vacuously true when the hypotheses fail)."""
    lattice, t, c = _indices(alg, theta, chi)
    if lattice.join_table[t][c] == lattice.top_index:
        return True
    if not cblp_index(lattice, t)[0]:
        return True
    if len(quotient_center_index(lattice, c)[0]) > 2:
        return True
    return cblp_index(lattice, lattice.meet_table[t][c])[0]


def _require_below_rad(lattice: CongruenceLattice, t: int) -> None:
    if not lattice.leq[t][spectrum_index(lattice, False)[2]]:
        raise HypothesisNotMet("theta must be contained in Rad(A)")


def quotient_cblp_descent(alg: FiniteAlgebra, theta: Congruence) -> bool:
    """For theta below Rad(A) that itself has CBLP: if A/theta has CBLP then
    so does A, and if A/theta is B-normal then A is B-normal.  Raises
    HypothesisNotMet when theta is not below Rad(A).

    The lifting hypothesis on theta is required: without it the descent is
    refuted by the pentagon with theta = Rad(N5) (the quotient is the 2x2
    lattice, CBLP everywhere, while Rad(N5) itself does not lift; see
    ``literal_quotient_descent``).
    """
    return quotient_cblp_descent_index(*_indices(alg, theta))


def quotient_cblp_descent_index(lattice: CongruenceLattice, t: int) -> bool:
    _require_below_rad(lattice, t)
    if not cblp_index(lattice, t)[0]:
        return True
    quotient_lattice = projection(lattice, t).lattice
    if _all_cblp(quotient_lattice) and not _all_cblp(lattice):
        return False
    if b_normal_index(quotient_lattice) is None and b_normal_index(lattice) is not None:
        return False
    return True


def literal_quotient_descent(alg: FiniteAlgebra, theta: Congruence) -> bool:
    """The descent without the lifting hypothesis on theta: false in general
    (the pentagon refutes it); kept so the counterexample can be exhibited."""
    lattice, t = _indices(alg, theta)
    _require_below_rad(lattice, t)
    quotient_center_index(lattice, t)  # the theory gate on A/theta
    return _all_cblp(lattice) or not _all_cblp(projection(lattice, t).lattice)


class BNormalReport:
    __slots__ = ("algebra", "b_normal", "counterexample")

    def __init__(self, algebra, b_normal, counterexample):
        self.algebra = algebra
        self.b_normal = b_normal
        self.counterexample = counterexample  # a coprime pair with no separating pair


def is_b_normal(alg: FiniteAlgebra) -> BNormalReport:
    """For every coprime pair (chi, eps) there are complemented alpha, beta
    with chi v alpha = eps v beta = nabla and [alpha, beta] = bottom."""
    require_theory(alg)
    lattice = con_lattice(alg)
    pair = b_normal_index(lattice)
    if pair is not None:
        pair = tuple(lattice.congruences[i] for i in pair)
    return BNormalReport(alg, pair is None, pair)


@stored
def b_normal_index(lattice: CongruenceLattice) -> tuple[int, int] | None:
    """The first coprime pair with no separating pair, or None."""
    top = lattice.top_index
    bottom = lattice.bottom_index
    members, table = center_index(lattice)[0], commutator_table(lattice)
    # the candidate separating pairs (alpha, beta), k-th as an int bit
    orthogonal = [(a, b) for a in members for b in members if table[a][b] == bottom]
    by_a: dict[int, int] = {}  # a -> {k : alpha_k = a}
    by_b: dict[int, int] = {}
    for k, (a, b) in enumerate(orthogonal):
        by_a[a] = by_a.get(a, 0) | 1 << k
        by_b[b] = by_b.get(b, 0) | 1 << k
    # for each chi: {k : chi v alpha_k = nabla} and {k : chi v beta_k = nabla}
    cov_a = [0] * len(lattice)
    cov_b = [0] * len(lattice)
    for x, row in enumerate(lattice.join_table):
        for a, bits in by_a.items():
            if row[a] == top:
                cov_a[x] |= bits
        for b, bits in by_b.items():
            if row[b] == top:
                cov_b[x] |= bits
    return next(((i, j) for i, j, _ in _coprime_pairs(lattice) if not cov_a[i] & cov_b[j]), None)


def hyperarchimedean_cblp(alg: FiniteAlgebra) -> bool:
    """A hyperarchimedean algebra has CBLP at every congruence (vacuously
    true when the algebra is not hyperarchimedean)."""
    return not is_hyperarchimedean(alg) or _all_cblp(con_lattice(alg))


# ---------------------------------------------------------------------------
# Orthogonal lifting


def _check_orthogonal(lattice: CongruenceLattice, members, items) -> None:
    con, bottom = lattice.congruences, lattice.bottom_index
    for x, y in combinations(items, 2):
        if lattice.meet_index(x, y) != bottom or commutator_index(lattice, x, y) != bottom:
            raise NotOrthogonal(f"{con[x]} and {con[y]} are not orthogonal")
    for x in items:
        if x not in members:
            raise NotOrthogonal(f"{con[x]} is not complemented")


def lift_orthogonal(
    alg: FiniteAlgebra, theta: Congruence, omega_prime
) -> list[Congruence]:
    """Lift an orthogonal family from B(Con(A/theta)) to an orthogonal family
    of B(Con(A)) mapping onto it, by inductive disjointing: each raw lift is
    cut down by the complement of the join of the lifts built so far."""
    lattice, t = _indices(alg, theta)
    qlattice = projection(lattice, t).lattice
    family = tuple(qlattice.index(beta) for beta in omega_prime)
    return [lattice.congruences[a] for a in lift_orthogonal_index(lattice, t, family)]


def lift_orthogonal_index(lattice: CongruenceLattice, t: int, family) -> list[int]:
    cblp, witnesses, _ = cblp_index(lattice, t)
    if not cblp:
        raise NoCBLP(f"{lattice.congruences[t]} does not have CBLP")
    qlattice = projection(lattice, t).lattice
    _check_orthogonal(qlattice, quotient_center_index(lattice, t)[0], family)

    name = lattice.algebra.name
    members, complement, _ = center_index(lattice)
    witness = dict(witnesses)
    lifted: list[int] = []
    for k in family:
        sofar = lattice.join_many(lifted)
        if sofar not in complement:
            raise Falsified(f"{name}: join of complemented congruences left the center")
        alpha = lattice.meet_index(witness[k], complement[sofar])
        if projection_image_index(lattice, t, alpha) != k:
            raise Falsified(
                f"{name}: disjointed lift of {qlattice.congruences[k]} no longer projects onto it"
            )
        lifted.append(alpha)
    _check_orthogonal(lattice, members, lifted)
    return lifted


class OrthogonalReport:
    __slots__ = (
        "algebra", "theta", "families_checked", "unique_lifts", "lifts_orthogonal",
        "atoms_lift_to_atoms", "difference_lemma",
    )

    def __init__(
        self, algebra, theta, families_checked, unique_lifts, lifts_orthogonal, atoms_lift_to_atoms,
        difference_lemma,
    ):
        self.algebra = algebra
        self.theta = theta
        self.families_checked = families_checked
        self.unique_lifts = unique_lifts
        self.lifts_orthogonal = lifts_orthogonal
        self.atoms_lift_to_atoms = atoms_lift_to_atoms  # None when theta lacks CBLP
        self.difference_lemma = difference_lemma


def _orthogonal_families(lattice: CongruenceLattice, elements) -> list[tuple]:
    """All orthogonal subsets of a Boolean center (pairwise meet = bottom),
    on Con(A/theta); the one past FAMILY_CAP raises SizeBudgetExceeded."""
    bottom, meet = lattice.bottom_index, lattice.meet_table
    families: list[tuple] = []
    # depth first, each family before its extensions by later elements
    stack = [(0, ())]
    while stack:
        start, chosen = stack.pop()
        if len(families) == FAMILY_CAP:
            raise SizeBudgetExceeded(
                f"orthogonal families on the center of A/theta exceed the cap of {FAMILY_CAP}"
            )
        families.append(chosen)
        for k in reversed(range(start, len(elements))):
            e = elements[k]
            if all(meet[e][c] == bottom for c in chosen):
                stack.append((k + 1, chosen + (e,)))
    return families


def orthogonal_uniqueness_and_atoms(alg: FiniteAlgebra, theta: Congruence) -> OrthogonalReport:
    """For theta below Rad(A): liftable orthogonal families lift uniquely and
    orthogonally; when theta has CBLP, atom families lift to atom families.

    Uniqueness reduces to the center map of the projection having singleton
    fibers on B(Con(A)), which is itself a consequence of the difference
    lemma checked here.
    """
    return OrthogonalReport(alg, theta, *orthogonal_index(*_indices(alg, theta)))


def orthogonal_index(lattice: CongruenceLattice, t: int) -> tuple:
    """The fields of ``OrthogonalReport`` after ``theta``, in order."""
    _require_below_rad(lattice, t)
    rad = spectrum_index(lattice, False)[2]
    members, complement, atoms = center_index(lattice)
    qmembers, _, qatoms = quotient_center_index(lattice, t)
    leq, meet, bottom = lattice.leq, lattice.meet_table, lattice.bottom_index

    # difference lemma: complemented alpha below Rad(A) is the bottom, and
    # alpha - beta below Rad(A) forces alpha <= beta (applying this in both
    # orders is what gives the uniqueness of lifts)
    lemma = True
    for a in members:
        if leq[a][rad] and a != bottom:
            lemma = False
    for a in members:
        for b in members:
            if leq[meet[a][complement[b]]][rad] and not leq[a][b]:
                lemma = False

    # fibers of the projection on the center
    fibers: dict[int, list[int]] = {}
    for a in members:
        fibers.setdefault(projection_image_index(lattice, t, a), []).append(a)
    unique = all(len(v) == 1 for v in fibers.values())

    families = _orthogonal_families(projection(lattice, t).lattice, qmembers)
    table = commutator_table(lattice)
    lifts_orthogonal = True
    for family in families:
        if any(k not in fibers for k in family):
            continue  # not liftable; outside the theorem's hypothesis
        for x, y in combinations([fibers[k][0] for k in family], 2):
            if meet[x][y] != bottom or table[x][y] != bottom:
                lifts_orthogonal = False

    atoms_ok: bool | None = None
    if cblp_index(lattice, t)[0]:
        atoms_ok = True
        for r in range(len(qatoms) + 1):
            for chosen in combinations(qatoms, r):
                if not set(lift_orthogonal_index(lattice, t, chosen)) <= set(atoms):
                    atoms_ok = False

    return len(families), unique, lifts_orthogonal, atoms_ok, lemma


# ---------------------------------------------------------------------------
# Ring oracle


def ring_idempotents(n: int) -> list[int]:
    return [e for e in range(n) if (e * e) % n == e]


def ring_idempotent_lifting(n: int, d: int) -> bool:
    """Direct oracle: every idempotent of Z_n/dZ_n = Z_d is congruent mod d
    to an idempotent of Z_n."""
    if n <= 0 or d <= 0 or n % d != 0:
        raise HypothesisNotMet(f"need n > 0 and d > 0 dividing n, got n={n}, d={d}")
    lifts_of = {e % d for e in ring_idempotents(n)}
    return all(e in lifts_of for e in ring_idempotents(d))

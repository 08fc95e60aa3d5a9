"""Boolean centers, the congruence Boolean lifting property, and the
characterization/transfer suites built on it.

A congruence theta has CBLP when the Boolean-center map of the canonical
projection is surjective: every complemented congruence of A/theta is
(alpha v theta)/theta for some complemented alpha of A.  The center of the
quotient is computed twice, once inside the interval [theta) via residuation
(chi/theta is complemented iff chi v (chi -> theta) is the top congruence)
and once directly on the quotient algebra; a disagreement is an internal
falsification and raises :class:`Falsified`.

Every per-congruence result is computed once per Con(A) through
``@stored``, so its cross-checks run on the first call for each argument.
The quotient A/theta, chi/theta and the section back into [theta) are read
from the index maps of ``congruences.projection``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .algebra import FiniteAlgebra
from .commutator import commutator_index, require_theory, residuation
from .congruences import (
    Congruence,
    CongruenceLattice,
    con_lattice,
    congruence_from_pairs,
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
from .spectrum import spectrum

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


# ---------------------------------------------------------------------------
# Boolean centers


@dataclass(frozen=True)
class BooleanCenter:
    """The complemented congruences of an algebra, with complements."""

    elements: tuple  # congruences
    complement: dict
    atoms: tuple

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@stored
def boolean_center_of_congruences(alg: FiniteAlgebra) -> BooleanCenter:
    """B(Con(A)) from the lattice's complement search.

    Membership means some complement exists; the recorded complement is the
    annihilator, which is cross-checked to be one.
    """
    require_theory(alg)
    lattice = con_lattice(alg)
    mates = lattice.complements
    member_indices = [i for i in range(len(lattice)) if mates[i]]
    bottom = lattice.congruences[lattice.bottom_index]
    complement: dict[tuple, Congruence] = {}
    for i in member_indices:
        perp = residuation(alg, lattice.congruences[i], bottom)
        p = lattice.index(perp)
        if p not in mates[i]:
            raise Falsified(
                f"{alg.name}: annihilator of a complemented congruence is not a complement"
            )
        complement[lattice.congruences[i].blocks] = perp
    atom_indices = [
        i
        for i in member_indices
        if i != lattice.bottom_index
        and not any(
            j != i and j != lattice.bottom_index and lattice.leq_index(j, i)
            for j in member_indices
        )
    ]
    return BooleanCenter(
        elements=tuple(lattice.congruences[i] for i in member_indices),
        complement=complement,
        atoms=tuple(lattice.congruences[i] for i in atom_indices),
    )


# ---------------------------------------------------------------------------
# Canonical projections


def project_congruence(
    alg: FiniteAlgebra, theta: Congruence, chi: Congruence
) -> Congruence:
    """chi/theta for theta <= chi, as a congruence of the quotient algebra."""
    p = projection(alg, theta)
    k = p.down[con_lattice(alg).index(chi)]
    if k is None:
        raise HypothesisNotMet("chi must contain theta")
    return p.lattice.congruences[k]


@stored
def projection_image(alg: FiniteAlgebra, theta: Congruence, alpha: Congruence) -> Congruence:
    """The image congruence (alpha v theta)/theta of the canonical projection.

    Computed both as the projected join and as the congruence of the quotient
    generated by the projected pairs of alpha; the two must agree.
    """
    lattice = con_lattice(alg)
    p = projection(alg, theta)
    via_interval = p.lattice.congruences[
        p.down[lattice.join_index(lattice.index(alpha), lattice.index(theta))]
    ]
    reps = sorted(set(theta.blocks))
    block_of = {r: k for k, r in enumerate(reps)}
    seeds = []
    for cls in alpha.classes():
        first = theta.blocks[cls[0]]
        for other in cls[1:]:
            seeds.append((block_of[first], block_of[theta.blocks[other]]))
    via_generation = congruence_from_pairs(p.quotient, seeds)
    if via_interval.blocks != via_generation.blocks:
        raise Falsified(f"{alg.name}: projected join and generated image disagree")
    return via_interval


def section_congruence(
    alg: FiniteAlgebra, theta: Congruence, quotient_congruence: Congruence
) -> Congruence:
    """The inverse of chi -> chi/theta: the member of [theta) projecting to
    the given congruence of A/theta."""
    p = projection(alg, theta)
    return con_lattice(alg).congruences[p.up[p.lattice.index(quotient_congruence)]]


@stored
def quotient_center_congruences(
    alg: FiniteAlgebra, theta: Congruence
) -> tuple[FiniteAlgebra, BooleanCenter]:
    """B(Con(A/theta)), computed on the quotient algebra and cross-checked
    against the interval route chi v (chi -> theta) = nabla."""
    lattice = con_lattice(alg)
    p = projection(alg, theta)
    center = boolean_center_of_congruences(p.quotient)
    top = lattice.top_index
    interval_route = set()
    for j, k in enumerate(p.down):
        if k is None:
            continue
        arrow = residuation(alg, lattice.congruences[j], theta)
        if lattice.join_index(j, lattice.index(arrow)) == top:
            interval_route.add(k)
    direct_route = {p.lattice.index(beta) for beta in center.elements}
    if interval_route != direct_route:
        raise Falsified(
            f"{alg.name}: interval and direct quotient centers disagree for theta={theta}"
        )
    return p.quotient, center


# ---------------------------------------------------------------------------
# CBLP


@dataclass(frozen=True)
class LiftingReport:
    """Per-congruence lifting verdicts.

    ``witnesses`` maps each complemented congruence of the quotient to a
    complemented lift; ``counterexample`` holds an unliftable target when
    there is one.  ``thm63`` carries the four characterization verdicts once
    they are computed; ``exploratory`` marks reports computed although the
    reticulation fails to preserve the Boolean center.
    """

    algebra: FiniteAlgebra
    theta: Congruence
    cblp: bool
    witnesses: tuple  # pairs (target in A/theta, lift in A)
    counterexample: Congruence | None
    regular: bool
    diamond: Congruence
    thm63: dict | None = None
    exploratory: bool = False

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


@stored
def has_cblp(alg: FiniteAlgebra, theta: Congruence) -> LiftingReport:
    """Decide whether B(p_theta) is surjective and record witnesses."""
    require_theory(alg)
    _, qcenter = quotient_center_congruences(alg, theta)
    center = boolean_center_of_congruences(alg)
    images = {
        alpha.blocks: projection_image(alg, theta, alpha).blocks
        for alpha in center.elements
    }
    witnesses = []
    counterexample = None
    for beta in qcenter.elements:
        lift = next(
            (
                alpha
                for alpha in center.elements
                if images[alpha.blocks] == beta.blocks
            ),
            None,
        )
        if lift is None:
            counterexample = beta
            break
        witnesses.append((beta, lift))
    dia = diamond(alg, theta)
    return LiftingReport(
        algebra=alg,
        theta=theta,
        cblp=counterexample is None,
        witnesses=tuple(witnesses),
        counterexample=counterexample,
        regular=dia.blocks == theta.blocks,
        diamond=dia,
    )


# ---------------------------------------------------------------------------
# Ideal lifting in distributive lattices


@dataclass(frozen=True)
class IdBlpReport:
    lattice: FiniteLattice
    ideal: LatticeIdeal
    lifts: bool
    witnesses: tuple  # pairs (quotient class index, lifting element)
    counterexample: int | None  # quotient class index with no lift


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
    from .reticulation import build_reticulation, star

    retic = build_reticulation(alg)
    left = has_cblp(alg, theta).cblp
    right = has_id_blp(retic.lattice, star(retic, theta)).lifts
    return left == right


# ---------------------------------------------------------------------------
# Transfer results


def radical_invariance(alg: FiniteAlgebra, theta: Congruence) -> bool:
    """CBLP is invariant under taking the radical."""
    from .spectrum import radical

    return has_cblp(alg, theta).cblp == has_cblp(alg, radical(alg, theta)).cblp


def _max_interval(alg: FiniteAlgebra, theta: Congruence) -> frozenset:
    lattice = con_lattice(alg)
    i = lattice.index(theta)
    data = spectrum(alg)
    return frozenset(
        phi.blocks
        for phi in data.maximals
        if lattice.leq_index(i, lattice.index(phi))
    )


def max_interval_transfer(alg: FiniteAlgebra, theta: Congruence, chi: Congruence) -> bool:
    """Under theta <= chi with the same maximal congruences above both:
    chi CBLP implies theta CBLP.  Raises HypothesisNotMet when the
    precondition fails."""
    if not theta.leq(chi):
        raise HypothesisNotMet("theta must be contained in chi")
    if _max_interval(alg, theta) != _max_interval(alg, chi):
        raise HypothesisNotMet("theta and chi have different maximal intervals")
    if not has_cblp(alg, chi).cblp:
        return True  # implication holds vacuously
    return has_cblp(alg, theta).cblp


def rad_cblp_criterion(alg: FiniteAlgebra) -> bool:
    """Rad(A) has CBLP iff alpha -> Max(A) n D(alpha) is a Boolean
    isomorphism from B(Con(A)) onto Clop(Max(A)).

    Also verifies on the way: the quotient-center map onto Clop(Max(A)) is a
    Boolean isomorphism, and the center map of the Rad projection is
    injective.  Any failed sub-check makes the criterion return False.
    """
    from .spectrum import brute_force_clopens

    require_theory(alg)
    lattice = con_lattice(alg)
    data = spectrum(alg)
    rad = data.rad
    max_indices = [lattice.index(phi) for phi in data.maximals]
    clopens = {tuple(sorted(u)) for u in brute_force_clopens(alg)}

    def g_image(i: int) -> tuple[int, ...]:
        return tuple(
            k for k, mi in enumerate(max_indices) if not lattice.leq_index(i, mi)
        )

    center = boolean_center_of_congruences(alg)
    g_values = {
        alpha.blocks: g_image(lattice.index(alpha)) for alpha in center.elements
    }
    # g is always an injective Boolean morphism here; surjectivity onto the
    # clopens is the criterion
    if any(u not in clopens for u in g_values.values()):
        return False
    g_iso = len(set(g_values.values())) == len(g_values) and set(
        g_values.values()
    ) == clopens

    # the quotient-center map: classes of [Rad) project to Clop(Max(A))
    p = projection(alg, rad)
    _, qcenter = quotient_center_congruences(alg, rad)
    f_values = {}
    for beta in qcenter.elements:
        k = p.lattice.index(beta)
        f_values[k] = g_image(p.up[k])
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
    rad_images = {
        alpha.blocks: projection_image(alg, rad, alpha).blocks
        for alpha in center.elements
    }
    if len(set(rad_images.values())) != len(rad_images):
        return False

    return g_iso == has_cblp(alg, rad).cblp


# ---------------------------------------------------------------------------
# Regular congruences and the characterization theorem


@stored
def diamond(alg: FiniteAlgebra, theta: Congruence) -> Congruence:
    """Join of the complemented congruences below theta."""
    lattice = con_lattice(alg)
    i = lattice.index(theta)
    below = [
        lattice.index(alpha)
        for alpha in boolean_center_of_congruences(alg).elements
        if lattice.leq_index(lattice.index(alpha), i)
    ]
    return lattice.congruences[lattice.join_many(below)]


def is_regular(alg: FiniteAlgebra, theta: Congruence) -> bool:
    return diamond(alg, theta).blocks == theta.blocks


def diamond_star_commute(alg: FiniteAlgebra, theta: Congruence) -> bool:
    """The ideal of the reticulation generated by the complemented part of
    theta* equals (theta-diamond)*; also: regular theta gives a regular
    ideal theta*."""
    from .reticulation import build_reticulation, star

    retic = build_reticulation(alg)
    lat = retic.lattice
    center = set(lattice_center(lat))
    ideal = star(retic, theta)
    # the generator of the ideal generated by the complemented part of theta*
    ideal_diamond = lat.join_many(x for x in ideal.members() if x in center)
    if ideal_diamond != star(retic, diamond(alg, theta)).generator:
        return False
    return not is_regular(alg, theta) or ideal_diamond == ideal.generator


@stored
def _coprime_pairs(lattice: CongruenceLattice) -> list[tuple[int, int, int]]:
    """(i, j, [i,j]) for all ordered pairs with join the top congruence."""
    size = len(lattice)
    top = lattice.top_index
    return [
        (i, j, commutator_index(lattice, i, j))
        for i in range(size)
        for j in range(size)
        if lattice.join_index(i, j) == top
    ]


@stored
def _center_pair_bits(alg: FiniteAlgebra) -> tuple[list[int], list[int]]:
    """Over the center pairs (alpha, alpha'), k-th in center order, where
    alpha' is alpha's complement: for each congruence x, the int bitsets
    {k : alpha_k <= x} and {k : alpha'_k <= x}."""
    lattice = con_lattice(alg)
    center = boolean_center_of_congruences(alg)
    below_a = [0] * len(lattice)
    below_na = [0] * len(lattice)
    for k, alpha in enumerate(center.elements):
        a = lattice.index(alpha)
        na = lattice.index(center.complement[alpha.blocks])
        for x, (above_a, above_na) in enumerate(zip(lattice.leq[a], lattice.leq[na])):
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
    from .reticulation import preserves_boolean_center

    base = has_cblp(alg, theta)
    exploratory = not preserves_boolean_center(alg).preserves
    lattice = con_lattice(alg)
    t = lattice.index(theta)
    below_a, below_na = _center_pair_bits(alg)
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
    for phi in spectrum(alg).maximals:
        dia = diamond(alg, phi)
        joined = lattice.congruences[
            lattice.join_index(t, lattice.index(dia))
        ]
        _, qcenter = quotient_center_congruences(alg, joined)
        if len(qcenter) > 2:
            c4 = False
            break

    thm63 = {"c1": base.cblp, "c2": c2, "c3": c3, "c4": c4}
    return LiftingReport(
        algebra=alg,
        theta=theta,
        cblp=base.cblp,
        witnesses=base.witnesses,
        counterexample=base.counterexample,
        regular=base.regular,
        diamond=base.diamond,
        thm63=thm63,
        exploratory=exploratory,
    )


def regular_join_transfer(alg: FiniteAlgebra, theta: Congruence, chi: Congruence) -> bool:
    """theta CBLP and chi regular imply theta v chi CBLP (vacuously true
    when the hypotheses fail)."""
    if not (has_cblp(alg, theta).cblp and is_regular(alg, chi)):
        return True
    lattice = con_lattice(alg)
    joined = lattice.congruences[
        lattice.join_index(lattice.index(theta), lattice.index(chi))
    ]
    return has_cblp(alg, joined).cblp


def noncoprime_meet_transfer(alg: FiniteAlgebra, theta: Congruence, chi: Congruence) -> bool:
    """Non-coprime theta, chi with theta CBLP and trivial center of A/chi
    give theta n chi CBLP (vacuously true when the hypotheses fail)."""
    lattice = con_lattice(alg)
    i, j = lattice.index(theta), lattice.index(chi)
    if lattice.join_index(i, j) == lattice.top_index:
        return True
    if not has_cblp(alg, theta).cblp:
        return True
    _, qcenter = quotient_center_congruences(alg, chi)
    if len(qcenter) > 2:
        return True
    met = lattice.congruences[lattice.meet_index(i, j)]
    return has_cblp(alg, met).cblp


def quotient_cblp_descent(alg: FiniteAlgebra, theta: Congruence) -> bool:
    """For theta below Rad(A) that itself has CBLP: if A/theta has CBLP then
    so does A, and if A/theta is B-normal then A is B-normal.  Raises
    HypothesisNotMet when theta is not below Rad(A).

    The lifting hypothesis on theta is required: without it the descent is
    refuted by the pentagon with theta = Rad(N5) (the quotient is the 2x2
    lattice, CBLP everywhere, while Rad(N5) itself does not lift; see
    ``literal_quotient_descent``).
    """
    lattice = con_lattice(alg)
    rad = spectrum(alg).rad
    if not lattice.leq_index(lattice.index(theta), lattice.index(rad)):
        raise HypothesisNotMet("theta must be contained in Rad(A)")
    if not has_cblp(alg, theta).cblp:
        return True
    quo, _ = quotient_center_congruences(alg, theta)
    quo_all_cblp = all(
        has_cblp(quo, chi).cblp for chi in con_lattice(quo).congruences
    )
    alg_all_cblp = all(has_cblp(alg, chi).cblp for chi in lattice.congruences)
    if quo_all_cblp and not alg_all_cblp:
        return False
    if is_b_normal(quo).b_normal and not is_b_normal(alg).b_normal:
        return False
    return True


def literal_quotient_descent(alg: FiniteAlgebra, theta: Congruence) -> bool:
    """The descent without the lifting hypothesis on theta: false in general
    (the pentagon refutes it); kept so the counterexample can be exhibited."""
    lattice = con_lattice(alg)
    rad = spectrum(alg).rad
    if not lattice.leq_index(lattice.index(theta), lattice.index(rad)):
        raise HypothesisNotMet("theta must be contained in Rad(A)")
    quo, _ = quotient_center_congruences(alg, theta)
    quo_all_cblp = all(
        has_cblp(quo, chi).cblp for chi in con_lattice(quo).congruences
    )
    alg_all_cblp = all(has_cblp(alg, chi).cblp for chi in lattice.congruences)
    return alg_all_cblp or not quo_all_cblp


@dataclass(frozen=True)
class BNormalReport:
    algebra: FiniteAlgebra
    b_normal: bool
    counterexample: tuple | None  # a coprime pair with no separating pair


@stored
def is_b_normal(alg: FiniteAlgebra) -> BNormalReport:
    """For every coprime pair (chi, eps) there are complemented alpha, beta
    with chi v alpha = eps v beta = nabla and [alpha, beta] = bottom."""
    require_theory(alg)
    lattice = con_lattice(alg)
    top = lattice.top_index
    bottom = lattice.bottom_index
    center = boolean_center_of_congruences(alg)
    center_indices = [lattice.index(alpha) for alpha in center.elements]
    # the candidate separating pairs (alpha, beta), k-th as an int bit
    orthogonal = [
        (a, b)
        for a in center_indices
        for b in center_indices
        if commutator_index(lattice, a, b) == bottom
    ]
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
    counterexample = None
    for i, j, _ in _coprime_pairs(lattice):
        if not cov_a[i] & cov_b[j]:
            counterexample = (lattice.congruences[i], lattice.congruences[j])
            break
    return BNormalReport(
        algebra=alg, b_normal=counterexample is None, counterexample=counterexample
    )


def hyperarchimedean_cblp(alg: FiniteAlgebra) -> bool:
    """A hyperarchimedean algebra has CBLP at every congruence (vacuously
    true when the algebra is not hyperarchimedean)."""
    from .spectrum import is_hyperarchimedean

    if not is_hyperarchimedean(alg):
        return True
    lattice = con_lattice(alg)
    return all(has_cblp(alg, theta).cblp for theta in lattice.congruences)


# ---------------------------------------------------------------------------
# Orthogonal lifting


def _check_orthogonal(center: BooleanCenter, lattice, items) -> None:
    for x, y in combinations(items, 2):
        i, j = lattice.index(x), lattice.index(y)
        if (
            lattice.meet_index(i, j) != lattice.bottom_index
            or commutator_index(lattice, i, j) != lattice.bottom_index
        ):
            raise NotOrthogonal(f"{x} and {y} are not orthogonal")
    members = {c.blocks for c in center.elements}
    for x in items:
        if x.blocks not in members:
            raise NotOrthogonal(f"{x} is not complemented")


def lift_orthogonal(
    alg: FiniteAlgebra, theta: Congruence, omega_prime
) -> list[Congruence]:
    """Lift an orthogonal family from B(Con(A/theta)) to an orthogonal family
    of B(Con(A)) mapping onto it, by inductive disjointing: each raw lift is
    cut down by the complement of the join of the lifts built so far."""
    report = has_cblp(alg, theta)
    if not report.cblp:
        raise NoCBLP(f"{theta} does not have CBLP")
    quo, qcenter = quotient_center_congruences(alg, theta)
    qlattice = con_lattice(quo)
    omega_prime = list(omega_prime)
    _check_orthogonal(qcenter, qlattice, omega_prime)

    lattice = con_lattice(alg)
    center = boolean_center_of_congruences(alg)
    witness = {b.blocks: a for b, a in report.witnesses}
    lifted: list[Congruence] = []
    for beta in omega_prime:
        raw = witness[beta.blocks]
        sofar = lattice.congruences[
            lattice.join_many(lattice.index(x) for x in lifted)
        ]
        if sofar.blocks not in center.complement:
            raise Falsified(f"{alg.name}: join of complemented congruences left the center")
        cut = center.complement[sofar.blocks]
        alpha = lattice.congruences[
            lattice.meet_index(lattice.index(raw), lattice.index(cut))
        ]
        if projection_image(alg, theta, alpha).blocks != beta.blocks:
            raise Falsified(f"{alg.name}: disjointed lift of {beta} no longer projects onto it")
        lifted.append(alpha)
    _check_orthogonal(center, lattice, lifted)
    return lifted


@dataclass(frozen=True)
class OrthogonalReport:
    algebra: FiniteAlgebra
    theta: Congruence
    families_checked: int
    unique_lifts: bool
    lifts_orthogonal: bool
    atoms_lift_to_atoms: bool | None  # None when theta lacks CBLP
    difference_lemma: bool


def _orthogonal_families(center: BooleanCenter, lattice) -> list[tuple]:
    """All orthogonal subsets of a Boolean center (pairwise meet = bottom)."""
    elements = [lattice.index(x) for x in center.elements]
    bottom = lattice.bottom_index
    families: list[tuple] = []

    def extend(start: int, chosen: tuple):
        families.append(chosen)
        for k in range(start, len(elements)):
            e = elements[k]
            if all(lattice.meet_index(e, c) == bottom for c in chosen):
                extend(k + 1, chosen + (e,))

    extend(0, ())
    return families


def orthogonal_uniqueness_and_atoms(alg: FiniteAlgebra, theta: Congruence) -> OrthogonalReport:
    """For theta below Rad(A): liftable orthogonal families lift uniquely and
    orthogonally; when theta has CBLP, atom families lift to atom families.

    Uniqueness reduces to the center map of the projection having singleton
    fibers on B(Con(A)), which is itself a consequence of the difference
    lemma checked here.
    """
    lattice = con_lattice(alg)
    rad = spectrum(alg).rad
    if not lattice.leq_index(lattice.index(theta), lattice.index(rad)):
        raise HypothesisNotMet("theta must be contained in Rad(A)")

    center = boolean_center_of_congruences(alg)
    quo, qcenter = quotient_center_congruences(alg, theta)
    qlattice = con_lattice(quo)
    rad_index = lattice.index(rad)

    # difference lemma: complemented alpha below Rad(A) is the bottom, and
    # alpha - beta below Rad(A) forces alpha <= beta (applying this in both
    # orders is what gives the uniqueness of lifts)
    lemma = True
    for alpha in center.elements:
        if (
            lattice.leq_index(lattice.index(alpha), rad_index)
            and lattice.index(alpha) != lattice.bottom_index
        ):
            lemma = False
    for alpha in center.elements:
        for beta in center.elements:
            diff = lattice.meet_index(
                lattice.index(alpha),
                lattice.index(center.complement[beta.blocks]),
            )
            if lattice.leq_index(diff, rad_index) and not lattice.leq_index(
                lattice.index(alpha), lattice.index(beta)
            ):
                lemma = False

    # fibers of the projection on the center
    fibers: dict[tuple, list[Congruence]] = {}
    for alpha in center.elements:
        fibers.setdefault(
            projection_image(alg, theta, alpha).blocks, []
        ).append(alpha)
    unique = all(len(v) == 1 for v in fibers.values())

    families = _orthogonal_families(qcenter, qlattice)
    if len(families) > FAMILY_CAP:
        raise SizeBudgetExceeded(
            f"{len(families)} orthogonal families exceed the cap {FAMILY_CAP}"
        )
    lifts_orthogonal = True
    for family in families:
        targets = [qlattice.congruences[k].blocks for k in family]
        if any(t not in fibers for t in targets):
            continue  # not liftable; outside the theorem's hypothesis
        lift = [fibers[t][0] for t in targets]
        for x, y in combinations(lift, 2):
            i, j = lattice.index(x), lattice.index(y)
            if (
                lattice.meet_index(i, j) != lattice.bottom_index
                or commutator_index(lattice, i, j) != lattice.bottom_index
            ):
                lifts_orthogonal = False

    atoms_ok: bool | None = None
    if has_cblp(alg, theta).cblp:
        atoms_ok = True
        atom_blocks = {a.blocks for a in center.atoms}
        qatoms = list(qcenter.atoms)
        for r in range(len(qatoms) + 1):
            for chosen in combinations(qatoms, r):
                lifted = lift_orthogonal(alg, theta, list(chosen))
                if any(a.blocks not in atom_blocks for a in lifted):
                    atoms_ok = False

    return OrthogonalReport(
        algebra=alg,
        theta=theta,
        families_checked=len(families),
        unique_lifts=unique,
        lifts_orthogonal=lifts_orthogonal,
        atoms_lift_to_atoms=atoms_ok,
        difference_lemma=lemma,
    )


# ---------------------------------------------------------------------------
# Ring oracle


def ring_idempotents(n: int) -> list[int]:
    return [e for e in range(n) if (e * e) % n == e]


def ring_idempotent_lifting(n: int, d: int) -> bool:
    """Direct oracle: every idempotent of Z_n/dZ_n = Z_d is congruent mod d
    to an idempotent of Z_n."""
    if n % d != 0:
        raise HypothesisNotMet(f"{d} does not divide {n}")
    lifts_of = {e % d for e in ring_idempotents(n)}
    return all(e in lifts_of for e in ring_idempotents(d if d > 0 else 1))

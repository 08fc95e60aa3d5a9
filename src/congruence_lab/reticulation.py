"""The reticulation of a finite algebra.

The reticulation is the bounded distributive lattice of classes of
congruences under "same radical".  Since the radical map is a system of
canonical representatives for those classes, the lattice is materialized
directly on the radical congruences: order is inclusion, join of x and y is
rho(x v y), meet is intersection, bottom is rho(bottom) and top is the total
congruence; lambda sends a congruence to its radical.  On a finite algebra
every congruence is compact, so lambda is defined on all of Con(A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import FiniteAlgebra
from .commutator import require_theory, _iterate_chain
from .congruences import Congruence, con_lattice, stored
from .errors import TheoryHypothesisFailed
from .lattices import (
    FiniteLattice,
    LatticeIdeal,
    complemented_elements,
    lattice_from_leq,
    maximal_ideals,
    prime_ideals,
    serialize_lattice,
)
from .spectrum import radical, spectrum, v_set

__all__ = [
    "Reticulation",
    "build_reticulation",
    "lambda_",
    "star",
    "costar",
    "ideal_spectra",
    "SpecHomeomorphismReport",
    "check_spec_homeomorphism",
    "CenterPreservationReport",
    "preserves_boolean_center",
]


@dataclass(frozen=True)
class Reticulation:
    """The reticulation, realized on the radical congruences of the algebra."""

    algebra: FiniteAlgebra
    elements: tuple[Congruence, ...]  # radical congruences, canonical order
    lattice: FiniteLattice  # order = inclusion; join/meet per the docstring
    _lambda_by_con: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def bottom(self) -> Congruence:
        return self.elements[self.lattice.bottom_index]

    @property
    def top(self) -> Congruence:
        return self.elements[self.lattice.top_index]

    def element_index(self, value: Congruence) -> int:
        for k, element in enumerate(self.elements):
            if element.blocks == value.blocks:
                return k
        raise KeyError(f"{list(value.blocks)} is not a radical congruence")

    def lambda_index(self, theta: Congruence) -> int:
        lattice = con_lattice(self.algebra)
        return self._lambda_by_con[lattice.index(theta)]

    def serialize(self) -> dict:
        return serialize_lattice(self.lattice)


@stored
def build_reticulation(alg: FiniteAlgebra) -> Reticulation:
    """Construct the reticulation; distributivity and meet-closure of the
    radical congruences are verified and their failure raises
    TheoryHypothesisFailed."""
    require_theory(alg)
    lattice = con_lattice(alg)
    radicals: list[int] = []
    lambda_by_con = []
    for theta in lattice.congruences:
        rho = lattice.index(radical(alg, theta))
        lambda_by_con.append(rho)
        if rho not in radicals:
            radicals.append(rho)
    radicals.sort(key=lambda i: lattice.congruences[i].blocks)
    position = {i: k for k, i in enumerate(radicals)}
    size = len(radicals)
    leq = [
        [lattice.leq_index(radicals[a], radicals[b]) for b in range(size)]
        for a in range(size)
    ]
    retic_lattice = lattice_from_leq(leq)
    for a in range(size):
        for b in range(size):
            met = lattice.meet_index(radicals[a], radicals[b])
            if met not in position:
                raise TheoryHypothesisFailed(
                    f"{alg.name}: intersection of radical congruences is not radical"
                )
            if retic_lattice.meet_index(a, b) != position[met]:
                raise TheoryHypothesisFailed(
                    f"{alg.name}: reticulation meet disagrees with intersection"
                )
            joined = lambda_by_con[lattice.join_index(radicals[a], radicals[b])]
            if retic_lattice.join_index(a, b) != position[joined]:
                raise TheoryHypothesisFailed(
                    f"{alg.name}: reticulation join disagrees with rho of the join"
                )
    if not retic_lattice.is_distributive():
        raise TheoryHypothesisFailed(f"{alg.name}: reticulation is not distributive")
    return Reticulation(
        algebra=alg,
        elements=tuple(lattice.congruences[i] for i in radicals),
        lattice=retic_lattice,
        _lambda_by_con=tuple(position[i] for i in lambda_by_con),
    )


def lambda_(retic: Reticulation, theta: Congruence) -> Congruence:
    """The quotient map onto the reticulation: theta's radical."""
    return retic.elements[retic.lambda_index(theta)]


def star(retic: Reticulation, theta: Congruence) -> LatticeIdeal:
    """theta* = {lambda(alpha) : alpha <= theta}, the ideal (lambda(theta)]
    of the reticulation.

    lambda is monotone, so every lambda(alpha) with alpha <= theta lies below
    lambda(theta), which is itself in the set; the ideal is therefore stored
    as its generator lambda(theta).  The definitional set is recomputed and
    compared by the ``verify`` reticulation suite.
    """
    return LatticeIdeal(retic.lattice, retic.lambda_index(theta))


def costar(retic: Reticulation, ideal: LatticeIdeal) -> Congruence:
    """I_* = join of all congruences whose lambda-image lies in I = (g],
    that is the congruences j with lambda(j) <= g."""
    lattice = con_lattice(retic.algebra)
    inside = [row[ideal.generator] for row in retic.lattice.leq]
    qualifying = [
        j for j, lam in enumerate(retic._lambda_by_con) if inside[lam]
    ]
    return lattice.congruences[lattice.join_many(qualifying)]


def ideal_spectra(lattice: FiniteLattice) -> tuple[list[LatticeIdeal], list[LatticeIdeal]]:
    """Prime ideals and maximal ideals of a finite bounded distributive lattice."""
    return prime_ideals(lattice), maximal_ideals(lattice)


@dataclass(frozen=True)
class SpecHomeomorphismReport:
    """Outcome of checking that star/costar match the two prime spectra.

    Mismatches are collected as data rather than raised, so exploratory
    inputs outside the intended theory can still be inspected.
    """

    algebra: FiniteAlgebra
    prime_count: int
    ideal_prime_count: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_spec_homeomorphism(alg: FiniteAlgebra) -> SpecHomeomorphismReport:
    """Verify that phi -> phi* and P -> P_* are mutually inverse order
    isomorphisms between the prime congruences and the prime ideals of the
    reticulation, carry the basic opens across, and restrict to a lattice
    isomorphism between the radical congruences and the ideal lattice."""
    require_theory(alg)
    retic = build_reticulation(alg)
    lattice = con_lattice(alg)
    data = spectrum(alg)
    failures: list[str] = []

    primes = list(data.primes)
    ideal_primes, _ = ideal_spectra(retic.lattice)
    ideal_keys = {ideal.generator for ideal in ideal_primes}

    if len(primes) != len(ideal_primes):
        failures.append(
            f"|Spec(A)| = {len(primes)} but |Spec_Id(L(A))| = {len(ideal_primes)}"
        )

    images = {}
    for phi in primes:
        u_phi = star(retic, phi)
        if u_phi.generator not in ideal_keys:
            failures.append(f"star of prime {phi} is not a prime ideal")
            continue
        images[phi.blocks] = u_phi
        back = costar(retic, u_phi)
        if back.blocks != phi.blocks:
            failures.append(f"costar(star({phi})) != {phi}")
    if len({ideal.generator for ideal in images.values()}) != len(images):
        failures.append("star is not injective on primes")

    for ideal in ideal_primes:
        down = costar(retic, ideal)
        if not any(down.blocks == phi.blocks for phi in primes):
            failures.append("costar of a prime ideal is not a prime congruence")
            continue
        if star(retic, down).generator != ideal.generator:
            failures.append("star(costar(I)) != I for a prime ideal")

    if len(images) == len(primes):
        for phi in primes:
            for psi in primes:
                forward = retic.lattice.leq_index(
                    images[phi.blocks].generator, images[psi.blocks].generator
                )
                if phi.leq(psi) != forward:
                    failures.append(
                        f"star does not preserve/reflect order at {phi}, {psi}"
                    )

    # basic opens: the primes above alpha go to the prime ideals containing
    # lambda(alpha)
    for alpha in lattice.congruences:
        lam = retic.lambda_index(alpha)
        left = {primes[k].blocks for k in v_set(alg, alpha)}
        right = {
            costar(retic, ideal).blocks for ideal in ideal_primes if lam in ideal
        }
        if left != right:
            failures.append(f"V({alpha}) does not match V_Id(lambda) on primes")

    # radical congruences vs the ideal lattice: star is a bounded lattice
    # isomorphism
    radicals = retic.elements
    star_of = {r.blocks: star(retic, r) for r in radicals}
    generators = {star_of[r.blocks].generator for r in radicals}
    if len(generators) != len(radicals):
        failures.append("star is not injective on radical congruences")
    if generators != set(range(retic.lattice.size)):
        failures.append("star does not reach every ideal of the reticulation")
    for x in radicals:
        for y in radicals:
            ix, iy = lattice.index(x), lattice.index(y)
            met = lattice.congruences[lattice.meet_index(ix, iy)]
            joined = radical(alg, lattice.congruences[lattice.join_index(ix, iy)])
            gx, gy = star_of[x.blocks].generator, star_of[y.blocks].generator
            # (gx] n (gy] = (gx ^ gy]
            if star(retic, met).generator != retic.lattice.meet_index(gx, gy):
                failures.append(f"star breaks meets at {x}, {y}")
            if star(retic, joined).generator != retic.lattice.join_index(gx, gy):
                failures.append(f"star breaks joins at {x}, {y}")

    return SpecHomeomorphismReport(
        algebra=alg,
        prime_count=len(primes),
        ideal_prime_count=len(ideal_primes),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class CenterPreservationReport:
    """Whether lambda carries the Boolean center of Con(A) onto the center of
    the reticulation, together with the sufficient conditions."""

    algebra: FiniteAlgebra
    preserves: bool
    violating: Congruence | None  # lambda(alpha) complemented, no iterate is
    star_property: bool  # bounded-iterate interchange of squares
    semiprime: bool

    @property
    def sufficient_conditions_hold(self) -> bool:
        return self.star_property or self.semiprime


@stored
def preserves_boolean_center(alg: FiniteAlgebra) -> CenterPreservationReport:
    """True when every congruence whose reticulation image is complemented
    has some complemented iterate [alpha, alpha]^n (n >= 0)."""
    require_theory(alg)
    from .lifting import boolean_center_of_congruences
    from .spectrum import is_semiprime

    lattice = con_lattice(alg)
    retic = build_reticulation(alg)
    center_blocks = {
        theta.blocks for theta in boolean_center_of_congruences(alg).elements
    }
    lattice_center = set(complemented_elements(retic.lattice))
    preserves = True
    violating = None
    for i, theta in enumerate(lattice.congruences):
        if retic._lambda_by_con[i] not in lattice_center:
            continue
        chain, _ = _iterate_chain(lattice, i)
        if not any(lattice.congruences[k].blocks in center_blocks for k in chain):
            preserves = False
            violating = theta
            break
    return CenterPreservationReport(
        algebra=alg,
        preserves=preserves,
        violating=violating,
        star_property=_star_property(alg),
        semiprime=is_semiprime(alg),
    )


def _star_property(alg: FiniteAlgebra) -> bool:
    """For all alpha, beta and n >= 1, some m has
    [[alpha,alpha]^m, [beta,beta]^m] <= [alpha,beta]^n; m and n are bounded
    by the stabilization indices of their chains, which is sound because the
    chains are eventually constant."""
    from .commutator import commutator_index

    lattice = con_lattice(alg)
    size = len(lattice)
    for a in range(size):
        chain_a, _ = _iterate_chain(lattice, a)
        for b in range(size):
            chain_b, _ = _iterate_chain(lattice, b)
            c = commutator_index(lattice, a, b)
            chain_c, _ = _iterate_chain(lattice, c)
            bound = max(len(chain_a), len(chain_b))
            for n_value in chain_c:  # the values [alpha,beta]^n, n >= 1
                found = False
                for m in range(bound):
                    am = chain_a[min(m, len(chain_a) - 1)]
                    bm = chain_b[min(m, len(chain_b) - 1)]
                    if lattice.leq_index(commutator_index(lattice, am, bm), n_value):
                        found = True
                        break
                if not found:
                    return False
    return True

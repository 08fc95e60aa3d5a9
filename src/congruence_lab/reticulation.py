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

from .algebra import FiniteAlgebra
from .commutator import commutator_table, require_theory, _iterate_chain
from .congruences import Congruence, CongruenceLattice, con_lattice, stored
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
from .spectrum import radical_index, spectrum_index, v_set_index

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


class Reticulation:
    """The reticulation, realized on the radical congruences of the algebra."""

    __slots__ = ("algebra", "elements", "lattice", "_lambda_by_con")

    def __init__(self, algebra, elements, lattice, _lambda_by_con):
        self.algebra = algebra
        self.elements = elements  # radical congruences, canonical order
        self.lattice = lattice  # order = inclusion; join/meet per the docstring
        self._lambda_by_con = _lambda_by_con

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


def build_reticulation(alg: FiniteAlgebra) -> Reticulation:
    """Construct the reticulation; distributivity and meet-closure of the
    radical congruences are verified and their failure raises
    TheoryHypothesisFailed."""
    require_theory(alg)
    lattice = con_lattice(alg)
    radicals, retic_lattice, lambda_by_con = reticulation_index(lattice)
    return Reticulation(
        alg, tuple(lattice.congruences[i] for i in radicals), retic_lattice, lambda_by_con
    )


@stored
def reticulation_index(
    lattice: CongruenceLattice,
) -> tuple[tuple[int, ...], FiniteLattice, tuple[int, ...]]:
    """The radical congruences as indices, in canonical order; the
    reticulation on them; and lambda as the position of each congruence's
    radical."""
    name = lattice.algebra.name
    lambda_by_con = [radical_index(lattice, i) for i in range(len(lattice))]
    radicals = sorted(set(lambda_by_con))  # index order is canonical order
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
                    f"{name}: intersection of radical congruences is not radical"
                )
            if retic_lattice.meet_index(a, b) != position[met]:
                raise TheoryHypothesisFailed(
                    f"{name}: reticulation meet disagrees with intersection"
                )
            joined = lambda_by_con[lattice.join_index(radicals[a], radicals[b])]
            if retic_lattice.join_index(a, b) != position[joined]:
                raise TheoryHypothesisFailed(
                    f"{name}: reticulation join disagrees with rho of the join"
                )
    if not retic_lattice.is_distributive():
        raise TheoryHypothesisFailed(f"{name}: reticulation is not distributive")
    return tuple(radicals), retic_lattice, tuple(position[i] for i in lambda_by_con)


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
    return lattice.congruences[costar_index(lattice, retic, ideal.generator)]


def costar_index(lattice: CongruenceLattice, retic: Reticulation, g: int) -> int:
    inside = [row[g] for row in retic.lattice.leq]
    return lattice.join_many(j for j, lam in enumerate(retic._lambda_by_con) if inside[lam])


def ideal_spectra(lattice: FiniteLattice) -> tuple[list[LatticeIdeal], list[LatticeIdeal]]:
    """Prime ideals and maximal ideals of a finite bounded distributive lattice."""
    return prime_ideals(lattice), maximal_ideals(lattice)


class SpecHomeomorphismReport:
    """Outcome of checking that star/costar match the two prime spectra.

    Mismatches are collected as data rather than raised, so exploratory
    inputs outside the intended theory can still be inspected.
    """

    __slots__ = ("algebra", "prime_count", "ideal_prime_count", "failures")

    def __init__(self, algebra, prime_count, ideal_prime_count, failures):
        self.algebra = algebra
        self.prime_count = prime_count
        self.ideal_prime_count = ideal_prime_count
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures


def check_spec_homeomorphism(alg: FiniteAlgebra) -> SpecHomeomorphismReport:
    """Verify that phi -> phi* and P -> P_* are mutually inverse order
    isomorphisms between the prime congruences and the prime ideals of the
    reticulation, carry the basic opens across, and restrict to a lattice
    isomorphism between the radical congruences and the ideal lattice.

    phi* is the ideal generated by lambda(phi), so it is read as that index.
    """
    require_theory(alg)
    retic = build_reticulation(alg)
    lattice = con_lattice(alg)
    con, leq, rl, lam = lattice.congruences, lattice.leq, retic.lattice, retic._lambda_by_con
    primes = spectrum_index(lattice, False)[0]
    failures: list[str] = []

    ideal_primes, _ = ideal_spectra(rl)
    ideal_keys = [ideal.generator for ideal in ideal_primes]
    down = [costar_index(lattice, retic, g) for g in range(rl.size)]  # (g]_*

    if len(primes) != len(ideal_primes):
        failures.append(
            f"|Spec(A)| = {len(primes)} but |Spec_Id(L(A))| = {len(ideal_primes)}"
        )

    images = {}
    for p in primes:
        if lam[p] not in ideal_keys:
            failures.append(f"star of prime {con[p]} is not a prime ideal")
            continue
        images[p] = lam[p]
        if down[lam[p]] != p:
            failures.append(f"costar(star({con[p]})) != {con[p]}")
    if len(set(images.values())) != len(images):
        failures.append("star is not injective on primes")

    for g in ideal_keys:
        if down[g] not in primes:
            failures.append("costar of a prime ideal is not a prime congruence")
            continue
        if lam[down[g]] != g:
            failures.append("star(costar(I)) != I for a prime ideal")

    if len(images) == len(primes):
        for p in primes:
            for q in primes:
                if leq[p][q] != rl.leq[images[p]][images[q]]:
                    failures.append(f"star does not preserve/reflect order at {con[p]}, {con[q]}")

    # basic opens: the primes above alpha go to the prime ideals containing
    # lambda(alpha)
    for a, la in enumerate(lam):
        left = {primes[k] for k in v_set_index(lattice, a)}
        if left != {down[g] for g in ideal_keys if rl.leq[la][g]}:
            failures.append(f"V({con[a]}) does not match V_Id(lambda) on primes")

    # radical congruences vs the ideal lattice: star is a bounded lattice
    # isomorphism
    radicals = [lattice.index(r) for r in retic.elements]
    generators = {lam[r] for r in radicals}
    if len(generators) != len(radicals):
        failures.append("star is not injective on radical congruences")
    if generators != set(range(rl.size)):
        failures.append("star does not reach every ideal of the reticulation")
    for x in radicals:
        meet_x, join_x, gx = lattice.meet_table[x], lattice.join_table[x], lam[x]
        for y in radicals:
            gy = lam[y]
            # (gx] n (gy] = (gx ^ gy]
            if lam[meet_x[y]] != rl.meet_table[gx][gy]:
                failures.append(f"star breaks meets at {con[x]}, {con[y]}")
            if lam[radical_index(lattice, join_x[y])] != rl.join_table[gx][gy]:
                failures.append(f"star breaks joins at {con[x]}, {con[y]}")

    return SpecHomeomorphismReport(
        algebra=alg,
        prime_count=len(primes),
        ideal_prime_count=len(ideal_primes),
        failures=tuple(failures),
    )


class CenterPreservationReport:
    """Whether lambda carries the Boolean center of Con(A) onto the center of
    the reticulation, together with the sufficient conditions."""

    __slots__ = ("algebra", "preserves", "violating", "star_property", "semiprime")

    def __init__(self, algebra, preserves, violating, star_property, semiprime):
        self.algebra = algebra
        self.preserves = preserves
        self.violating = violating  # lambda(alpha) complemented, no iterate is
        self.star_property = star_property  # bounded-iterate interchange of squares
        self.semiprime = semiprime

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @property
    def sufficient_conditions_hold(self) -> bool:
        return self.star_property or self.semiprime


def preserves_boolean_center(alg: FiniteAlgebra) -> CenterPreservationReport:
    """True when every congruence whose reticulation image is complemented
    has some complemented iterate [alpha, alpha]^n (n >= 0)."""
    require_theory(alg)
    lattice = con_lattice(alg)
    preserves, violating, star_property, semiprime = center_preservation_index(lattice)
    if violating is not None:
        violating = lattice.congruences[violating]
    return CenterPreservationReport(alg, preserves, violating, star_property, semiprime)


@stored
def center_preservation_index(lattice: CongruenceLattice) -> tuple[bool, int | None, bool, bool]:
    from .lifting import center_index

    center = set(center_index(lattice)[0])
    _, retic_lattice, lam = reticulation_index(lattice)
    lattice_center = set(complemented_elements(retic_lattice))
    violating = next(
        (
            i
            for i in range(len(lattice))
            if lam[i] in lattice_center and center.isdisjoint(_iterate_chain(lattice, i))
        ),
        None,
    )
    semiprime = spectrum_index(lattice, False)[3] == lattice.bottom_index
    return violating is None, violating, _star_property(lattice), semiprime


def _star_property(lattice: CongruenceLattice) -> bool:
    """For all alpha, beta and n >= 1, some m has
    [[alpha,alpha]^m, [beta,beta]^m] <= [alpha,beta]^n; m and n are bounded
    by the stabilization indices of their chains, which is sound because the
    chains are eventually constant."""
    table = commutator_table(lattice)
    chains = [_iterate_chain(lattice, i) for i in range(len(lattice))]
    for a, chain_a in enumerate(chains):
        for b, chain_b in enumerate(chains):
            chain_c = chains[table[a][b]]
            bound = max(len(chain_a), len(chain_b))
            for n_value in chain_c:  # the values [alpha,beta]^n, n >= 1
                found = False
                for m in range(bound):
                    am = chain_a[min(m, len(chain_a) - 1)]
                    bm = chain_b[min(m, len(chain_b) - 1)]
                    if lattice.leq_index(table[am][bm], n_value):
                        found = True
                        break
                if not found:
                    return False
    return True

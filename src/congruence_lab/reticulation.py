"""The reticulation of a finite algebra.

The reticulation is the bounded distributive lattice of classes of
congruences under "same radical".  Since the radical map is a system of
canonical representatives for those classes, the lattice is materialized
directly on the radical congruences: order is inclusion, join of x and y is
rho(x v y), meet is intersection, bottom is rho(bottom) and top is the total
congruence; lambda sends a congruence to its radical.  On a finite algebra
every congruence is compact, so lambda is defined on all of Con(A).  Only
this module builds the tables, each stored once per Con(A) and read by
every other layer: reticulation_index, costar_table, prime_ideal_index.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra
from .commutator import commutator_table, require_theory, _iterate_chain
from .congruences import Congruence, CongruenceLattice, con_lattice
from .errors import ParentMismatch, TheoryHypothesisFailed
from .lattices import (
    FiniteLattice,
    LatticeIdeal,
    _members,
    center_index,
    lattice_from_leq,
    maximal_ideals,
    prime_ideals,
    serialize_lattice,
    stored,
)
from .spectrum import open_table, radical_table, spectrum_index

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

    __slots__ = ("algebra", "elements", "lattice")

    def __init__(self, algebra, elements, lattice):
        self.algebra = algebra
        self.elements = elements  # radical congruences, canonical order
        self.lattice = lattice  # order = inclusion; join/meet per the docstring

    @property
    def bottom(self) -> Congruence:
        return self.elements[self.lattice.bottom_index]

    @property
    def top(self) -> Congruence:
        return self.elements[self.lattice.top_index]

    def element_index(self, value: Congruence) -> int:
        lattice = con_lattice(self.algebra)
        radicals, _, lam = reticulation_index(lattice)
        i = lattice.index(value)
        if radicals[lam[i]] != i:
            raise ParentMismatch(f"{list(value.blocks)} is not a radical congruence")
        return lam[i]

    def lambda_index(self, theta: Congruence) -> int:
        lattice = con_lattice(self.algebra)
        return reticulation_index(lattice)[2][lattice.index(theta)]

    def serialize(self) -> dict:
        return serialize_lattice(self.lattice)


def build_reticulation(alg: FiniteAlgebra) -> Reticulation:
    """Construct the reticulation; its distributivity is verified and its
    failure raises TheoryHypothesisFailed."""
    require_theory(alg)
    lattice = con_lattice(alg)
    radicals, retic_lattice, _ = reticulation_index(lattice)
    return Reticulation(alg, tuple(lattice.congruences[i] for i in radicals), retic_lattice)


@stored
def reticulation_index(
    lattice: CongruenceLattice,
) -> tuple[tuple[int, ...], FiniteLattice, tuple[int, ...]]:
    """The radical congruences as indices, in canonical order; the
    reticulation on them; and lambda as the position of each congruence's
    radical.  The radicals are the fixed points of the closure operator
    rho, so the meet and join of their order are the intersection and rho
    of the join: L(A) is read off that order alone, and ``verify``
    compares it with Con(A)'s tables."""
    lambda_by_con = radical_table(lattice)
    radicals = sorted(set(lambda_by_con))  # index order is canonical order
    position = {i: k for k, i in enumerate(radicals)}
    retic_lattice = lattice_from_leq(
        [[row[r] for r in radicals] for row in map(lattice.leq.__getitem__, radicals)]
    )
    if not retic_lattice.is_distributive():
        raise TheoryHypothesisFailed(f"{lattice.algebra.name}: reticulation is not distributive")
    return tuple(radicals), retic_lattice, tuple(position[i] for i in lambda_by_con)


@stored
def costar_table(lattice: CongruenceLattice) -> tuple[int, ...]:
    """(g]_* for every g of the reticulation: the join of the theta with
    lambda(theta) <= g."""
    _, retic_lattice, lam = reticulation_index(lattice)
    # each lambda-fiber is joined once, and (g]_* joins the fibers over (g]
    fibers = [lattice.bottom_index] * retic_lattice.size
    for j, g in enumerate(lam):
        fibers[g] = lattice.join_table[fibers[g]][j]
    return tuple(lattice.join_many(fibers[h] for h in _members(d)) for d in retic_lattice.down_sets)


@stored
def prime_ideal_index(lattice: CongruenceLattice) -> tuple[int, ...]:
    """The generators g of the prime ideals (g] of the reticulation."""
    return tuple(ideal.generator for ideal in prime_ideals(reticulation_index(lattice)[1]))


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
    that is the congruences j with lambda(j) <= g.  Raises
    :class:`ParentMismatch` when I is an ideal of another lattice."""
    if ideal.lattice != retic.lattice:
        raise ParentMismatch("the ideal is not an ideal of the reticulation")
    lattice = con_lattice(retic.algebra)
    return lattice.congruences[costar_table(lattice)[ideal.generator]]


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
    lattice = con_lattice(alg)
    radicals, rl, lam = reticulation_index(lattice)
    con, leq = lattice.congruences, lattice.leq
    primes = spectrum_index(lattice, False)[0]
    ideal_keys = prime_ideal_index(lattice)
    down = costar_table(lattice)  # (g]_*
    failures: list[str] = []

    if len(primes) != len(ideal_keys):
        failures.append(f"|Spec(A)| = {len(primes)} but |Spec_Id(L(A))| = {len(ideal_keys)}")

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

    # basic opens: the primes outside D(alpha) go to the prime ideals
    # containing lambda(alpha)
    for a, (la, d_a) in enumerate(zip(lam, open_table(lattice)[0])):
        left = {p for k, p in enumerate(primes) if not d_a >> k & 1}
        if left != {down[g] for g in ideal_keys if rl.leq[la][g]}:
            failures.append(f"V({con[a]}) does not match V_Id(lambda) on primes")

    # radical congruences vs the ideal lattice: star is a bounded lattice
    # isomorphism
    generators = {lam[r] for r in radicals}
    if len(generators) != len(radicals):
        failures.append("star is not injective on radical congruences")
    if generators != set(range(rl.size)):
        failures.append("star does not reach every ideal of the reticulation")
    rho = radical_table(lattice)
    for x in radicals:
        meet_x, join_x, gx = lattice.meet_table[x], lattice.join_table[x], lam[x]
        for y in radicals:
            gy = lam[y]
            # (gx] n (gy] = (gx ^ gy]
            if lam[meet_x[y]] != rl.meet_table[gx][gy]:
                failures.append(f"star breaks meets at {con[x]}, {con[y]}")
            if lam[rho[join_x[y]]] != rl.join_table[gx][gy]:
                failures.append(f"star breaks joins at {con[x]}, {con[y]}")

    return SpecHomeomorphismReport(
        algebra=alg,
        prime_count=len(primes),
        ideal_prime_count=len(ideal_keys),
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
    center = set(center_index(lattice, lattice.bottom_index)[0])
    _, retic_lattice, lam = reticulation_index(lattice)
    retic_center = set(retic_lattice.center)
    violating = next(
        (
            i
            for i in range(len(lattice))
            if lam[i] in retic_center and center.isdisjoint(_iterate_chain(lattice, i))
        ),
        None,
    )
    semiprime = spectrum_index(lattice, False)[3] == lattice.bottom_index
    return violating is None, violating, _star_property(lattice), semiprime


def _star_property(lattice: CongruenceLattice) -> bool:
    """For all alpha, beta and n >= 1, some m has
    [[alpha,alpha]^m, [beta,beta]^m] <= [alpha,beta]^n.  The iterate chains
    decrease and the commutator is monotone, so the left side is least at
    the stable iterates and the right side at the stable value of
    [alpha,beta]'s chain: one comparison per pair."""
    table = commutator_table(lattice)
    stable = [_iterate_chain(lattice, i)[-1] for i in range(len(lattice))]
    return all(
        lattice.leq_index(table[stable[a]][stable[b]], stable[c])
        for a, row in enumerate(table)
        for b, c in enumerate(row)
    )

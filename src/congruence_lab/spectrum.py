"""Prime and maximal congruences, radicals, and the spectral topology.

Spec(A) is the set of prime congruences: phi != nabla such that
[alpha, beta] <= phi forces alpha <= phi or beta <= phi.  Primality is
decided on join-irreducibles only (every congruence is the join of the
join-irreducibles below it and the commutator is monotone, so the two tests
agree); the all-pairs test, which reads the whole ``commutator_table``, is
kept as an oracle toggle.

The topology on Spec(A) has the sets D(theta) = {phi : theta not<= phi} as
its opens; the family is closed under unions and finite intersections, so on
a finite spectrum it is the whole topology.  Max(A) carries the subspace
topology.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra
from .commutator import commutator_index, commutator_table, require_theory, _iterate_chain
from .congruences import Congruence, CongruenceLattice, con_lattice, stored
from .errors import Falsified, SizeBudgetExceeded, TheoryHypothesisFailed

__all__ = [
    "SpectrumData",
    "OpenSet",
    "ClopenWitness",
    "is_prime",
    "spectrum",
    "radical",
    "radical_oracle",
    "is_semiprime",
    "v_set",
    "d_set",
    "clopens_of_max",
    "brute_force_clopens",
    "is_hyperarchimedean",
]

CLOPEN_CAP = 20  # |Max(A)| bound for the direct clopen enumeration


class SpectrumData:
    """Primes, maximals and the two radicals of an algebra."""

    __slots__ = ("algebra", "primes", "maximals", "rad", "nilradical")

    def __init__(self, algebra, primes, maximals, rad, nilradical):
        self.algebra = algebra
        self.primes = primes  # canonical order
        self.maximals = maximals
        self.rad = rad  # meet of the maximal congruences
        self.nilradical = nilradical  # meet of all primes = rho(bottom)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class OpenSet:
    """A basic open D(theta) of Spec(A), as indices into SpectrumData.primes."""

    __slots__ = ("theta", "members")

    def __init__(self, theta, members):
        self.theta = theta
        self.members = members


class ClopenWitness:
    """A clopen subset of Max(A) with a pair witnessing it: alpha v beta is
    the top congruence, [alpha, beta] <= Rad(A), and the set is
    Max(A) n D(alpha)."""

    __slots__ = ("members", "alpha", "beta")

    def __init__(self, members, alpha, beta):
        self.members = members  # indices into SpectrumData.maximals
        self.alpha = alpha
        self.beta = beta


def _prime_indices(lattice, all_pairs: bool) -> list[int]:
    """The p other than the top with no candidates a, b outside p whose
    commutator lies below p; each candidate's commutator row is read once,
    from the whole table when every congruence is a candidate."""
    if all_pairs:
        candidates, rows = range(len(lattice)), commutator_table(lattice)
    else:
        candidates = lattice.join_irreducible_indices()
        rows = [[commutator_index(lattice, a, b) for b in candidates] for a in candidates]
    primes = []
    for p in range(len(lattice)):
        below = [row[p] for row in lattice.leq]
        outside = [k for k, a in enumerate(candidates) if not below[a]]
        if p != lattice.top_index and not any(
            below[rows[i][k]] for i in outside for k in outside
        ):
            primes.append(p)
    return primes


def is_prime(alg: FiniteAlgebra, phi: Congruence, all_pairs: bool = False) -> bool:
    """Primality test; ``all_pairs=True`` switches to the oracle that scans
    every pair of congruences instead of the join-irreducibles."""
    require_theory(alg)
    lattice = con_lattice(alg)
    return lattice.index(phi) in set(_prime_indices(lattice, all_pairs))


def spectrum(alg: FiniteAlgebra, all_pairs: bool = False) -> SpectrumData:
    require_theory(alg)
    lattice = con_lattice(alg)
    primes, maximals, rad, nil = spectrum_index(lattice, all_pairs)
    con = lattice.congruences
    return SpectrumData(
        alg, tuple(con[i] for i in primes), tuple(con[i] for i in maximals), con[rad], con[nil]
    )


@stored
def spectrum_index(
    lattice: CongruenceLattice, all_pairs: bool
) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """The primes, the maximals, Rad(A) and the nilradical, as indices."""
    primes = tuple(_prime_indices(lattice, all_pairs))
    maximals = lattice.lower_covers[lattice.top_index]
    if not set(maximals) <= set(primes):
        raise TheoryHypothesisFailed(f"{lattice.algebra.name}: a maximal congruence is not prime")
    return primes, maximals, lattice.meet_many(maximals), lattice.meet_many(primes)


def radical(alg: FiniteAlgebra, theta: Congruence) -> Congruence:
    """rho(theta): meet of the primes above theta; the empty meet is the top
    congruence, so rho(nabla) = nabla."""
    require_theory(alg)
    lattice = con_lattice(alg)
    return lattice.congruences[radical_index(lattice, lattice.index(theta))]


@stored
def radical_index(lattice: CongruenceLattice, i: int) -> int:
    above = lattice.leq[i]
    return lattice.meet_many(p for p in spectrum_index(lattice, False)[0] if above[p])


def radical_oracle(alg: FiniteAlgebra, theta: Congruence) -> Congruence:
    """Independent route to rho(theta): the join of all congruences alpha
    whose iterate chain [alpha, alpha]^n falls below theta."""
    require_theory(alg)
    lattice = con_lattice(alg)
    return lattice.congruences[radical_oracle_table(lattice)[lattice.index(theta)]]


@stored
def radical_oracle_table(lattice: CongruenceLattice) -> tuple[int, ...]:
    """``radical_oracle`` of every congruence, as indices.

    The chain is decreasing, so it falls below theta at some n exactly when
    its stable value does; each stable value is read once.
    """
    leq = lattice.leq
    stable = [_iterate_chain(lattice, a)[-1] for a in range(len(lattice))]
    return tuple(
        lattice.join_many(a for a, s in enumerate(stable) if leq[s][i])
        for i in range(len(lattice))
    )


def is_semiprime(alg: FiniteAlgebra) -> bool:
    """True when rho(bottom) is the bottom congruence."""
    require_theory(alg)
    lattice = con_lattice(alg)
    return spectrum_index(lattice, False)[3] == lattice.bottom_index


def v_set(alg: FiniteAlgebra, theta: Congruence) -> tuple[int, ...]:
    """V(theta): indices of the primes containing theta (a closed set)."""
    require_theory(alg)
    lattice = con_lattice(alg)
    return v_set_index(lattice, lattice.index(theta))


def v_set_index(lattice: CongruenceLattice, i: int) -> tuple[int, ...]:
    above = lattice.leq[i]
    return tuple(k for k, p in enumerate(spectrum_index(lattice, False)[0]) if above[p])


def d_set(alg: FiniteAlgebra, theta: Congruence) -> OpenSet:
    """D(theta) = Spec(A) - V(theta), the basic open defined by theta."""
    data = spectrum(alg)
    inside = set(v_set(alg, theta))
    return OpenSet(
        theta=theta,
        members=tuple(k for k in range(len(data.primes)) if k not in inside),
    )


def _max_open_family(alg: FiniteAlgebra) -> tuple[list[frozenset], int]:
    """All opens of the subspace Max(A): traces of the D(theta)."""
    require_theory(alg)
    lattice = con_lattice(alg)
    maximals = spectrum_index(lattice, False)[1]
    opens = {frozenset(k for k, m in enumerate(maximals) if not row[m]) for row in lattice.leq}
    # close under unions (finite space: unions of basic opens are the opens)
    family = set(opens)
    frontier = list(opens)
    while frontier:
        current = frontier.pop()
        for other in list(family):
            merged = current | other
            if merged not in family:
                family.add(merged)
                frontier.append(merged)
    return sorted(family, key=lambda s: (len(s), sorted(s))), len(maximals)


def brute_force_clopens(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Clopen subsets of Max(A) by direct finite-topology enumeration."""
    family, count = _max_open_family(alg)
    if count > CLOPEN_CAP:
        raise SizeBudgetExceeded(f"|Max(A)| = {count} exceeds the clopen cap {CLOPEN_CAP}")
    opens = set(family)
    full = frozenset(range(count))
    return sorted(
        tuple(sorted(u)) for u in opens if frozenset(full - u) in opens
    )


def clopens_of_max(alg: FiniteAlgebra) -> list[ClopenWitness]:
    """Every clopen of Max(A), each with a witnessing pair (alpha, beta).

    Completeness is checked against the direct clopen enumeration: a clopen
    without a witness raises :class:`Falsified`, since it would falsify the
    theory on a hypothesis-passing algebra.
    """
    require_theory(alg)
    lattice = con_lattice(alg)
    _, maximals, rad, _ = spectrum_index(lattice, False)
    leq, top = lattice.leq, lattice.top_index
    witnesses = []
    for members in brute_force_clopens(alg):
        member_set = set(members)
        found = next(
            (
                (a, b)
                for a, above in enumerate(leq)
                if {k for k, m in enumerate(maximals) if not above[m]} == member_set
                for b, joined in enumerate(lattice.join_table[a])
                if joined == top and leq[commutator_index(lattice, a, b)][rad]
            ),
            None,
        )
        if found is None:
            raise Falsified(f"no witness pair for clopen {members} of {alg.name}")
        a, b = found
        witnesses.append(ClopenWitness(members, lattice.congruences[a], lattice.congruences[b]))
    return witnesses


def is_hyperarchimedean(alg: FiniteAlgebra) -> bool:
    """True when every congruence has a complemented iterate [a, a]^n.

    Uses the stabilization index, so no unbounded search: the chain is
    scanned only up to its stable value.
    """
    require_theory(alg)
    from .lifting import center_index

    lattice = con_lattice(alg)
    center = set(center_index(lattice)[0])
    for i in range(len(lattice)):
        chain = _iterate_chain(lattice, i)
        # values taken at n >= 1: the tail of the chain (a length-1 chain is
        # already its own square, so its value is also the n >= 1 value)
        if center.isdisjoint(chain[1:] or chain):
            return False
    return True

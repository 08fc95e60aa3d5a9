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
topology.  This module alone builds, once per Con(A) as stored index cores,
D(theta) and its trace Max(A) n D(theta) as int bitsets over the positions
of the primes and of the maximals (``open_table``, read off the order, as
V(theta) is by ``v_set_index`` on its own), rho as one tuple over Con(A)
(``radical_table``), and the opens of Max(A) (``_max_open_family``), whose
clopens by direct enumeration check ``clopens_of_max``'s witnesses.  That
every maximal is prime is ``verify``'s check, not a raise.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra
from .commutator import commutator_index, commutator_table, require_theory
from .commutator import _iterate_chain, _stable_iterates
from .congruences import Congruence, CongruenceLattice, con_lattice
from .errors import Falsified, SizeBudgetExceeded
from .lattices import _bitset, _members, center_index, stored

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
    return lattice.index(phi) in spectrum_index(lattice, all_pairs)[0]


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
    return primes, maximals, lattice.meet_many(maximals), lattice.meet_many(primes)


def radical(alg: FiniteAlgebra, theta: Congruence) -> Congruence:
    """rho(theta): meet of the primes above theta; the empty meet is the top
    congruence, so rho(nabla) = nabla."""
    require_theory(alg)
    lattice = con_lattice(alg)
    return lattice.congruences[radical_table(lattice)[lattice.index(theta)]]


@stored
def radical_table(lattice: CongruenceLattice) -> tuple[int, ...]:
    """rho of every congruence, as indices."""
    primes = spectrum_index(lattice, False)[0]
    return tuple(lattice.meet_many(p for p in primes if above[p]) for above in lattice.leq)


@stored
def open_table(lattice: CongruenceLattice) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """D(theta) of every theta, as an int bitset over the positions of the
    primes, and Max(A) n D(theta), as an int bitset over the positions of
    the maximals."""
    primes, maximals, _, _ = spectrum_index(lattice, False)
    return tuple(
        tuple(sum(1 << k for k, p in enumerate(points) if not above[p]) for above in lattice.leq)
        for points in (primes, maximals)
    )


def radical_oracle(alg: FiniteAlgebra, theta: Congruence) -> Congruence:
    """Independent route to rho(theta): the join of all congruences alpha
    whose iterate chain [alpha, alpha]^n falls below theta."""
    require_theory(alg)
    lattice = con_lattice(alg)
    return lattice.congruences[radical_oracle_table(lattice)[lattice.index(theta)]]


@stored
def radical_oracle_table(lattice: CongruenceLattice) -> tuple[int, ...]:
    """``radical_oracle`` of every congruence, as indices.  The chain is
    decreasing, so it falls below theta at some n exactly when its stable
    value does."""
    leq, stable = lattice.leq, _stable_iterates(lattice)
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
    require_theory(alg)
    lattice = con_lattice(alg)
    opens = open_table(lattice)[0]
    return OpenSet(theta=theta, members=tuple(_members(opens[lattice.index(theta)])))


@stored
def _max_open_family(lattice: CongruenceLattice) -> frozenset[int]:
    """All opens of the subspace Max(A), as int bitsets over the positions
    of the maximals: the traces of the D(theta), closed under unions (on a
    finite space the unions of basic opens are the opens)."""
    family = set(open_table(lattice)[1])
    frontier = list(family)
    while frontier:
        current = frontier.pop()
        for other in list(family):
            merged = current | other
            if merged not in family:
                family.add(merged)
                frontier.append(merged)
    return frozenset(family)


def clopen_index(lattice: CongruenceLattice) -> set[int]:
    """The clopens of Max(A) as int bitsets over the positions of the
    maximals, by direct finite-topology enumeration: the members of the
    stored ``_max_open_family`` whose complement is in it too."""
    count = len(spectrum_index(lattice, False)[1])
    if count > CLOPEN_CAP:
        raise SizeBudgetExceeded(f"|Max(A)| = {count} exceeds the clopen cap {CLOPEN_CAP}")
    opens = _max_open_family(lattice)
    full = (1 << count) - 1
    return {u for u in opens if full & ~u in opens}


def brute_force_clopens(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Clopen subsets of Max(A) by direct finite-topology enumeration, each
    as the sorted positions of its maximals."""
    require_theory(alg)
    return sorted(tuple(_members(u)) for u in clopen_index(con_lattice(alg)))


def clopens_of_max(alg: FiniteAlgebra) -> list[ClopenWitness]:
    """Every clopen of Max(A), each with a witnessing pair (alpha, beta).

    alpha is looked up by its trace Max(A) n D(alpha), in index order, and
    beta is the first congruence in index order that completes the pair.
    Completeness is checked against the direct clopen enumeration: a clopen
    without a witness raises :class:`Falsified`, since it would falsify the
    theory on a hypothesis-passing algebra.
    """
    require_theory(alg)
    lattice = con_lattice(alg)
    rad = spectrum_index(lattice, False)[2]
    leq, top = lattice.leq, lattice.top_index
    with_trace: dict[int, list[int]] = {}
    for a, trace in enumerate(open_table(lattice)[1]):
        with_trace.setdefault(trace, []).append(a)
    witnesses = []
    for members in brute_force_clopens(alg):
        found = next(
            (
                (a, b)
                for a in with_trace.get(_bitset(members), ())
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
    lattice = con_lattice(alg)
    center = set(center_index(lattice, lattice.bottom_index)[0])
    for i in range(len(lattice)):
        chain = _iterate_chain(lattice, i)
        # values taken at n >= 1: the tail of the chain (a length-1 chain is
        # already its own square, so its value is also the n >= 1 value)
        if center.isdisjoint(chain[1:] or chain):
            return False
    return True

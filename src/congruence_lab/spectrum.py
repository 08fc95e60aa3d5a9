"""Prime and maximal congruences, radicals, and the spectral topology.

Spec(A) is the set of prime congruences: phi != nabla such that
[alpha, beta] <= phi forces alpha <= phi or beta <= phi.  Primality is
decided on join-irreducibles only (every congruence is the join of the
join-irreducibles below it and the commutator is monotone, so the two tests
agree); the all-pairs test is kept as an oracle toggle.

The topology on Spec(A) has the sets D(theta) = {phi : theta not<= phi} as
its opens; the family is closed under unions and finite intersections, so on
a finite spectrum it is the whole topology.  Max(A) carries the subspace
topology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FiniteAlgebra
from .commutator import commutator_index, require_theory, _iterate_chain
from .congruences import Congruence, con_lattice
from .errors import Falsified

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


@dataclass(frozen=True)
class SpectrumData:
    """Primes, maximals and the two radicals of an algebra."""

    algebra: FiniteAlgebra
    primes: tuple[Congruence, ...]  # canonical order
    maximals: tuple[Congruence, ...]
    rad: Congruence  # meet of the maximal congruences
    nilradical: Congruence  # meet of all primes = rho(bottom)


@dataclass(frozen=True)
class OpenSet:
    """A basic open D(theta) of Spec(A), as indices into SpectrumData.primes."""

    theta: Congruence
    members: tuple[int, ...]


@dataclass(frozen=True)
class ClopenWitness:
    """A clopen subset of Max(A) with a pair witnessing it: alpha v beta is
    the top congruence, [alpha, beta] <= Rad(A), and the set is
    Max(A) n D(alpha)."""

    members: tuple[int, ...]  # indices into SpectrumData.maximals
    alpha: Congruence
    beta: Congruence


def _prime_indices(lattice, all_pairs: bool) -> list[int]:
    size = len(lattice)
    top = lattice.top_index
    candidates = lattice.join_irreducible_indices() if not all_pairs else range(size)
    primes = []
    for p in range(size):
        if p == top:
            continue
        good = True
        for a in candidates:
            if not good:
                break
            for b in candidates:
                if lattice.leq_index(commutator_index(lattice, a, b), p) and not (
                    lattice.leq_index(a, p) or lattice.leq_index(b, p)
                ):
                    good = False
                    break
        if good:
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
    key = ("spectrum", all_pairs)
    cached = lattice._caches.get(key)
    if cached is not None:
        return cached
    size = len(lattice)
    top = lattice.top_index
    primes = _prime_indices(lattice, all_pairs)
    maximals = [
        i
        for i in range(size)
        if i != top
        and not any(
            j != i and j != top and lattice.leq_index(i, j) for j in range(size)
        )
    ]
    prime_set = set(primes)
    if not set(maximals) <= prime_set:
        from .errors import TheoryHypothesisFailed

        raise TheoryHypothesisFailed(
            f"{alg.name}: a maximal congruence is not prime"
        )
    rad = lattice.meet_many(maximals)
    nil = lattice.meet_many(primes)
    data = SpectrumData(
        algebra=alg,
        primes=tuple(lattice.congruences[i] for i in primes),
        maximals=tuple(lattice.congruences[i] for i in maximals),
        rad=lattice.congruences[rad],
        nilradical=lattice.congruences[nil],
    )
    lattice._caches[key] = data
    return data


def radical(alg: FiniteAlgebra, theta: Congruence) -> Congruence:
    """rho(theta): meet of the primes above theta; the empty meet is the top
    congruence, so rho(nabla) = nabla."""
    require_theory(alg)
    lattice = con_lattice(alg)
    cache = lattice._caches.setdefault("radical", {})
    i = lattice.index(theta)
    hit = cache.get(i)
    if hit is None:
        data = spectrum(alg)
        above = [
            lattice.index(phi) for phi in data.primes if lattice.leq_index(i, lattice.index(phi))
        ]
        hit = lattice.meet_many(above)
        cache[i] = hit
    return lattice.congruences[hit]


def radical_oracle(alg: FiniteAlgebra, theta: Congruence) -> Congruence:
    """Independent route to rho(theta): the join of all congruences alpha
    whose iterate chain [alpha, alpha]^n falls below theta.

    The chain is decreasing, so it falls below theta at some n exactly when
    its stable value does.
    """
    require_theory(alg)
    lattice = con_lattice(alg)
    i = lattice.index(theta)
    qualifying = []
    for a in range(len(lattice)):
        chain, _ = _iterate_chain(lattice, a)
        if lattice.leq_index(chain[-1], i):
            qualifying.append(a)
    return lattice.congruences[lattice.join_many(qualifying)]


def is_semiprime(alg: FiniteAlgebra) -> bool:
    """True when rho(bottom) is the bottom congruence."""
    require_theory(alg)
    lattice = con_lattice(alg)
    return spectrum(alg).nilradical.blocks == lattice.bottom.blocks


def v_set(alg: FiniteAlgebra, theta: Congruence) -> tuple[int, ...]:
    """V(theta): indices of the primes containing theta (a closed set)."""
    data = spectrum(alg)
    lattice = con_lattice(alg)
    i = lattice.index(theta)
    return tuple(
        k
        for k, phi in enumerate(data.primes)
        if lattice.leq_index(i, lattice.index(phi))
    )


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
    data = spectrum(alg)
    lattice = con_lattice(alg)
    prime_idx = {phi.blocks: k for k, phi in enumerate(data.maximals)}
    opens = set()
    for i in range(len(lattice)):
        trace = frozenset(
            prime_idx[phi.blocks]
            for phi in data.maximals
            if not lattice.leq_index(i, lattice.index(phi))
        )
        opens.add(trace)
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
    return sorted(family, key=lambda s: (len(s), sorted(s))), len(data.maximals)


def brute_force_clopens(alg: FiniteAlgebra, cap: int = 20) -> list[tuple[int, ...]]:
    """Clopen subsets of Max(A) by direct finite-topology enumeration."""
    from .errors import SizeBudgetExceeded

    family, count = _max_open_family(alg)
    if count > cap:
        raise SizeBudgetExceeded(f"|Max(A)| = {count} exceeds the clopen cap {cap}")
    opens = set(family)
    full = frozenset(range(count))
    return sorted(
        tuple(sorted(u)) for u in opens if frozenset(full - u) in opens
    )


def clopens_of_max(alg: FiniteAlgebra, cap: int = 20) -> list[ClopenWitness]:
    """Every clopen of Max(A), each with a witnessing pair (alpha, beta).

    Completeness is checked against the direct clopen enumeration and each
    witness is re-verified; both failures raise :class:`Falsified` since they
    would falsify the theory on a hypothesis-passing algebra.
    """
    require_theory(alg)
    data = spectrum(alg)
    lattice = con_lattice(alg)
    rad_index = lattice.index(data.rad)
    max_indices = [lattice.index(phi) for phi in data.maximals]
    targets = brute_force_clopens(alg, cap=cap)
    witnesses = []
    for members in targets:
        member_set = set(members)
        found = None
        for a in range(len(lattice)):
            trace = {
                k
                for k, mi in enumerate(max_indices)
                if not lattice.leq_index(a, mi)
            }
            if trace != member_set:
                continue
            for b in range(len(lattice)):
                if lattice.join_index(a, b) != lattice.top_index:
                    continue
                if lattice.leq_index(commutator_index(lattice, a, b), rad_index):
                    found = (a, b)
                    break
            if found:
                break
        if found is None:
            raise Falsified(f"no witness pair for clopen {members} of {alg.name}")
        a, b = found
        if lattice.join_index(a, b) != lattice.top_index or not lattice.leq_index(
            commutator_index(lattice, a, b), rad_index
        ):
            raise Falsified(f"witness pair for clopen {members} of {alg.name} fails re-check")
        witnesses.append(
            ClopenWitness(
                members=members,
                alpha=lattice.congruences[a],
                beta=lattice.congruences[b],
            )
        )
    return witnesses


def is_hyperarchimedean(alg: FiniteAlgebra) -> bool:
    """True when every congruence has a complemented iterate [a, a]^n.

    Uses the stabilization index, so no unbounded search: the chain is
    scanned only up to its stable value.
    """
    require_theory(alg)
    from .lifting import boolean_center_of_congruences

    lattice = con_lattice(alg)
    center = {theta.blocks for theta in boolean_center_of_congruences(alg).elements}
    for i in range(len(lattice)):
        chain, _ = _iterate_chain(lattice, i)
        # values taken at n >= 1: the tail of the chain (a length-1 chain is
        # already its own square, so its value is also the n >= 1 value)
        values = chain[1:] if len(chain) > 1 else chain
        if not any(lattice.congruences[k].blocks in center for k in values):
            return False
    return True

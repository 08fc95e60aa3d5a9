"""Builders for the bundled corpus of concrete finite algebras.

Rings carry the signature (add, neg, mul, zero, one); bounded lattices carry
(join, meet, bot, top); many-valued chains carry (oplus, neg, zero).  Using
arity-0 operations for the constants means unital/bounded signatures need no
special casing anywhere downstream.

Bundled corpus algebras are capped at 16 elements.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra, Operation
from .congruences import congruence_from_blocks
from .errors import MalformedDoc, NotALattice
from .lattices import lattice_from_leq

__all__ = [
    "ring_congruence",
    "ring_zn",
    "chain_lattice",
    "boolean_lattice",
    "mv_chain",
    "lattice_from_order",
    "pentagon",
    "diamond",
    "pointed_pair",
    "kite",
    "standard_corpus",
]


def ring_congruence(ring: FiniteAlgebra, d: int):
    """The mod-d congruence theta_d of ring_zn(n), for d dividing n."""
    if ring.size % d != 0:
        raise MalformedDoc(f"{d} does not divide {ring.size}")
    return congruence_from_blocks(ring, [x % d for x in range(ring.size)])


def ring_zn(n: int) -> FiniteAlgebra:
    """The ring of integers modulo n, as a unital ring (add, neg, mul, 0, 1)."""
    if n < 1:
        raise MalformedDoc(f"ring size must be >= 1, got {n}")
    add = tuple((a + b) % n for a in range(n) for b in range(n))
    neg = tuple((-a) % n for a in range(n))
    mul = tuple((a * b) % n for a in range(n) for b in range(n))
    return FiniteAlgebra(
        f"Z_{n}",
        n,
        (
            Operation("add", 2, add),
            Operation("neg", 1, neg),
            Operation("mul", 2, mul),
            Operation("zero", 0, (0,)),
            Operation("one", 0, (1 % n,)),
        ),
    )


def _bounded_lattice(name: str, n: int, leq) -> FiniteAlgebra:
    lattice = lattice_from_leq([[leq(a, b) for b in range(n)] for a in range(n)])
    return FiniteAlgebra(
        name,
        n,
        (
            Operation("join", 2, tuple(v for row in lattice.join_table for v in row)),
            Operation("meet", 2, tuple(v for row in lattice.meet_table for v in row)),
            Operation("bot", 0, (lattice.bottom_index,)),
            Operation("top", 0, (lattice.top_index,)),
        ),
    )


def chain_lattice(k: int) -> FiniteAlgebra:
    """The k-element chain 0 < 1 < ... < k-1 as a bounded lattice."""
    if k < 1:
        raise MalformedDoc(f"chain length must be >= 1, got {k}")
    return _bounded_lattice(f"C_{k}", k, lambda a, b: a <= b)


def boolean_lattice(k: int) -> FiniteAlgebra:
    """The Boolean lattice with k atoms (2**k elements, as bitmasks)."""
    if k < 1:
        raise MalformedDoc(f"atom count must be >= 1, got {k}")
    n = 2**k
    return _bounded_lattice(f"B_{k}", n, lambda a, b: a & b == a)


def mv_chain(k: int) -> FiniteAlgebra:
    """The k-element many-valued chain with truncated addition (oplus, neg, 0)."""
    if k < 1:
        raise MalformedDoc(f"chain length must be >= 1, got {k}")
    top = k - 1
    oplus = tuple(min(top, a + b) for a in range(k) for b in range(k))
    neg = tuple(top - a for a in range(k))
    return FiniteAlgebra(
        f"L_{k}",
        k,
        (
            Operation("oplus", 2, oplus),
            Operation("neg", 1, neg),
            Operation("zero", 0, (0,)),
        ),
    )


def lattice_from_order(covers, size: int | None = None, name: str = "lattice") -> FiniteAlgebra:
    """Bounded lattice from a covering relation given as (lower, upper) pairs.

    The universe is 0..size-1, with size inferred from the cover pairs when
    not given.  Raises :class:`NotALattice` when the reflexive-transitive
    closure is not a lattice order with bottom and top.
    """
    covers = [tuple(pair) for pair in covers]
    if size is None:
        if not covers:
            raise NotALattice("cannot infer the universe from an empty cover list")
        size = max(max(pair) for pair in covers) + 1
    n = size
    for lo, hi in covers:
        if not (0 <= lo < n and 0 <= hi < n):
            raise NotALattice(f"cover ({lo}, {hi}) outside universe 0..{n - 1}")
        if lo == hi:
            raise NotALattice(f"cover ({lo}, {hi}) is reflexive")
    leq = [[a == b for b in range(n)] for a in range(n)]
    for lo, hi in covers:
        leq[lo][hi] = True
    for mid in range(n):  # Floyd-Warshall transitive closure
        for a in range(n):
            if leq[a][mid]:
                row_a, row_m = leq[a], leq[mid]
                for b in range(n):
                    if row_m[b]:
                        row_a[b] = True
    for a in range(n):
        for b in range(a + 1, n):
            if leq[a][b] and leq[b][a]:
                raise NotALattice(f"covers create a cycle through {a} and {b}")
    return _bounded_lattice(name, n, lambda a, b: leq[a][b])


def pentagon() -> FiniteAlgebra:
    """The pentagon N5: 0 < 1 < 2 < 4 and 0 < 3 < 4, a non-modular lattice."""
    return lattice_from_order([(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], name="N5")


def diamond() -> FiniteAlgebra:
    """The diamond M3: three incomparable atoms 1, 2, 3 between 0 and 4."""
    return lattice_from_order(
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], name="M3"
    )


def kite() -> FiniteAlgebra:
    """The 5-element distributive lattice 0 < 1 < {2, 3} < 4 (2x2 with a new bottom)."""
    return lattice_from_order([(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)], name="kite")


def pointed_pair() -> FiniteAlgebra:
    """A two-element set with a single constant: fails [top,top] = top."""
    return FiniteAlgebra("pointed-pair", 2, (Operation("base", 0, (0,)),))


def standard_corpus() -> list[FiniteAlgebra]:
    """The bundled test corpus: rings, chains, Boolean lattices, MV chains,
    the two classical non-distributive lattices and a one-element algebra."""
    return [
        ring_zn(2),
        ring_zn(3),
        ring_zn(4),
        ring_zn(6),
        ring_zn(8),
        ring_zn(12),
        chain_lattice(1),
        chain_lattice(2),
        chain_lattice(3),
        chain_lattice(5),
        chain_lattice(7),
        boolean_lattice(2),
        boolean_lattice(3),
        mv_chain(2),
        mv_chain(3),
        mv_chain(4),
        pentagon(),
        diamond(),
        kite(),
    ]

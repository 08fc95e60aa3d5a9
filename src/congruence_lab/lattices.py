"""Finite bounded lattices and their ideals.

:class:`FiniteLattice` is the one lattice type of the package: a lattice on
the elements 0..size-1 given by its order matrix and its join and meet
tables.  The congruence lattice Con(A) is its subclass
``congruences.CongruenceLattice``; the reticulation and the standalone
distributive lattices of the ideal lifting machinery are plain instances.
A lattice serializes as ``{"size": k, "leq": [[bool, ...], ...]}``.

``lattice_from_leq`` is the validating constructor, for orders that come
from outside (documents, builders, the reticulation): it checks the order
axioms and that every pair has a join and a meet.  It and Con(A) read their
tables off up-set and down-set bitsets with ``_tables_from_bitsets``; the
interval quotient, which already holds correct tables, builds the type
directly.

A lattice derives one form of its order, the down-set bitsets ``down_sets``,
and its Boolean center ``center``, each once.  The cover tables are read off
the bitsets, and the join-irreducibles (one lower cover), the distributivity
and modularity tests and ideal primeness read those two forms only.  One
scan of the pairs, ``interval_complements``, holds all complements, and
``center_index`` reads B([g, 1]) off it for every g and every lattice, Con(A)
too: this module imports only ``errors``, so no center reads a commutator.
A lattice keeps the results of its ``stored`` index cores, such as this one.

Every ideal of a finite lattice is principal (a nonempty down-set closed
under binary join contains the join of all its members), so a
:class:`LatticeIdeal` is stored as its generator g and stands for the
down-set (g] = {x : x <= g}; membership is read off the order.  The prime
ideals are the down-sets of the meet-prime elements, the maximal ideals
those of the coatoms, and the quotient by (g] is the interval [g, 1].
"""

from __future__ import annotations

from functools import cached_property, wraps
from itertools import combinations, compress

from .errors import MalformedDoc, NotALattice

__all__ = [
    "FiniteLattice",
    "stored",
    "center_index",
    "LatticeIdeal",
    "lattice_from_leq",
    "parse_lattice",
    "serialize_lattice",
    "principal_ideal",
    "all_ideals",
    "is_prime_ideal",
    "prime_ideals",
    "maximal_ideals",
    "quotient_by_ideal",
]


class FiniteLattice:
    """A bounded lattice on 0..size-1: order matrix, join and meet tables."""

    def __init__(self, leq, join_table, meet_table, bottom_index, top_index):
        self.leq = leq
        self.join_table = join_table
        self.meet_table = meet_table
        self.bottom_index = bottom_index
        self.top_index = top_index
        # the results of @stored functions, one dict per function
        self._caches = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.leq == other.leq

    def __hash__(self):
        return hash(self.leq)

    @property
    def size(self) -> int:
        return len(self.leq)

    def __len__(self):
        return len(self.leq)

    def leq_index(self, i: int, j: int) -> bool:
        return self.leq[i][j]

    def join_index(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    def meet_index(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def join_many(self, indices) -> int:
        out = self.bottom_index
        for i in indices:
            out = self.join_table[out][i]
        return out

    def meet_many(self, indices) -> int:
        out = self.top_index
        for i in indices:
            out = self.meet_table[out][i]
        return out

    @cached_property
    def down_sets(self) -> tuple[int, ...]:
        """``down_sets[i]``: {x : x <= i} as an int bitset."""
        return tuple(_bitset(compress(range(self.size), column)) for column in zip(*self.leq))

    @cached_property
    def lower_covers(self) -> tuple[tuple[int, ...], ...]:
        """``lower_covers[i]``: the elements that i covers, in increasing
        order: an element strictly below i is a lower cover unless it lies
        strictly below another one."""
        down = self.down_sets
        table = []
        for i, mask in enumerate(down):
            below = mask & ~(1 << i)
            covered = 0
            for j in _members(below):
                covered |= down[j] & ~(1 << j)
            table.append(tuple(_members(below & ~covered)))
        return tuple(table)

    @cached_property
    def upper_covers(self) -> tuple[tuple[int, ...], ...]:
        """``upper_covers[i]``: the elements covering i, in increasing order."""
        table: list[list[int]] = [[] for _ in range(self.size)]
        for i, covers in enumerate(self.lower_covers):
            for j in covers:
                table[j].append(i)
        return tuple(map(tuple, table))

    def atoms(self) -> list[int]:
        return list(self.upper_covers[self.bottom_index])

    @cached_property
    def interval_complements(self) -> tuple[tuple[dict, ...], dict]:
        """In one pass over the pairs: for each y, {g: z} for the first z with
        y v z = top and y ^ z = g (a complement of y in [g, top]), and
        {(y, g): every such z, in increasing order} where there are several."""
        members, top, table, several = list(range(self.size)), self.top_index, [], {}
        for y, (join_y, meet_y) in enumerate(zip(self.join_table, self.meet_table)):
            mates: dict[int, int] = {}
            for z in compress(members, [joined == top for joined in join_y]):
                g = meet_y[z]
                if g in mates:
                    several.setdefault((y, g), [mates[g]]).append(z)
                else:
                    mates[g] = z
            table.append(mates)
        return tuple(table), several

    @cached_property
    def center(self) -> tuple[int, ...]:
        """The complemented elements, in increasing order.  Complements are
        unique in a distributive lattice; an element with several raises
        NotALattice, on every read, since a raise stores nothing."""
        bottom = self.bottom_index
        for (x, g), mates in self.interval_complements[1].items():
            if g == bottom:
                raise NotALattice(f"element {x} has several complements: {mates}")
        return center_index(self, bottom)[0]

    @cached_property
    def _join_irreducibles(self) -> tuple[int, ...]:
        """The elements with exactly one lower cover."""
        return tuple(x for x, covers in enumerate(self.lower_covers) if len(covers) == 1)

    def join_irreducible_indices(self) -> tuple[int, ...]:
        return self._join_irreducibles

    def is_distributive(self) -> bool:
        """Birkhoff's test: x -> {join-irreducibles <= x}, as a bitmask,
        sends every join to the union of the two sets."""
        irreducible = _bitset(self._join_irreducibles)
        masks = [down & irreducible for down in self.down_sets]
        return all(
            [masks[v] for v in row] == [mx | my for my in masks]
            for mx, row in zip(masks, self.join_table)
        )

    def is_modular(self) -> bool:
        """A lattice of finite length is modular iff it is upper and lower
        semimodular (Birkhoff, *Lattice Theory*, ch. II; Grätzer, *General
        Lattice Theory*, ch. IV): two upper covers of one element are
        covered by their join, and two lower covers of one cover their meet."""
        lower, upper = self.lower_covers, self.upper_covers
        return all(
            {a, b} <= set(inverse[table[a][b]])
            for covers, table, inverse in (
                (upper, self.join_table, lower),
                (lower, self.meet_table, upper),
            )
            for row in covers
            for a, b in combinations(row, 2)
        )


def stored(fn):
    """Compute ``fn(lattice, *args)`` once per argument tuple and keep the
    result on ``lattice``, a :class:`FiniteLattice`.

    Indices inside, values at the public edge: a stored function is an
    index core, and every other argument is an element index or a flag,
    passed positionally, so ``args`` is the key.  A result holds indices,
    flags and tables, never a congruence or a report naming an algebra, so
    algebras with the same tables share it whatever their names; the public
    functions build their reports from it for the caller's algebra.  A
    result is stored only when ``fn`` returns: a cross-check that raises
    stores nothing and runs again on the next call.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def once(lattice, *args):
        try:  # a hit costs two lookups
            return lattice._caches[name][args]
        except KeyError:
            pass
        hit = lattice._caches.setdefault(name, {})[args] = fn(lattice, *args)
        return hit

    return once


@stored
def center_index(lattice: FiniteLattice, g: int) -> tuple:
    """B([g, top]): the y with a complement in the interval, in increasing
    order; the complement of each, its first mate z in ``interval_complements``;
    and the atoms.  On Con(A) at theta it is B(Con(A/theta))."""
    mates, down = lattice.interval_complements[0], lattice.down_sets
    elements = lattice.join_table[lattice.bottom_index]  # y = bottom v y: no new ints
    members = tuple(compress(elements, [g in row for row in mates]))
    complement = {y: mates[y][g] for y in members}
    # an atom has no member but g strictly below it
    below = [down[y] & ~(1 << y | 1 << g) for y in members]
    inside = _bitset(members)
    atoms = tuple(y for y, mask in zip(members, below) if y != g and not mask & inside)
    return members, complement, atoms


def _bitset(indices) -> int:
    """A set of nonnegative indices as an int bitset."""
    return sum({1 << k for k in indices})


def _members(mask: int):
    """The positions of the set bits of an int bitset, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _tables_from_bitsets(up, down):
    """The join and meet tables of a partial order given by its up-sets and
    down-sets as int bitsets: the lub of a and b is the element whose up-set
    is up[a] & up[b], and the glb likewise on down-sets.  An entry is None
    where no such element exists.  In an antisymmetric order the up-sets (and
    the down-sets) are pairwise distinct, so the lookup is unique."""
    by_up = {mask: c for c, mask in enumerate(up)}
    by_down = {mask: c for c, mask in enumerate(down)}
    join_table = tuple(tuple([by_up.get(ua & ub) for ub in up]) for ua in up)
    meet_table = tuple(tuple([by_down.get(da & db) for db in down]) for da in down)
    return join_table, meet_table


def lattice_from_leq(leq) -> FiniteLattice:
    """Validate an order matrix and compute join/meet tables.

    Raises :class:`NotALattice` when the matrix is not a bounded lattice
    order (reflexive, antisymmetric, transitive, all joins/meets exist).
    The checks run over int bitsets of up-sets and down-sets: transitivity
    is up(b) within up(a) for every a <= b, and the lub of a, b is the
    element whose up-set is up(a) & up(b) (the glb likewise on down-sets).
    """
    matrix = tuple(tuple(bool(v) for v in row) for row in leq)
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise NotALattice("leq must be a nonempty square matrix")
    up = [_bitset(compress(range(n), row)) for row in matrix]
    down = [_bitset(compress(range(n), column)) for column in zip(*matrix)]
    for a in range(n):
        if not matrix[a][a]:
            raise NotALattice(f"order not reflexive at {a}")
        for b in range(n):
            if not matrix[a][b]:
                continue
            if a != b and matrix[b][a]:
                raise NotALattice(f"order not antisymmetric at {a}, {b}")
            missing = up[b] & ~up[a]
            if missing:
                c = (missing & -missing).bit_length() - 1
                raise NotALattice(f"order not transitive at {a}, {b}, {c}")
    join_table, meet_table = _tables_from_bitsets(up, down)
    for a, (join_row, meet_row) in enumerate(zip(join_table, meet_table)):
        if None in join_row or None in meet_row:
            b = next(b for b in range(n) if join_row[b] is None or meet_row[b] is None)
            raise NotALattice(f"elements {a}, {b} lack a unique lub/glb")
    full = (1 << n) - 1
    bottoms = [a for a in range(n) if up[a] == full]
    tops = [a for a in range(n) if down[a] == full]
    if len(bottoms) != 1 or len(tops) != 1:
        raise NotALattice("order has no unique bottom/top")
    return FiniteLattice(
        leq=matrix,
        join_table=join_table,
        meet_table=meet_table,
        bottom_index=bottoms[0],
        top_index=tops[0],
    )


def serialize_lattice(lattice: FiniteLattice) -> dict:
    return {
        "size": lattice.size,
        "leq": [[bool(v) for v in row] for row in lattice.leq],
    }


def parse_lattice(doc: dict) -> FiniteLattice:
    if not isinstance(doc, dict) or set(doc) != {"size", "leq"}:
        raise MalformedDoc(f"bad lattice document: {doc!r}")
    size, leq = doc["size"], doc["leq"]
    if type(size) is not int or not isinstance(leq, list) or len(leq) != size:
        raise MalformedDoc("lattice size must be an int and leq a list of that many rows")
    if not all(isinstance(row, list) and all(type(v) is bool for v in row) for row in leq):
        raise MalformedDoc("lattice leq rows must be lists of booleans")
    return lattice_from_leq(leq)


class LatticeIdeal:
    """The ideal (generator] = {x : x <= generator} of a finite lattice;
    every ideal of a finite lattice has this form."""

    __slots__ = ("lattice", "generator")

    def __init__(self, lattice, generator):
        if not 0 <= generator < lattice.size:
            raise NotALattice(f"ideal generator {generator} outside 0..{lattice.size - 1}")
        self.lattice = lattice
        self.generator = generator

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lattice, self.generator) == (other.lattice, other.generator)

    def __hash__(self):
        return hash((self.lattice, self.generator))

    def members(self) -> list[int]:
        return list(_members(self.lattice.down_sets[self.generator]))

    def __contains__(self, x: int) -> bool:
        return self.lattice.leq[x][self.generator]

    def is_proper(self) -> bool:
        return self.generator != self.lattice.top_index


def principal_ideal(lattice: FiniteLattice, x: int) -> LatticeIdeal:
    return LatticeIdeal(lattice, x)


def all_ideals(lattice: FiniteLattice) -> list[LatticeIdeal]:
    return [LatticeIdeal(lattice, x) for x in range(lattice.size)]


def is_prime_ideal(ideal: LatticeIdeal) -> bool:
    """Proper, and its complement is a filter: the complement of a down-set
    is an up-set, so it is a filter iff it is closed under meets, that is
    iff the meet of everything outside (g] lies outside (g]."""
    lat = ideal.lattice
    inside = lat.down_sets[ideal.generator]
    outside = _members(((1 << lat.size) - 1) & ~inside)
    return ideal.is_proper() and not inside >> lat.meet_many(outside) & 1


def prime_ideals(lattice: FiniteLattice) -> list[LatticeIdeal]:
    return [ideal for ideal in all_ideals(lattice) if is_prime_ideal(ideal)]


def maximal_ideals(lattice: FiniteLattice) -> list[LatticeIdeal]:
    """The down-sets of the coatoms."""
    return [
        LatticeIdeal(lattice, g) for g in lattice.lower_covers[lattice.top_index]
    ]


def quotient_by_ideal(ideal: LatticeIdeal) -> tuple[FiniteLattice, list[int]]:
    """L/I under x ~ y iff x v i = y v i for some i in I = (g].

    Every i in I lies below g, so x v i = y v i gives x v g = y v g, and
    i = g gives the converse: the classes are the fibers of x -> x v g,
    which maps L onto the interval [g, 1] and, in a distributive lattice
    such as the reticulation, is a lattice homomorphism.  The quotient is
    that interval with the parent's order, joins and meets; its classes are
    numbered in the order of their least members.  Returns the quotient and
    the class map.
    """
    lat, g = ideal.lattice, ideal.generator
    image = lat.join_table[g]  # x v g for every x
    position: dict[int, int] = {}
    for y in image:
        position.setdefault(y, len(position))
    reps = list(position)
    quotient = FiniteLattice(
        leq=tuple(tuple(lat.leq[a][b] for b in reps) for a in reps),
        join_table=tuple(tuple(position[lat.join_table[a][b]] for b in reps) for a in reps),
        meet_table=tuple(tuple(position[lat.meet_table[a][b]] for b in reps) for a in reps),
        bottom_index=position[g],
        top_index=position[lat.top_index],
    )
    return quotient, [position[y] for y in image]


"""Congruences of a finite algebra and the lattice Con(A).

A congruence is encoded canonically as a block array of length n mapping each
element to the least element of its block, e.g. [0, 1, 0, 1, 0, 1] for the
mod-2 partition of a 6-element universe.  The lexicographic order on block
arrays gives a deterministic total order used for all iteration downstream.

Generation closes a quick-find partition under the basic translations of
the algebra (each operation with all but one argument frozen), read from one
translation table per algebra: iterating the translations over every merged
pair closes the relation under all unary polynomials, which is exactly
congruence generation.  The Delta_{alpha,beta} closure of ``commutator``
runs the same partition over the same table.  Join is the transitive
closure of the union (automatically compatible), meet is blockwise
intersection.

Con(A) is built from its join-irreducibles (Freese, "Computing congruences
efficiently", 2008).  Every congruence of a finite algebra is the join of
the principal congruences below it, so every join-irreducible is
principal, and a principal p is join-irreducible exactly when the
principals strictly below p join to less than p.  The principal
congruences come from one closure per orbit of pairs: if a basic
translation p is a bijection, its inverse is a power of p and so a
polynomial, and Cg(p(a), p(b)) = Cg(a, b) in every algebra.  The pairs
x < y are grouped into the orbits of the group that the bijective
translations generate, and only the least pair of each orbit is closed.
Con(A) is the closure of the bottom and the join-irreducibles under join
with a join-irreducible.  Each congruence carries its relation as an int
bitmask, with bit x * n + y set when x and y are related: theta <= phi iff
theta's mask lies inside phi's, a closure step skips a join-irreducible
already below, and the join and meet tables are read off the up-set and
down-set bitsets of that order.
Con(A) keeps these masks as ``masks``, and the principal congruence of
every pair, found on the way, as ``principals``: the congruence generated
by a set S of pairs is the join of Cg(s) over s in S.

When a binary operation f is associative and G generates the semigroup
(A, f), the translation x -> f(x, g1 ... gk) is the composition of the
translations by g1, ..., gk, and likewise on the left; a partition closed
under the translations by G is then closed under all of them, so the
closures translate by G alone and get the same congruence.  A
non-associative or ternary operation has no such factorization, so its
closures keep every translation.  ``is_congruence`` always tests every
translation: it is the check that ``brute_force_congruences`` runs as the
oracle of generation.

``projection(Con(A), t)`` stores the canonical projection A -> A/theta once
per theta = congruences[t]: the quotient algebra, its Con(A/theta), and the
correspondence between the interval [theta, nabla] of Con(A) and
Con(A/theta) as two index maps, ``down`` (chi -> chi/theta) and ``up`` (its
inverse).
"""

from __future__ import annotations

from functools import lru_cache, wraps
from itertools import combinations, compress

from . import config
from .algebra import FiniteAlgebra, quotient
from .errors import Falsified, NotACongruence, ParentMismatch, SizeBudgetExceeded
from .lattices import FiniteLattice, _bitset, _tables_from_bitsets

__all__ = [
    "Congruence",
    "CongruenceLattice",
    "DEFAULT_CON_CAP",
    "principal_congruence",
    "all_congruences",
    "con_lattice",
    "join",
    "meet",
    "join_irreducibles",
    "interval_above",
    "is_congruence",
    "delta",
    "nabla",
    "congruence_from_blocks",
    "congruence_from_pairs",
    "all_partitions",
    "brute_force_congruences",
    "stored",
    "Projection",
    "projection",
]

DEFAULT_CON_CAP = config.DEFAULT_CON_CAP


class Congruence:
    """A compatible partition, canonically encoded by least representatives."""

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra, blocks):
        self.algebra = algebra
        self.blocks = blocks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.algebra, self.blocks) == (other.algebra, other.blocks)

    def __hash__(self):
        return hash((self.algebra, self.blocks))

    def related(self, a: int, b: int) -> bool:
        return self.blocks[a] == self.blocks[b]

    def classes(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for x, rep in enumerate(self.blocks):
            out.setdefault(rep, []).append(x)
        return [out[rep] for rep in sorted(out)]

    def num_blocks(self) -> int:
        return len(set(self.blocks))

    def leq(self, other: "Congruence") -> bool:
        """Refinement order: every block of self lies inside a block of other."""
        _check_parent(self, other)
        ob = other.blocks
        return all(ob[x] == ob[rep] for x, rep in enumerate(self.blocks))

    def as_list(self) -> list[int]:
        return list(self.blocks)

    def __str__(self):
        return "|".join(",".join(map(str, cls)) for cls in self.classes())


def _check_parent(theta: Congruence, chi: Congruence) -> None:
    if theta.algebra != chi.algebra:
        raise ParentMismatch(
            f"congruences of different algebras: {theta.algebra.name} vs {chi.algebra.name}"
        )


@lru_cache(maxsize=None)
def _translation_plan(alg: FiniteAlgebra):
    """Every basic translation x -> f(..., x, ...) of the algebra, as one
    ``(width, rows, closing, generators)`` entry per operation and argument
    position.

    ``width`` is the number of frozen arguments, and ``rows[x][r]`` is the
    value at x of the translation whose frozen arguments are the r-th tuple
    of ``product(range(n), repeat=width)``.  For a binary table the rows
    are its row slices (x in the first position) and its column slices (x in
    the second); a commutative binary table keeps only the first position.

    ``closing`` holds the rows that a closure translates by.  For an
    associative binary operation f, ``generators`` is a generating set of
    the semigroup (A, f) and ``closing`` keeps only its columns; every other
    entry has ``generators`` None and ``closing`` is ``rows``.
    """
    plan = []
    n = alg.size
    diagonal = [-1] * (n * n)
    for x in range(n):
        diagonal[x * n + x] = x
    for op in alg.operations:
        table, width = op.table, op.arity - 1
        commutative = width == 1 and all(
            table[a * n + b] == table[b * n + a] for a in range(n) for b in range(a)
        )
        generators = None
        for pos in range(1 if commutative else op.arity):
            # frozen tuple r = hi * stride + lo splits around position pos
            stride = n ** (width - pos)
            rows = tuple(
                tuple([table[(r // stride * n + x) * stride + r % stride] for r in range(n**width)])
                for x in range(n)
            )
            if pos == 0 and width == 1 and _is_associative(rows):
                # A is the pair algebra on the diagonal
                generators = _semigroup_generators(rows, range(n), range(n), diagonal)
            closing = rows
            if generators is not None and len(generators) < n:
                closing = tuple(tuple([row[g] for g in generators]) for row in rows)
            plan.append((width, rows, closing, generators))
    return tuple(plan)


def _is_associative(rows) -> bool:
    """Whether (a b) c = a (b c) for the binary table with ``rows[a][b] = a b``."""
    return all(
        rows[ra[b]] == tuple([ra[c] for c in rows[b]]) for ra in rows for b in range(len(rows))
    )


def _semigroup_generators(rows, firsts, seconds, index_of):
    """Member indices that generate a pair algebra as a semigroup under an
    associative binary operation f with ``rows[a][b] = f(a, b)``.

    Member i is (firsts[i], seconds[i]) and ``index_of[x * n + y]`` is the
    index of the member (x, y).  Candidates are taken greedily: one that the
    chosen generators do not yet generate becomes a generator.  Elements
    with many multiples f(x, A) and f(A, x), then with long cyclic
    subsemigroups, come first; on a semilattice this is a linear extension
    of its order, so the greedy set is the minimal one.  The generated
    subsemigroup is kept closed under multiplication on the right by the
    generators, which makes it every product of generators.
    """
    n = len(rows)
    size = len(firsts)
    multiples = [len(set(rows[x]).union([row[x] for row in rows])) for x in range(n)]
    cycle = []
    for x in range(n):
        seen, power = {x}, rows[x][x]
        while power not in seen:
            seen.add(power)
            power = rows[power][x]
        cycle.append(len(seen))
    order = sorted(
        range(size),
        key=lambda i: (
            -multiples[firsts[i]] - multiples[seconds[i]],
            -cycle[firsts[i]] - cycle[seconds[i]],
        ),
    )
    generated = bytearray(size)
    span: list[int] = []  # the subsemigroup generated so far
    generators: list[int] = []
    coordinates: list[tuple[int, int]] = []  # of the generators
    for c in order:
        if generated[c]:
            continue
        generators.append(c)
        c0, c1 = firsts[c], seconds[c]
        coordinates.append((c0, c1))
        queue = [index_of[rows[firsts[s]][c0] * n + rows[seconds[s]][c1]] for s in span]
        queue.append(c)
        while queue:
            t = queue.pop()
            if generated[t]:
                continue
            generated[t] = 1
            span.append(t)
            t0, t1 = rows[firsts[t]], rows[seconds[t]]
            queue += [index_of[t0[g0] * n + t1[g1]] for g0, g1 in coordinates]
        if len(span) == size:
            break
    return tuple(generators)


class _Partition:
    """Quick-find partition of range(size): ``label[i]`` names the class of i
    and is itself a member of that class.  A merge relabels the smaller class
    and queues the merged pair of labels on ``pending`` for a caller that
    closes the partition under translations."""

    __slots__ = ("label", "groups", "pending")

    def __init__(self, size: int):
        self.label = list(range(size))
        self.groups = [[i] for i in range(size)]
        self.pending: list[tuple[int, int]] = []

    def merge(self, u: int, v: int) -> None:
        """Merge the distinct classes labelled u and v."""
        groups = self.groups
        if len(groups[u]) < len(groups[v]):
            u, v = v, u
        label = self.label
        for i in groups[v]:
            label[i] = u
        groups[u].extend(groups[v])
        groups[v] = None
        self.pending.append((u, v))

    def union(self, i: int, j: int) -> None:
        u, v = self.label[i], self.label[j]
        if u != v:
            self.merge(u, v)


def _canonical(labels) -> tuple[int, ...]:
    """Relabel each element by the least element with the same label."""
    least: dict = {}
    return tuple([least.setdefault(label, x) for x, label in enumerate(labels)])


def _close_pairs(alg: FiniteAlgebra, seeds) -> tuple[int, ...]:
    """Least congruence containing the seed pairs, as a normalized block
    array, closed under the plan's ``closing`` translations."""
    part = _Partition(alg.size)
    label, merge, pending = part.label, part.merge, part.pending
    for a, b in seeds:
        part.union(a, b)
    plan = _translation_plan(alg)
    while pending:
        a, b = pending.pop()
        for _, _, rows, _ in plan:
            for u, v in zip(rows[a], rows[b]):
                u, v = label[u], label[v]
                if u != v:
                    merge(u, v)
    return _canonical(label)


def delta(alg: FiniteAlgebra) -> Congruence:
    return Congruence(alg, tuple(range(alg.size)))


def nabla(alg: FiniteAlgebra) -> Congruence:
    return Congruence(alg, (0,) * alg.size)


def congruence_from_blocks(alg: FiniteAlgebra, blocks) -> Congruence:
    """Build a congruence from a block array, re-normalizing and validating."""
    blocks = list(blocks)
    if len(blocks) != alg.size:
        raise NotACongruence(
            f"block array has length {len(blocks)}, expected {alg.size}"
        )
    for label in blocks:
        if type(label) is not int or not 0 <= label < alg.size:
            raise NotACongruence(f"block entry {label!r} outside 0..{alg.size - 1}")
    normalized = _canonical(blocks)
    if not is_congruence(alg, normalized):
        raise NotACongruence(f"{blocks} is not compatible with {alg.name}")
    return Congruence(alg, normalized)


def congruence_from_pairs(alg: FiniteAlgebra, pairs) -> Congruence:
    """The congruence generated by a set of pairs."""
    return Congruence(alg, _close_pairs(alg, pairs))


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Congruence:
    """Cg(a, b): least congruence identifying a and b."""
    return congruence_from_pairs(alg, [(a, b)])


def is_congruence(alg: FiniteAlgebra, blocks) -> bool:
    """Exhaustive compatibility test for an equivalence given as a block array.

    Compatibility is checked translation by translation; for a transitive
    relation this is equivalent to the all-arguments condition.
    """
    n = alg.size
    blocks = list(blocks)
    if len(blocks) != n:
        return False
    for x, rep in enumerate(blocks):
        if not 0 <= rep < n or blocks[rep] != rep or rep > x:
            return False
    classes: dict[int, list[int]] = {}
    for x, rep in enumerate(blocks):
        classes.setdefault(rep, []).append(x)
    related = [cls for cls in classes.values() if len(cls) > 1]
    for _, rows, _, _ in _translation_plan(alg):
        for cls in related:
            first = rows[cls[0]]
            for other in cls[1:]:
                for u, v in zip(first, rows[other]):
                    if blocks[u] != blocks[v]:
                        return False
    return True


def join(theta: Congruence, chi: Congruence) -> Congruence:
    """Transitive closure of the union; the result is automatically compatible."""
    _check_parent(theta, chi)
    return Congruence(theta.algebra, _join_blocks(theta.blocks, chi.blocks))


def meet(theta: Congruence, chi: Congruence) -> Congruence:
    """Blockwise intersection."""
    _check_parent(theta, chi)
    return Congruence(theta.algebra, _meet_blocks(theta.blocks, chi.blocks))


class CongruenceLattice(FiniteLattice):
    """Con(A) as a finite lattice: element i is ``congruences[i]``.

    On a finite algebra every congruence is a join of principal congruences,
    so the compact elements are all of Con(A); this is recorded as a stated
    assumption rather than re-derived.
    """

    def __init__(
        self, leq, join_table, meet_table, bottom_index, top_index, algebra, congruences,
        matrix_bounds, masks, principals, _index, _caches=None,
    ):
        super().__init__(leq, join_table, meet_table, bottom_index, top_index)
        self.algebra = algebra
        self.congruences = congruences  # canonically sorted by block array
        # the matrix budget of each congruence: its number of related pairs, squared
        self.matrix_bounds = matrix_bounds
        # the relation of each congruence: bit x * n + y is set when x and y are related
        self.masks = masks
        # principals[x * n + y] is the index of Cg(x, y), the bottom when x == y
        self.principals = principals
        self._index = _index
        # the results of @stored functions, one dict per function
        self._caches = {} if _caches is None else _caches

    def _key(self) -> tuple:
        return self.leq, self.algebra, self.congruences, self.matrix_bounds

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def index(self, theta: Congruence) -> int:
        try:
            return self._index[theta.blocks]
        except KeyError:
            raise ParentMismatch(
                f"{list(theta.blocks)} is not a congruence of {self.algebra.name}"
            ) from None


def all_congruences(alg: FiniteAlgebra, cap: int | None = None) -> CongruenceLattice:
    """Enumerate Con(A) by closing its join-irreducibles under binary join.

    Raises :class:`SizeBudgetExceeded` when more than ``cap`` congruences
    would be produced (default: the process-wide CON_CAP).
    """
    if cap is None:
        cap = config.CON_CAP
    n = alg.size
    pairs: dict[tuple[int, ...], list] = {}  # Cg(a, b) -> every such (a, b)
    for orbit in _pair_orbits(alg):
        pairs.setdefault(_close_pairs(alg, orbit[:1]), []).extend(orbit)
    principal = {blocks: _relation_mask(blocks) for blocks in pairs}
    # every congruence below p is a join of principals below p, so p is
    # join-irreducible iff the principals strictly below it join to less
    generators = []
    for blocks, mask in principal.items():
        part = _Partition(n)
        for other, inside in principal.items():
            if inside != mask and not inside & ~mask:
                for x, rep in enumerate(other):
                    part.union(x, rep)
        if _canonical(part.label) != blocks:
            generators.append((blocks, mask))

    bottom = tuple(range(n))
    elements = {bottom: _relation_mask(bottom)}
    worklist = list(elements.items())
    while worklist:
        current, below = worklist.pop()
        for gen, mask in generators:
            if mask & ~below:
                merged = _join_blocks(current, gen)
                if merged not in elements:
                    if len(elements) >= cap:
                        raise SizeBudgetExceeded(f"|Con({alg.name})| exceeds the cap of {cap}")
                    elements[merged] = _relation_mask(merged)
                    worklist.append((merged, elements[merged]))

    ordered = sorted(elements)
    masks = tuple(elements[blocks] for blocks in ordered)
    # theta_i <= theta_j iff the relation of theta_i lies inside that of theta_j
    leq = tuple(tuple([not mi & ~mj for mj in masks]) for mi in masks)
    up = [_bitset(compress(range(len(leq)), row)) for row in leq]
    down = [_bitset(compress(range(len(leq)), column)) for column in zip(*leq)]
    join_table, meet_table = _tables_from_bitsets(up, down)
    index = {blocks: i for i, blocks in enumerate(ordered)}
    principals = [index[bottom]] * (n * n)
    for blocks, generating in pairs.items():
        for a, b in generating:
            principals[a * n + b] = principals[b * n + a] = index[blocks]
    return CongruenceLattice(
        leq=leq,
        join_table=join_table,
        meet_table=meet_table,
        bottom_index=index[bottom],
        top_index=index[(0,) * n],
        algebra=alg,
        congruences=tuple(Congruence(alg, blocks) for blocks in ordered),
        matrix_bounds=tuple(mask.bit_count() ** 2 for mask in masks),
        masks=masks,
        principals=tuple(principals),
        _index=index,
    )


def _pair_orbits(alg: FiniteAlgebra) -> list[list[tuple[int, int]]]:
    """The pairs (a, b) with a < b, grouped into the orbits of the group
    that the bijective closing translations of the plan generate.

    A bijective translation p has finite order, so its inverse is a power of
    p and a polynomial too, and Cg(p(a), p(b)) = Cg(a, b): one closure per
    orbit gives the principal congruence of every pair in it.  For an
    associative operation the closing translations are those by a
    generating set, and that loses no orbit: when the translation by a
    product of generators is bijective, so is the translation by each of
    its factors.
    """
    n = alg.size
    identity = tuple(range(n))
    maps = {
        column
        for _, _, closing, _ in _translation_plan(alg)
        for column in zip(*closing)
        if len(set(column)) == n and column != identity
    }
    seen = bytearray(n * n)
    orbits = []
    for a, b in combinations(range(n), 2):
        if seen[a * n + b]:
            continue
        seen[a * n + b] = 1
        orbit = [(a, b)]
        for x, y in orbit:  # grows while it is read
            for p in maps:
                u, v = (p[x], p[y]) if p[x] < p[y] else (p[y], p[x])
                if not seen[u * n + v]:
                    seen[u * n + v] = 1
                    orbit.append((u, v))
        orbits.append(orbit)
    return orbits


def _relation_mask(blocks) -> int:
    """The related pairs (x, y) of a block array as an int with bit x * n + y."""
    n = len(blocks)
    classes: dict[int, int] = {}
    for x, rep in enumerate(blocks):
        classes[rep] = classes.get(rep, 0) | 1 << x
    mask = 0
    for x, rep in enumerate(blocks):
        mask |= classes[rep] << x * n
    return mask


def _join_blocks(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Join of two canonical block arrays: ``a`` is a union-find forest rooted
    at class minima; merging the trees of each x and b[x] hangs the larger root
    under the smaller, so parents stay below children and one pass finds roots."""
    parent = list(a)
    for x, y in enumerate(b):
        if y != x:
            rx, ry = parent[x], parent[y]
            while parent[rx] != rx:
                rx = parent[rx]
            while parent[ry] != ry:
                ry = parent[ry]
            if rx < ry:
                parent[ry] = rx
            elif ry < rx:
                parent[rx] = ry
    for x, p in enumerate(parent):
        parent[x] = parent[p]
    return tuple(parent)


def _meet_blocks(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Blockwise intersection of two block arrays: one block per pair of labels."""
    return _canonical(zip(a, b))


@lru_cache(maxsize=None)
def _cached_lattice(alg: FiniteAlgebra) -> list:
    """One slot per structural algebra, holding its Con(A) once enumerated;
    it stays empty after an enumeration that went over its budget."""
    return []


def con_lattice(alg: FiniteAlgebra, cap: int | None = None) -> CongruenceLattice:
    """Cached Con(A); all analyses share one lattice per structural algebra.

    The budget is checked on every call, cached or not: |Con(A)| > cap
    raises :class:`SizeBudgetExceeded` (default cap: the process-wide
    CON_CAP), whatever cap the cached lattice was enumerated under.
    """
    if cap is None:
        cap = config.CON_CAP
    slot = _cached_lattice(alg)
    if not slot:
        slot.append(all_congruences(alg, cap=cap))
    elif len(slot[0]) > cap:
        raise SizeBudgetExceeded(f"|Con({alg.name})| exceeds the cap of {cap}")
    return slot[0]


con_lattice.cache_info = _cached_lattice.cache_info
con_lattice.cache_clear = _cached_lattice.cache_clear


def stored(fn):
    """Compute ``fn(lattice, *args)`` once per argument tuple and keep the
    result on ``lattice``, a Con(A).

    Indices inside, ``Congruence`` at the public edge: a stored function is
    an index core, and every other argument is a congruence index or a flag,
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


class Projection:
    """The canonical projection A -> A/theta as the correspondence between
    the interval [theta, nabla] of Con(A) and Con(A/theta).

    ``down[j]`` is the index in ``lattice`` of chi_j/theta when theta <= chi_j
    and None otherwise; ``up[k]`` is the j with ``down[j] == k``.
    """

    __slots__ = ("quotient", "lattice", "down", "up")

    def __init__(self, quotient, lattice, down, up):
        self.quotient = quotient
        self.lattice = lattice  # Con(quotient)
        self.down = down
        self.up = up


@stored
def projection(lattice: CongruenceLattice, t: int) -> Projection:
    """The projection onto ``quotient(A, theta)`` for theta =
    ``congruences[t]``, whose element k is the theta-block of the k-th least
    representative.

    By the correspondence theorem, chi -> chi/theta is a bijection from
    [theta, nabla] onto Con(A/theta); a projected block array that is not a
    congruence of the quotient, or a quotient congruence that no chi
    projects to, raises :class:`Falsified`.
    """
    alg, theta = lattice.algebra, lattice.congruences[t]
    quo = quotient(alg, theta)
    qlattice = con_lattice(quo)
    reps = sorted(set(theta.blocks))
    down: list[int | None] = []
    up: list[int | None] = [None] * len(qlattice)
    for j, chi in enumerate(lattice.congruences):
        if not lattice.leq_index(t, j):
            down.append(None)
            continue
        k = qlattice._index.get(_canonical([chi.blocks[r] for r in reps]))
        if k is None:
            raise Falsified(f"{alg.name}: {chi}/{theta} is not a congruence of the quotient")
        down.append(k)
        up[k] = j
    if None in up:
        raise Falsified(f"{alg.name}: Con(A/{theta}) is larger than the interval above theta")
    return Projection(quo, qlattice, tuple(down), tuple(up))


def join_irreducibles(lattice: CongruenceLattice) -> list[Congruence]:
    """Elements with exactly one lower cover."""
    return [lattice.congruences[i] for i in lattice.join_irreducible_indices()]


def interval_above(lattice: CongruenceLattice, theta: Congruence) -> list[Congruence]:
    """[theta) = all congruences containing theta, in canonical order."""
    i = lattice.index(theta)
    return [
        lattice.congruences[j]
        for j in range(len(lattice.congruences))
        if lattice.leq_index(i, j)
    ]


def all_partitions(n: int):
    """All set partitions of 0..n-1 as block arrays (restricted growth
    strings), in lexicographic order.

    Entry k of a block array is the least member of its block: an earlier
    entry that is its own label, or k itself.  The successor raises the
    rightmost entry that has a larger choice to the next one and resets
    every entry after it to 0.
    """
    blocks = [0] * n
    while True:
        yield tuple(blocks)
        k = n - 1
        while k > 0 and blocks[k] == k:
            k -= 1
        if k <= 0:
            return
        v = blocks[k] + 1
        while v < k and blocks[v] != v:
            v += 1
        blocks[k] = v
        blocks[k + 1 :] = [0] * (n - k - 1)


def brute_force_congruences(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Independent oracle: filter all set partitions by compatibility.

    Exponential in the universe size; intended for n <= 7.
    """
    return [blocks for blocks in all_partitions(alg.size) if is_congruence(alg, blocks)]

"""Congruences of a finite algebra and the lattice Con(A).

A congruence is encoded canonically as a block array of length n mapping each
element to the least element of its block, e.g. [0, 1, 0, 1, 0, 1] for the
mod-2 partition of a 6-element universe.  The lexicographic order on block
arrays gives a deterministic total order used for all iteration downstream.

Generation works by union-find closure under the basic translations of the
algebra (each operation with all but one argument frozen): iterating the
translations over every merged pair closes the relation under all unary
polynomials, which is exactly congruence generation.  Con(A) is then the
closure of the principal congruences under binary join; join is the
transitive closure of the union (automatically compatible), meet is blockwise
intersection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product as iproduct

from . import config
from .algebra import FiniteAlgebra
from .errors import ParentMismatch, SizeBudgetExceeded

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
]

DEFAULT_CON_CAP = config.DEFAULT_CON_CAP


@dataclass(frozen=True)
class Congruence:
    """A compatible partition, canonically encoded by least representatives."""

    algebra: FiniteAlgebra
    blocks: tuple[int, ...]

    def related(self, a: int, b: int) -> bool:
        return self.blocks[a] == self.blocks[b]

    def classes(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for x, rep in enumerate(self.blocks):
            out.setdefault(rep, []).append(x)
        return [out[rep] for rep in sorted(out)]

    def pairs(self) -> list[tuple[int, int]]:
        return [
            (a, b)
            for a in range(len(self.blocks))
            for b in range(len(self.blocks))
            if self.blocks[a] == self.blocks[b]
        ]

    def num_blocks(self) -> int:
        return len(set(self.blocks))

    def is_delta(self) -> bool:
        return all(rep == x for x, rep in enumerate(self.blocks))

    def is_nabla(self) -> bool:
        return all(rep == 0 for rep in self.blocks)

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


def _normalize(parent: list[int]) -> tuple[int, ...]:
    """Collapse a union-find parent array to least-representative form."""
    n = len(parent)
    for x in range(n):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
    least: dict[int, int] = {}
    for x in range(n):
        least.setdefault(parent[x], x)
    return tuple(least[parent[x]] for x in range(n))


@lru_cache(maxsize=None)
def _translation_plan(alg: FiniteAlgebra):
    """Per-algebra list of (table, stride, bases) describing every basic
    translation x -> f(..., x, ...); symmetric binary tables keep one slot."""
    plan = []
    n = alg.size
    for op in alg.operations:
        if op.arity == 0:
            continue
        symmetric = (
            op.arity == 2
            and all(op.table[a * n + b] == op.table[b * n + a] for a in range(n) for b in range(n))
        )
        positions = range(1 if symmetric else op.arity)
        for pos in positions:
            stride = n ** (op.arity - 1 - pos)
            bases = []
            for fillers in iproduct(range(n), repeat=op.arity - 1):
                index = 0
                for j in range(op.arity):
                    if j == pos:
                        index = index * n
                    else:
                        index = index * n + fillers[j if j < pos else j - 1]
                bases.append(index)
            plan.append((op.table, stride, tuple(bases)))
    return tuple(plan)


def _close_pairs(alg: FiniteAlgebra, seeds) -> tuple[int, ...]:
    """Least congruence containing the seed pairs, as a normalized block array."""
    n = alg.size
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = []
    for a, b in seeds:
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            parent[rb] = ra
            pending.append((ra, rb))

    plan = _translation_plan(alg)
    while pending:
        a, b = pending.pop()
        for table, stride, bases in plan:
            for base in bases:
                u = find(table[base + a * stride])
                v = find(table[base + b * stride])
                if u != v:
                    if u > v:
                        u, v = v, u
                    parent[v] = u
                    pending.append((u, v))
    return _normalize(parent)


def delta(alg: FiniteAlgebra) -> Congruence:
    return Congruence(alg, tuple(range(alg.size)))


def nabla(alg: FiniteAlgebra) -> Congruence:
    return Congruence(alg, (0,) * alg.size)


def congruence_from_blocks(alg: FiniteAlgebra, blocks) -> Congruence:
    """Build a congruence from a block array, re-normalizing and validating."""
    from .errors import NotACongruence

    blocks = list(blocks)
    if len(blocks) != alg.size:
        raise NotACongruence(
            f"block array has length {len(blocks)}, expected {alg.size}"
        )
    least: dict[int, int] = {}
    normalized = []
    for x, label in enumerate(blocks):
        if type(label) is not int or not 0 <= label < alg.size:
            raise NotACongruence(f"block entry {label!r} outside 0..{alg.size - 1}")
        least.setdefault(label, x)
        normalized.append(least[label])
    if not is_congruence(alg, normalized):
        raise NotACongruence(f"{blocks} is not compatible with {alg.name}")
    return Congruence(alg, tuple(normalized))


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
    for table, stride, bases in _translation_plan(alg):
        for cls in related:
            first = cls[0]
            for other in cls[1:]:
                for base in bases:
                    if blocks[table[base + first * stride]] != blocks[table[base + other * stride]]:
                        return False
    return True


def join(theta: Congruence, chi: Congruence) -> Congruence:
    """Transitive closure of the union; the result is automatically compatible."""
    _check_parent(theta, chi)
    n = len(theta.blocks)
    parent = list(theta.blocks)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in range(n):
        rx, ry = find(x), find(chi.blocks[x])
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return Congruence(theta.algebra, _normalize(parent))


def meet(theta: Congruence, chi: Congruence) -> Congruence:
    """Blockwise intersection."""
    _check_parent(theta, chi)
    seen: dict[tuple[int, int], int] = {}
    blocks = []
    for x, key in enumerate(zip(theta.blocks, chi.blocks)):
        seen.setdefault(key, x)
        blocks.append(seen[key])
    return Congruence(theta.algebra, tuple(blocks))


@dataclass(frozen=True)
class CongruenceLattice:
    """All congruences of an algebra, with join/meet tables and markers.

    On a finite algebra every congruence is a join of principal congruences,
    so the compact elements are all of Con(A); this is recorded as a stated
    assumption rather than re-derived.
    """

    algebra: FiniteAlgebra
    congruences: tuple[Congruence, ...]  # canonically sorted by block array
    bottom_index: int
    top_index: int
    join_irreducible_flags: tuple[bool, ...]
    principal_witnesses: tuple[tuple[int, int] | None, ...]
    _index: dict = field(compare=False, hash=False, repr=False)
    _join_table: list = field(compare=False, hash=False, repr=False)
    _meet_table: list = field(compare=False, hash=False, repr=False)
    _leq: list = field(compare=False, hash=False, repr=False)
    _caches: dict = field(compare=False, hash=False, repr=False)

    def __len__(self):
        return len(self.congruences)

    def __iter__(self):
        return iter(self.congruences)

    def index(self, theta: Congruence) -> int:
        try:
            return self._index[theta.blocks]
        except KeyError:
            raise ParentMismatch(
                f"{list(theta.blocks)} is not a congruence of {self.algebra.name}"
            ) from None

    @property
    def bottom(self) -> Congruence:
        return self.congruences[self.bottom_index]

    @property
    def top(self) -> Congruence:
        return self.congruences[self.top_index]

    def join_index(self, i: int, j: int) -> int:
        return self._join_table[i][j]

    def meet_index(self, i: int, j: int) -> int:
        return self._meet_table[i][j]

    def leq_index(self, i: int, j: int) -> bool:
        return self._leq[i][j]

    def join_many(self, indices) -> int:
        out = self.bottom_index
        for i in indices:
            out = self._join_table[out][i]
        return out

    def meet_many(self, indices) -> int:
        out = self.top_index
        for i in indices:
            out = self._meet_table[out][i]
        return out

    def join_irreducible_indices(self) -> list[int]:
        return [i for i, flag in enumerate(self.join_irreducible_flags) if flag]

    def lower_covers(self, i: int) -> list[int]:
        below = [j for j in range(len(self.congruences)) if j != i and self._leq[j][i]]
        return [
            j
            for j in below
            if not any(k != j and self._leq[j][k] for k in below)
        ]

    def upper_covers(self, i: int) -> list[int]:
        above = [j for j in range(len(self.congruences)) if j != i and self._leq[i][j]]
        return [
            j
            for j in above
            if not any(k != j and self._leq[k][j] for k in above)
        ]

    def is_modular(self) -> bool:
        size = len(self.congruences)
        for x in range(size):
            for z in range(size):
                if not self._leq[x][z]:
                    continue
                for y in range(size):
                    if self._join_table[x][self._meet_table[y][z]] != self._meet_table[self._join_table[x][y]][z]:
                        return False
        return True


def all_congruences(alg: FiniteAlgebra, cap: int | None = None) -> CongruenceLattice:
    """Enumerate Con(A) by closing the principal congruences under binary join.

    Raises :class:`SizeBudgetExceeded` when more than ``cap`` congruences
    would be produced (default: the process-wide CON_CAP).
    """
    if cap is None:
        cap = config.CON_CAP
    n = alg.size
    principal: dict[tuple[int, ...], tuple[int, int]] = {}
    bottom = tuple(range(n))
    elements: dict[tuple[int, ...], None] = {bottom: None}
    for a, b in combinations(range(n), 2):
        blocks = _close_pairs(alg, [(a, b)])
        principal.setdefault(blocks, (a, b))
        if blocks not in elements and len(elements) >= cap:
            raise SizeBudgetExceeded(f"|Con({alg.name})| exceeds the cap of {cap}")
        elements.setdefault(blocks, None)

    worklist = list(elements)
    generators = list(principal)
    while worklist:
        current = worklist.pop()
        for gen in generators:
            merged = _join_blocks(current, gen)
            if merged not in elements:
                if len(elements) >= cap:
                    raise SizeBudgetExceeded(
                        f"|Con({alg.name})| exceeds the cap of {cap}"
                    )
                elements[merged] = None
                worklist.append(merged)

    ordered = sorted(elements)
    index = {blocks: i for i, blocks in enumerate(ordered)}
    size = len(ordered)
    leq = [
        [all(other[rep] == other[x] for x, rep in enumerate(blocks)) for other in ordered]
        for blocks in ordered
    ]
    join_table = [[0] * size for _ in range(size)]
    meet_table = [[0] * size for _ in range(size)]
    for i, bi in enumerate(ordered):
        for j in range(i, size):
            bj = ordered[j]
            if leq[i][j]:
                jn, mt = j, i
            elif leq[j][i]:
                jn, mt = i, j
            else:
                jn = index[_join_blocks(bi, bj)]
                mt = index[_meet_blocks(bi, bj)]
            join_table[i][j] = join_table[j][i] = jn
            meet_table[i][j] = meet_table[j][i] = mt

    congruences = tuple(Congruence(alg, blocks) for blocks in ordered)
    ji_flags = []
    for i in range(size):
        below = [j for j in range(size) if j != i and leq[j][i]]
        covers = [j for j in below if not any(k != j and leq[j][k] for k in below)]
        ji_flags.append(len(covers) == 1)
    witnesses = tuple(principal.get(blocks) for blocks in ordered)
    return CongruenceLattice(
        algebra=alg,
        congruences=congruences,
        bottom_index=index[bottom],
        top_index=index[(0,) * n],
        join_irreducible_flags=tuple(ji_flags),
        principal_witnesses=witnesses,
        _index=index,
        _join_table=join_table,
        _meet_table=meet_table,
        _leq=leq,
        _caches={},
    )


def _join_blocks(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    parent = list(a)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in range(len(a)):
        rx, ry = find(x), find(b[x])
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return _normalize(parent)


def _meet_blocks(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    seen: dict[tuple[int, int], int] = {}
    blocks = []
    for x, key in enumerate(zip(a, b)):
        seen.setdefault(key, x)
        blocks.append(seen[key])
    return tuple(blocks)


@lru_cache(maxsize=None)
def con_lattice(alg: FiniteAlgebra, cap: int | None = None) -> CongruenceLattice:
    """Cached Con(A); all analyses share one lattice per structural algebra."""
    return all_congruences(alg, cap=cap)


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
    """All set partitions of 0..n-1 as block arrays (restricted growth strings)."""

    def rec(k: int, blocks: list[int], reps: list[int]):
        if k == n:
            yield tuple(blocks)
            return
        for rep in reps:
            blocks.append(rep)
            yield from rec(k + 1, blocks, reps)
            blocks.pop()
        blocks.append(k)
        yield from rec(k + 1, blocks, reps + [k])
        blocks.pop()

    yield from rec(0, [], [])


def brute_force_congruences(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Independent oracle: filter all set partitions by compatibility.

    Exponential in the universe size; intended for n <= 7.
    """
    return [blocks for blocks in all_partitions(alg.size) if is_congruence(alg, blocks)]

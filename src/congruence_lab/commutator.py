"""The binary commutator on Con(A) via the term condition.

[alpha, beta] is computed as the least congruence delta such that every 2x2
matrix [[x, y], [z, w]] in the matrix subalgebra M(alpha, beta) of A^4
transfers delta across its rows (x delta y iff-propagates z delta w, in both
orientations), and symmetrically for M(beta, alpha), so the resulting
operation is commutative in (alpha, beta) by construction rather than by an
appeal to variety-level facts.

M(alpha, beta) is generated by the row matrices [[a, a], [a', a']] for
(a, a') in alpha and the column matrices [[b, b'], [b, b']] for (b, b') in
beta.  Viewing a matrix as its pair of rows, M is a reflexive symmetric
compatible relation on the pair algebra A(beta) (the subalgebra of A^2 with
universe beta), and its transitive closure is the congruence of A(beta)
generated by the diagonal pairs ((a, a), (a', a')), written
Delta_{alpha,beta} (Freese & McKenzie, *Commutator Theory for Congruence
Modular Varieties*, ch. 4).  A congruence delta is closed under the term
condition for M exactly when it is closed for that transitive closure,
because the condition propagates along chains; so the fixpoint below
iterates over the classes of Delta instead of materializing M.

Delta_{alpha v alpha', beta} = Delta_{alpha,beta} v Delta_{alpha',beta} in
every algebra: the diagonal pairs of alpha v alpha' chain through the
diagonal pairs of alpha and alpha', and a join of congruences is the
transitive closure of their union.  So only join-irreducible alpha get an
operation closure on A(beta), cached on the lattice as one label list per
(alpha, beta); every other Delta is a union-find join of those labels over
the join-irreducibles below alpha, and is not cached.  The closure reads
each binary table through per-element row slices (and column slices when
the table is not commutative), built once per algebra.

``matrix_subalgebra`` materializes M and, with the reference fixpoint in
``verify``, is the independent oracle for all of this at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from . import config
from .algebra import FiniteAlgebra
from .congruences import (
    Congruence,
    CongruenceLattice,
    con_lattice,
    congruence_from_pairs,
)
from .errors import SizeBudgetExceeded, TheoryHypothesisFailed

__all__ = [
    "DEFAULT_MATRIX_CAP",
    "MatrixSubalgebra",
    "matrix_subalgebra",
    "commutator",
    "commutator_index",
    "iterated_commutator",
    "commutator_stabilization",
    "residuation",
    "annihilator",
    "SurrogateReport",
    "surrogate_checks",
    "require_theory",
]

DEFAULT_MATRIX_CAP = config.DEFAULT_MATRIX_CAP


@dataclass(frozen=True)
class MatrixSubalgebra:
    """The set M(alpha, beta) of 2x2 matrices, closed under the operations."""

    algebra: FiniteAlgebra
    alpha: Congruence
    beta: Congruence
    matrices: frozenset  # of (x, y, z, w) with rows (x, y) and (z, w)

    def __len__(self):
        return len(self.matrices)


def matrix_subalgebra(
    alg: FiniteAlgebra,
    alpha: Congruence,
    beta: Congruence,
    cap: int | None = None,
) -> MatrixSubalgebra:
    """Materialize M(alpha, beta) by worklist closure.

    Quadratic in |M| per binary operation; meant for small cross-checks only,
    the commutator itself never materializes M.
    """
    if cap is None:
        cap = config.MATRIX_CAP
    n = alg.size
    generators = set()
    for a in range(n):
        for a2 in range(n):
            if alpha.related(a, a2):
                generators.add((a, a, a2, a2))
    for b in range(n):
        for b2 in range(n):
            if beta.related(b, b2):
                generators.add((b, b2, b, b2))
    elements = set(generators)
    worklist = list(generators)

    def push(tup):
        if tup not in elements:
            if len(elements) >= cap:
                raise SizeBudgetExceeded(
                    f"M(alpha, beta) exceeds the cap of {cap} matrices"
                )
            elements.add(tup)
            worklist.append(tup)

    while worklist:
        current = worklist.pop()
        pool = list(elements)  # later additions each get their own pass
        for op in alg.operations:
            if op.arity == 0:
                continue  # constants are already among the generators
            table = op.table
            if op.arity == 1:
                push(tuple(table[c] for c in current))
            elif op.arity == 2:
                for s in pool:
                    push(tuple(table[a * n + b] for a, b in zip(current, s)))
                    push(tuple(table[a * n + b] for a, b in zip(s, current)))
            else:
                for pos in range(op.arity):
                    for fillers in iproduct(pool, repeat=op.arity - 1):
                        args = fillers[:pos] + (current,) + fillers[pos:]
                        push(
                            tuple(
                                op.apply(n, [arg[i] for arg in args])
                                for i in range(4)
                            )
                        )
    return MatrixSubalgebra(alg, alpha, beta, frozenset(elements))


def _binary_translations(lattice: CongruenceLattice) -> list:
    """Per algebra, the basic translations of every binary table as slices:
    the rows ``table[a*n:(a+1)*n]`` (x -> f(a, x)) and, unless the table is
    commutative, the columns ``table[a::n]`` (x -> f(x, a)).  Built on first
    use and kept on the lattice."""
    slices = lattice._caches.get("binary_translations")
    if slices is None:
        alg = lattice.algebra
        n = alg.size
        slices = []
        for op in alg.operations:
            if op.arity != 2:
                continue
            table = op.table
            slices.append([table[a * n : (a + 1) * n] for a in range(n)])
            if any(table[a * n + b] != table[b * n + a] for a in range(n) for b in range(a)):
                slices.append([table[a::n] for a in range(n)])
        lattice._caches["binary_translations"] = slices
    return slices


def _pair_algebra(lattice: CongruenceLattice, b: int):
    """The universe of A(beta) for beta = congruences[b]: its members (x, y)
    with x beta y, and a flat list mapping x*n + y to the member's index."""
    cache = lattice._caches.setdefault("pair_algebra", {})
    hit = cache.get(b)
    if hit is None:
        n = lattice.algebra.size
        blocks = lattice.congruences[b].blocks
        members = [(x, y) for x in range(n) for y in range(n) if blocks[x] == blocks[y]]
        index_of = [-1] * (n * n)
        for i, (x, y) in enumerate(members):
            index_of[x * n + y] = i
        hit = cache[b] = (members, index_of)
    return hit


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


def _close_delta(lattice: CongruenceLattice, a: int, b: int) -> list[int]:
    """Delta_{alpha,beta}: the congruence of the pair algebra A(beta)
    generated by the diagonal alpha-pairs ((x, x), (x', x')), as a class
    label for each member of A(beta); every label is a member of its class."""
    alg = lattice.algebra
    n = alg.size
    members, index_of = _pair_algebra(lattice, b)
    part = _Partition(len(members))
    label, merge, union, pending = part.label, part.merge, part.union, part.pending

    alpha = lattice.congruences[a].blocks
    for x in range(n):
        rep = alpha[x]
        if rep != x:
            union(index_of[rep * n + rep], index_of[x * n + x])

    unary = [op.table for op in alg.operations if op.arity == 1]
    translations = _binary_translations(lattice)
    higher = [op for op in alg.operations if op.arity > 2]
    while pending:
        i, j = pending.pop()
        p0, p1 = members[i]
        q0, q1 = members[j]
        for table in unary:
            union(index_of[table[p0] * n + table[p1]], index_of[table[q0] * n + table[q1]])
        for slices in translations:
            rp0, rp1, rq0, rq1 = slices[p0], slices[p1], slices[q0], slices[q1]
            for s0, s1 in members:
                u = label[index_of[rp0[s0] * n + rp1[s1]]]
                v = label[index_of[rq0[s0] * n + rq1[s1]]]
                if u != v:
                    merge(u, v)
        for op in higher:
            arity = op.arity
            for pos in range(arity):
                for fillers in iproduct(members, repeat=arity - 1):
                    args = list(fillers[:pos]) + [(p0, p1)] + list(fillers[pos:])
                    alt = list(fillers[:pos]) + [(q0, q1)] + list(fillers[pos:])
                    left = op.apply(n, [arg[0] for arg in args]) * n + op.apply(
                        n, [arg[1] for arg in args]
                    )
                    right = op.apply(n, [arg[0] for arg in alt]) * n + op.apply(
                        n, [arg[1] for arg in alt]
                    )
                    union(index_of[left], index_of[right])
    return label


def _delta_classes(
    lattice: CongruenceLattice, a: int, b: int
) -> list[list[tuple[int, int]]]:
    """Classes of Delta_{alpha,beta}, the row classes of the transitive
    closure of M(alpha, beta).

    Only join-irreducible alpha get an operation closure, cached per
    (alpha, beta); any other alpha is the join of the join-irreducibles
    below it, and Delta_{alpha v alpha', beta} = Delta_{alpha,beta} v
    Delta_{alpha',beta}, so its classes come from a union-find join of the
    cached labels (the bottom is the empty join).
    """
    members, _ = _pair_algebra(lattice, b)
    if lattice.join_irreducible_flags[a]:
        labels = _join_irreducible_delta(lattice, a, b)
    else:
        part = _Partition(len(members))
        labels = part.label
        for g in lattice.join_irreducible_indices():
            if lattice.leq_index(g, a):
                for i, rep in enumerate(_join_irreducible_delta(lattice, g, b)):
                    if labels[i] != labels[rep]:
                        part.merge(labels[i], labels[rep])
    classes: dict[int, list[tuple[int, int]]] = {}
    for member, label in zip(members, labels):
        classes.setdefault(label, []).append(member)
    return list(classes.values())


def _join_irreducible_delta(lattice: CongruenceLattice, g: int, b: int) -> list[int]:
    cache = lattice._caches.setdefault("delta", {})
    labels = cache.get((g, b))
    if labels is None:
        labels = cache[(g, b)] = _close_delta(lattice, g, b)
    return labels


def commutator(
    alg: FiniteAlgebra,
    alpha: Congruence,
    beta: Congruence,
    cap: int | None = None,
) -> Congruence:
    """[alpha, beta]; results are cached on the congruence lattice.

    Raises :class:`SizeBudgetExceeded` when the matrix state bound (number of
    related pairs squared) exceeds ``cap``; the bound is checked before
    Con(A) is built.
    """
    _check_matrix_budget(alpha, beta, cap)
    lattice = con_lattice(alg)
    i, j = lattice.index(alpha), lattice.index(beta)
    return lattice.congruences[commutator_index(lattice, i, j, cap=cap)]


def commutator_index(
    lattice: CongruenceLattice, i: int, j: int, cap: int | None = None
) -> int:
    cache = lattice._caches.setdefault("commutator", {})
    key = (i, j) if i <= j else (j, i)
    hit = cache.get(key)
    if hit is not None:
        return hit
    alg = lattice.algebra
    _check_matrix_budget(lattice.congruences[key[0]], lattice.congruences[key[1]], cap)
    class_families = [_delta_classes(lattice, key[0], key[1])]
    if key[0] != key[1]:
        class_families.append(_delta_classes(lattice, key[1], key[0]))
    delta = lattice.bottom
    while True:
        new_pairs = []
        for classes in class_families:
            for cls in classes:
                if any(delta.related(x, y) for x, y in cls):
                    new_pairs.extend(
                        (z, w) for z, w in cls if not delta.related(z, w)
                    )
        if not new_pairs:
            break
        seeds = list(enumerate(delta.blocks))
        delta = congruence_from_pairs(alg, seeds + new_pairs)
    result = lattice.index(delta)
    cache[key] = result
    return result


def _check_matrix_budget(alpha: Congruence, beta: Congruence, cap: int | None) -> None:
    """The matrix state bound: at most max(pairs(alpha), pairs(beta))**2
    matrices, refused above ``cap`` (default: the process-wide MATRIX_CAP)."""
    if cap is None:
        cap = config.MATRIX_CAP
    budget = max(_pair_count(alpha), _pair_count(beta))
    if budget * budget > cap:
        raise SizeBudgetExceeded(
            f"matrix subalgebra budget {cap} exceeded: up to {budget * budget} matrices"
        )


def _pair_count(theta: Congruence) -> int:
    return sum(len(cls) ** 2 for cls in theta.classes())


def iterated_commutator(alg: FiniteAlgebra, alpha: Congruence, n: int) -> Congruence:
    """[alpha, alpha]^n with [alpha, alpha]^0 = alpha.

    The chain is decreasing and eventually constant; indices past the
    stabilization point return the stable value.
    """
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    lattice = con_lattice(alg)
    chain, _ = _iterate_chain(lattice, lattice.index(alpha))
    return lattice.congruences[chain[min(n, len(chain) - 1)]]


def commutator_stabilization(alg: FiniteAlgebra, alpha: Congruence) -> tuple[Congruence, int]:
    """The stable value of n -> [alpha, alpha]^n and the least such n."""
    lattice = con_lattice(alg)
    chain, stable_at = _iterate_chain(lattice, lattice.index(alpha))
    return lattice.congruences[chain[-1]], stable_at


def _iterate_chain(lattice: CongruenceLattice, i: int) -> tuple[list[int], int]:
    cache = lattice._caches.setdefault("iterate_chain", {})
    hit = cache.get(i)
    if hit is not None:
        return hit
    chain = [i]
    while True:
        nxt = commutator_index(lattice, chain[-1], chain[-1])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    result = (chain, len(chain) - 1)
    cache[i] = result
    return result


def residuation(alg: FiniteAlgebra, alpha: Congruence, beta: Congruence) -> Congruence:
    """alpha -> beta: the largest gamma with [alpha, gamma] <= beta.

    Computed as the join of the qualifying join-irreducibles, which is sound
    because the commutator distributes over joins.
    """
    lattice = con_lattice(alg)
    i = lattice.index(alpha)
    j = lattice.index(beta)
    qualifying = [
        g
        for g in lattice.join_irreducible_indices()
        if lattice.leq_index(commutator_index(lattice, i, g), j)
    ]
    return lattice.congruences[lattice.join_many(qualifying)]


def annihilator(alg: FiniteAlgebra, alpha: Congruence) -> Congruence:
    """alpha^perp = alpha -> bottom."""
    lattice = con_lattice(alg)
    return residuation(alg, alpha, lattice.bottom)


@dataclass(frozen=True)
class SurrogateReport:
    """Per-algebra stand-ins for the ambient-variety hypotheses.

    A single finite algebra does not determine its variety, so instead of
    attempting variety membership we check the consequences the analyses
    rely on.  Downstream operations refuse algebras failing ``modular`` or
    ``top_idempotent``.
    """

    algebra: FiniteAlgebra
    modular: bool
    top_idempotent: bool  # [nabla, nabla] = nabla
    top_neutral: bool  # [theta, nabla] = theta for every theta
    closed_under_commutator: bool
    con_size: int

    @property
    def ok(self) -> bool:
        return self.modular and self.top_idempotent

    def failures(self) -> list[str]:
        out = []
        if not self.modular:
            out.append("Con(A) is not modular")
        if not self.top_idempotent:
            out.append("[nabla, nabla] != nabla")
        if not self.top_neutral:
            out.append("[theta, nabla] != theta for some theta")
        if not self.closed_under_commutator:
            out.append("Con(A) is not closed under the commutator")
        return out


def surrogate_checks(alg: FiniteAlgebra) -> SurrogateReport:
    """Run the hypothesis surrogates; pure report, never raises."""
    lattice = con_lattice(alg)
    cached = lattice._caches.get("surrogate")
    if cached is not None:
        return cached
    top = lattice.top_index
    report = SurrogateReport(
        algebra=alg,
        modular=lattice.is_modular(),
        top_idempotent=commutator_index(lattice, top, top) == top,
        top_neutral=all(
            commutator_index(lattice, i, top) == i for i in range(len(lattice))
        ),
        # fixpoint output is a member of Con(A) by construction; recorded so
        # the report mirrors the standing closure hypothesis
        closed_under_commutator=True,
        con_size=len(lattice),
    )
    lattice._caches["surrogate"] = report
    return report


def require_theory(alg: FiniteAlgebra) -> SurrogateReport:
    """Gate for theory-dependent operations; raises TheoryHypothesisFailed."""
    report = surrogate_checks(alg)
    if not report.ok:
        raise TheoryHypothesisFailed(f"{alg.name}: " + "; ".join(report.failures()))
    return report

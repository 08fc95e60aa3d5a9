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
transitive closure of their union.  The fixpoint only asks whether delta,
restricted to A(beta), is a union of Delta-classes, and a set is a union of
classes of a join of equivalences exactly when it is a union of classes of
each of them.  So no Delta is ever joined: only join-irreducible gamma get
an operation closure on A(beta), stored on the lattice once per (gamma,
beta) as the classes C of Delta_{gamma,beta} with more than one member, each
an int with bit x * n + y set for the member (x, y), as in the relation
masks of Con(A), paired with the index of Cg(C), the join of the principal
congruences of its members.  Over the classes of every join-irreducible
below alpha, and, for M(beta, alpha), of every one below beta on A(alpha),
the fixpoint climbs Con(A) by index: from the bottom, delta becomes
delta v Cg(C) for each class C that meets delta, until delta stops moving;
adding the members of C to delta and closing is the same step.  The
closure is the engine of congruence generation lifted to A(beta): the same
quick-find partition, closed under the same translation table of A, read
once on the firsts and once on the seconds of each pair.  An associative
operation of A is associative on A(beta), so there the closure translates
only by a generating set of the semigroup (A(beta), f), found once per beta:
every translation by a member is a composition of translations by
generators.  The generator search computes the product t g of every
member t by each generator g as it spans A(beta); ``_pair_algebra`` keeps
them and the closure translates by them.  Non-associative and ternary
operations keep every member as a filler.  A class of diagonal pairs alone
generates the bottom and can never move delta, so it is not stored.

Two more facts, true in every algebra, skip closures whose results are
already known:

* lower bound: if alpha' <= alpha, then M(alpha', beta) lies inside
  M(alpha, beta), so [alpha', beta] <= [alpha, beta], and the fixpoint
  climbed from any delta_0 <= [alpha, beta] ends at [alpha, beta];
* upper bound: [alpha, beta] <= alpha ^ beta, because alpha ^ beta
  satisfies the term condition for M(alpha, beta) and for M(beta, alpha).

So on a cache miss ``commutator_index`` starts delta at the join of the
stored values [alpha', beta] and [alpha, beta'] over the lower covers
alpha' of alpha and beta' of beta (the bottom where none is stored), and
returns it at once when it is alpha ^ beta.  Otherwise it reads the
closures one (gamma, beta) source at a time, those already stored first,
runs the fixpoint to a stable delta after each, and stops as soon as delta
is alpha ^ beta.  In a congruence-modular algebra the commutator
distributes over joins, so once the values below are stored, a pair whose
alpha or beta is not join-irreducible costs no closure.
``surrogate_index`` asks for [theta, nabla] bottom-up, lower covers first,
and for [nabla, nabla] last, from the join of the coatoms' stored values:
nabla, the bound, whenever nabla has two coatoms, so no closure on A x A.
The third fact, on orbits of bijective translations, is the one
``congruences`` uses to find the principal congruences.

Each Con(A) holds [alpha, beta] in one memo: rows over Con(A), None where
no value is stored yet.  ``commutator_index`` reads it, seeds from it and
writes both orientations.  ``commutator_table`` fills the missing cells
through ``commutator_index`` in reversed index order, bottom-up in Con(A),
so every entry is a fixpoint seeded one lower cover down, then makes the
rows tuples and returns that one object to every scan over all of Con(A):
the ``verify`` suites, the coprime pairs, B-normality, the orthogonal lifts
and the star property.  Single queries and the join-irreducible paths
(``commutator``, ``surrogate_index``, the iterate chains, primality) ask
``commutator_index`` for the pairs they need, so a cold query fills only
those cells.  ``residuation_index`` reads alpha -> beta as the join of the
join-irreducibles g with [alpha, g] <= beta off row alpha of the memo;
``verify`` checks each complement in ``lattices.center_index`` against it.

``matrix_subalgebra`` materializes M and, with the reference fixpoint in
``verify``, is the independent oracle for all of this at small sizes.  It
closes the generators under the operations, a matrix coded as one int from
its two rows.  The closure has a known bound: M lies inside the set
U(alpha, beta) of matrices (x, y, z, w) with x alpha z, y alpha w, x beta y
and z beta w, because every generator lies in U and, when alpha and beta
are compatible, U is closed under the operations.  So the closure stops as
soon as it holds |U| matrices; M = U on 68 of the 70 ordered pairs of the
corpus algebras with n <= 4.  The stop needs U closed, so an equivalence
that fails the compatibility test run first gets no stop, and its closure
runs to the end.
"""

from __future__ import annotations

from collections import Counter
from contextvars import ContextVar
from itertools import product as iproduct
from operator import add

from .algebra import FiniteAlgebra
from .congruences import (
    Congruence,
    CongruenceLattice,
    _Partition,
    _matrix_bound,
    _relation_mask,
    _semigroup_generators,
    _translation_plan,
    con_lattice,
)
from .errors import SizeBudgetExceeded, TheoryHypothesisFailed
from .lattices import stored

__all__ = [
    "DEFAULT_MATRIX_CAP",
    "MATRIX_CAP",
    "MatrixSubalgebra",
    "matrix_subalgebra",
    "commutator",
    "commutator_index",
    "commutator_table",
    "iterated_commutator",
    "commutator_stabilization",
    "residuation",
    "annihilator",
    "SurrogateReport",
    "surrogate_checks",
    "require_theory",
]

DEFAULT_MATRIX_CAP = 10**6
MATRIX_CAP = ContextVar("MATRIX_CAP", default=DEFAULT_MATRIX_CAP)


class MatrixSubalgebra:
    """The set M(alpha, beta) of 2x2 matrices, closed under the operations."""

    __slots__ = ("algebra", "alpha", "beta", "matrices")

    def __init__(self, algebra, alpha, beta, matrices):
        self.algebra = algebra
        self.alpha = alpha
        self.beta = beta
        self.matrices = matrices  # of (x, y, z, w) with rows (x, y) and (z, w)

    def __len__(self):
        return len(self.matrices)


def matrix_subalgebra(
    alg: FiniteAlgebra,
    alpha: Congruence,
    beta: Congruence,
    cap: int | None = None,
) -> MatrixSubalgebra:
    """Materialize M(alpha, beta) by semi-naive worklist closure.

    A matrix (x, y, z, w) is coded as p * n**2 + q from its rows p = x * n + y
    and q = z * n + w, and each binary operation is read through its table on
    row pairs, built once per call.  Each popped matrix joins ``done`` and is
    combined, in every argument position, with the members of ``done``,
    itself included, so each ordered pair of matrices goes through a binary
    operation once; the products of one pop are added as one batch.

    Let U(alpha, beta) be the set of matrices with x alpha z, y alpha w,
    x beta y and z beta w.  Every generator lies in U, and when alpha and
    beta are compatible with every operation, U is closed under the
    operations, so M is inside U and the closure stops as soon as it holds
    all of U: no later product can be new.  The guard is compatibility
    itself, tested one basic translation at a time; for an equivalence that
    is not compatible, U may not be closed, and the closure runs to the end.

    The cap refuses as soon as a new matrix would make more than ``cap``:
    that is, exactly when |M| > cap and M is more than its generators,
    whatever the closure order.  Meant for small cross-checks only: the
    commutator itself never materializes M, and this function shares no
    cache or helper with the Delta route, so it stays an independent oracle
    for it.
    """
    if cap is None:
        cap = MATRIX_CAP.get()
    n = alg.size
    nn = n * n
    a, b = alpha.blocks, beta.blocks
    seen = {(x * n + x) * nn + z * n + z for x in range(n) for z in range(n) if a[x] == a[z]}
    seen |= {(x * n + y) * (nn + 1) for x in range(n) for y in range(n) if b[x] == b[y]}
    worklist = list(seen)

    def compatible(blocks):
        """Whether every basic translation keeps the classes of blocks: the
        arguments other than the one at ``pos`` are fixed by ``base``, the
        index of the argument tuple with 0 at ``pos``.  Not
        ``is_congruence``, which reads the Delta route's translation table."""
        for op in alg.operations:
            t = op.table
            for pos in range(op.arity):
                stride = n ** (op.arity - 1 - pos)
                for base in range(len(t)):
                    if base // stride % n == 0:
                        image = {}
                        for x in range(n):
                            v = blocks[t[base + x * stride]]
                            if image.setdefault(blocks[x], v) != v:
                                return False
        return True

    full = None  # |U|, where the closure may stop
    if compatible(a) and compatible(b):
        # (x, y, z, w) is in U iff both rows are beta-pairs whose alpha-classes agree
        classes = Counter((a[x], a[y]) for x in range(n) for y in range(n) if b[x] == b[y])
        full = sum(c * c for c in classes.values())

    # constants are already among the generators; the rows of a product are
    # read off tables on row pairs p = x * n + y, and a binary table's is
    # f((x, y), (x', y')) = (f(x, x'), f(y, y')); each table comes scaled by
    # n**2 too, for the first row
    unary = []
    binary = []
    higher = [op for op in alg.operations if op.arity > 2]
    for op in alg.operations:
        t = op.table
        if op.arity == 1:
            rows = [t[x] * n + t[y] for x in range(n) for y in range(n)]
            unary.append(([r * nn for r in rows], rows))
        elif op.arity == 2:
            rows = [
                [t[x * n + x2] * n + t[y * n + y2] for x2 in range(n) for y2 in range(n)]
                for x in range(n)
                for y in range(n)
            ]
            cols = [list(column) for column in zip(*rows)]
            for table in (rows, cols) if cols != rows else (rows,):
                binary.append(([[r * nn for r in row] for row in table], table))
    done_p, done_q = [], []
    while worklist and len(seen) != full:
        m = worklist.pop()
        p, q = divmod(m, nn)
        done_p.append(p)
        done_q.append(q)
        new = {high[p] + low[q] for high, low in unary}
        for high, low in binary:
            new.update(map(add, map(high[p].__getitem__, done_p), map(low[q].__getitem__, done_q)))
        if higher:
            done = [(p // n, p % n, q // n, q % n) for p, q in zip(done_p, done_q)]
            current = done[-1]
        for op in higher:
            for pos in range(op.arity):
                for fillers in iproduct(done, repeat=op.arity - 1):
                    args = fillers[:pos] + (current,) + fillers[pos:]
                    x, y, z, w = (op.apply(n, coords) for coords in zip(*args))
                    new.add((x * n + y) * nn + z * n + w)
        new -= seen
        if new:
            if len(seen) + len(new) > cap:
                raise SizeBudgetExceeded(f"M(alpha, beta) exceeds the cap of {cap} matrices")
            seen |= new
            worklist += new
    matrices = frozenset((m // nn // n, m // nn % n, m % nn // n, m % n) for m in seen)
    return MatrixSubalgebra(alg, alpha, beta, matrices)


@stored
def _pair_algebra(lattice: CongruenceLattice, b: int):
    """The universe of A(beta) for beta = congruences[b], as
    ``(firsts, seconds, index_of, products)``: member i is
    (firsts[i], seconds[i]), with x beta y for every member (x, y);
    ``index_of[x * n + y]`` is the index of (x, y); and ``products[e]``, for
    plan entry e, maps the members that generate A(beta) under its
    associative operation to their product tuples (see
    ``_semigroup_generators``), or is None for every other entry and
    wherever no proper subset is found."""
    alg = lattice.algebra
    n = alg.size
    mask = lattice.masks[b]
    cells = [c for c in range(n * n) if mask >> c & 1]  # (x, y) is cell x * n + y
    index_of = [-1] * (n * n)
    for i, c in enumerate(cells):
        index_of[c] = i
    firsts, seconds = tuple(c // n for c in cells), tuple(c % n for c in cells)
    products = []
    for _, rows, _, _, scores in _translation_plan(alg):
        found = None
        if scores is not None:  # an associative operation
            found = _semigroup_generators(rows, scores, firsts, seconds, index_of)
            if len(found) == len(firsts):
                found = None
        products.append(found)
    return firsts, seconds, index_of, tuple(products)


@stored
def _close_delta(lattice: CongruenceLattice, g: int, b: int) -> tuple[int, ...]:
    """Delta_{gamma,beta} for gamma = congruences[g]: the congruence of the
    pair algebra A(beta) generated by the diagonal gamma-pairs ((x, x),
    (x', x')), as its classes C with a member off the diagonal, each as two
    entries of one flat tuple: an int with bit x * n + y set for every
    member (x, y), then the index of Cg(C), the join of the principal
    congruences of its members.  Flat, because a pair per class would hold
    one more object per class for the life of the lattice.

    A translation of A(beta) freezes its other arguments to members of
    A(beta), so it acts on the firsts and on the seconds of a member as the
    A-translations whose frozen tuples are the firsts and the seconds of
    those members.  An associative operation translates by the product
    tuples of its generators of A(beta) alone, since every translation by a
    member is a composition of translations by generators.  Every other
    plan entry gets the ranks of the two frozen tuples as two coordinate
    lists, for every choice of ``width`` members, in product order.
    """
    n = lattice.algebra.size
    firsts, seconds, index_of, products = _pair_algebra(lattice, b)
    part = _Partition(len(firsts))
    label, merge, pending = part.label, part.merge, part.pending

    gamma = lattice.congruences[g].blocks
    for x, rep in enumerate(gamma):
        if rep != x:
            part.union(index_of[rep * n + rep], index_of[x * n + x])

    plan = _translation_plan(lattice.algebra)
    fillers = [((0,), (0,)), (firsts, seconds)]
    for _ in range(2, max((width for width, *_ in plan), default=1) + 1):
        r0s, r1s = fillers[-1]
        fillers.append(
            (
                [r0 * n + s0 for r0 in r0s for s0 in firsts],
                [r1 * n + s1 for r1 in r1s for s1 in seconds],
            )
        )
    steps = [
        (rows, *fillers[width])
        for (width, rows, *_), found in zip(plan, products)
        if found is None
    ]
    by_generators = [
        column for found in products if found is not None for column in found.values()
    ]
    while pending:
        i, j = pending.pop()
        for column in by_generators:
            u, v = label[column[i]], label[column[j]]
            if u != v:
                merge(u, v)
        p0, p1, q0, q1 = firsts[i], seconds[i], firsts[j], seconds[j]
        for rows, s0s, s1s in steps:
            rp0, rp1, rq0, rq1 = rows[p0], rows[p1], rows[q0], rows[q1]
            for s0, s1 in zip(s0s, s1s):
                u = label[index_of[rp0[s0] * n + rp1[s1]]]
                v = label[index_of[rq0[s0] * n + rq1[s1]]]
                if u != v:
                    merge(u, v)
    principals, join_many = lattice.principals, lattice.join_many
    bottom, classes = lattice.bottom_index, []
    for group in part.groups:
        if group and len(group) > 1:
            cells = [firsts[i] * n + seconds[i] for i in group]
            generated = join_many({principals[c] for c in cells})
            if generated != bottom:  # else every member is a diagonal pair
                classes += (sum([1 << c for c in cells]), generated)
    return tuple(classes)


def commutator(
    alg: FiniteAlgebra,
    alpha: Congruence,
    beta: Congruence,
    cap: int | None = None,
) -> Congruence:
    """[alpha, beta]; results are cached on the congruence lattice.

    Raises :class:`SizeBudgetExceeded` when the ``_matrix_bound`` of alpha
    or beta exceeds ``cap``, before Con(A) is built.
    """
    if cap is None:
        cap = MATRIX_CAP.get()
    bound = max(_matrix_bound(_relation_mask(theta.blocks)) for theta in (alpha, beta))
    if bound > cap:
        raise _budget_error(bound, cap)
    lattice = con_lattice(alg)
    i, j = lattice.index(alpha), lattice.index(beta)
    return lattice.congruences[commutator_index(lattice, i, j, cap=cap)]


def commutator_index(
    lattice: CongruenceLattice, i: int, j: int, cap: int | None = None
) -> int:
    """[congruences[i], congruences[j]] as an index; the matrix budget is
    checked on every call, stored or not.  A miss is seeded from the memo
    one lower cover down and stops at the meet (see the module docstring)."""
    if cap is None:
        cap = MATRIX_CAP.get()
    bounds = lattice.matrix_bounds
    if bounds[i] > cap or bounds[j] > cap:
        raise _budget_error(max(bounds[i], bounds[j]), cap)
    memo = lattice._caches.get("commutator") or _memo(lattice)
    result = memo[i][j]
    if result is not None:
        return result
    a, b = (i, j) if i <= j else (j, i)
    bound = lattice.meet_table[a][b]  # [alpha, beta] <= alpha ^ beta
    join, covers = lattice.join_table, lattice.lower_covers
    # [alpha', beta] <= [alpha, beta] for alpha' <= alpha: start above the
    # stored values one step down on either side
    result = lattice.bottom_index
    for c, d in [(c, b) for c in covers[a]] + [(a, d) for d in covers[b]]:
        below = memo[c][d]
        if below is not None:
            result = join[result][below]
    if result != bound:
        # delta is closed for Delta_{alpha,beta} iff it is for each
        # Delta_{g,beta}; the closures already stored are read first
        leq, ji = lattice.leq, lattice.join_irreducible_indices()
        sources = [(g, b) for g in ji if leq[g][a]]
        if a != b:
            sources += [(g, a) for g in ji if leq[g][b]]
        closed = lattice._caches.get(f"{__name__}._close_delta", {})
        sources.sort(key=lambda source: source not in closed)
        masks, classes = lattice.masks, []
        for g, c in sources:
            # delta is stable for the classes read so far: the first round
            # reads the new ones, and the rounds after a move read them all
            scan = _close_delta(lattice, g, c)
            classes += scan
            previous = None
            while result != previous:
                previous = result
                flat = iter(scan)  # the mask of a class C, then the index of Cg(C)
                for cls, generated in zip(flat, flat):
                    if cls & masks[result]:
                        result = join[result][generated]
                scan = classes
            if result == bound:
                break
    memo[a][b] = memo[b][a] = result
    return result


def _memo(lattice: CongruenceLattice) -> list | tuple:
    """The one store of [i, j] on Con(A): rows with None where no value is
    stored yet, made tuples once ``commutator_table`` has filled them."""
    memo = lattice._caches.get("commutator")
    if memo is None:
        size = len(lattice)
        memo = lattice._caches["commutator"] = [[None] * size for _ in range(size)]
    return memo


def commutator_table(lattice: CongruenceLattice) -> tuple[tuple[int, ...], ...]:
    """The memo's rows, filled; the matrix budget is checked on every call
    against the bound of the top congruence, the largest."""
    cap, bound = MATRIX_CAP.get(), lattice.matrix_bounds[lattice.top_index]
    if bound > cap:
        raise _budget_error(bound, cap)
    memo = _memo(lattice)
    if type(memo) is list:
        # in reversed index order, bottom-up in Con(A), so each entry is a
        # fixpoint seeded from the entries one lower cover down; never a join,
        # which would make join-distributivity true by construction
        for i in reversed(range(len(memo))):
            for j in reversed(range(i + 1)):
                if memo[i][j] is None:
                    commutator_index(lattice, i, j)
        memo = lattice._caches["commutator"] = tuple(map(tuple, memo))
    return memo


def _budget_error(bound: int, cap: int) -> SizeBudgetExceeded:
    """The larger ``_matrix_bound`` of alpha and beta is over ``cap``
    (default: the current context's MATRIX_CAP)."""
    return SizeBudgetExceeded(
        f"matrix subalgebra budget {cap} exceeded: up to {bound} matrices"
    )


def iterated_commutator(alg: FiniteAlgebra, alpha: Congruence, n: int) -> Congruence:
    """[alpha, alpha]^n with [alpha, alpha]^0 = alpha.

    The chain is decreasing and eventually constant; indices past the
    stabilization point return the stable value.
    """
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    lattice = con_lattice(alg)
    chain = _iterate_chain(lattice, lattice.index(alpha))
    return lattice.congruences[chain[min(n, len(chain) - 1)]]


def commutator_stabilization(alg: FiniteAlgebra, alpha: Congruence) -> tuple[Congruence, int]:
    """The stable value of n -> [alpha, alpha]^n and the least such n."""
    lattice = con_lattice(alg)
    chain = _iterate_chain(lattice, lattice.index(alpha))
    return lattice.congruences[chain[-1]], len(chain) - 1


@stored
def _iterate_chain(lattice: CongruenceLattice, i: int) -> tuple[int, ...]:
    chain = [i]
    while True:
        nxt = commutator_index(lattice, chain[-1], chain[-1])
        if nxt == chain[-1]:
            return tuple(chain)
        chain.append(nxt)


@stored
def _stable_iterates(lattice: CongruenceLattice) -> tuple[int, ...]:
    return tuple(_iterate_chain(lattice, i)[-1] for i in range(len(lattice)))


def residuation(alg: FiniteAlgebra, alpha: Congruence, beta: Congruence) -> Congruence:
    """alpha -> beta: the largest gamma with [alpha, gamma] <= beta."""
    lattice = con_lattice(alg)
    i, j = lattice.index(alpha), lattice.index(beta)
    return lattice.congruences[residuation_index(lattice, i, j)]


def residuation_index(lattice: CongruenceLattice, i: int, j: int) -> int:
    """congruences[i] -> congruences[j], as the join of the qualifying
    join-irreducibles, which is sound because the commutator distributes
    over joins.  Reads row i of the memo; past the cap at the top, every
    pair (i, g) goes through ``commutator_index``, so the first one over
    it is refused as when cold."""
    row, leq, join = _memo(lattice)[i], lattice.leq, lattice.join_table
    over = lattice.matrix_bounds[lattice.top_index] > MATRIX_CAP.get()
    result = lattice.bottom_index
    for g in lattice.join_irreducible_indices():
        c = row[g]
        if over or c is None:
            c = commutator_index(lattice, i, g)
        if leq[c][j]:
            result = join[result][g]
    return result


def annihilator(alg: FiniteAlgebra, alpha: Congruence) -> Congruence:
    """alpha^perp = alpha -> bottom."""
    lattice = con_lattice(alg)
    return lattice.congruences[annihilator_index(lattice, lattice.index(alpha))]


def annihilator_index(lattice: CongruenceLattice, i: int) -> int:
    return residuation_index(lattice, i, lattice.bottom_index)


class SurrogateReport:
    """Per-algebra stand-ins for the ambient-variety hypotheses.

    A single finite algebra does not determine its variety, so instead of
    attempting variety membership we check the consequences the analyses
    rely on.  Downstream operations refuse algebras failing any of the
    three: in a semidegenerate congruence-modular variety [theta, nabla] =
    theta for every theta (Kollar; Agliano and Ursini), which gives
    [nabla, nabla] = nabla as its case theta = nabla.
    """

    __slots__ = ("algebra", "modular", "top_idempotent", "top_neutral", "con_size")

    def __init__(self, algebra, modular, top_idempotent, top_neutral, con_size):
        self.algebra = algebra
        self.modular = modular
        self.top_idempotent = top_idempotent  # [nabla, nabla] = nabla
        self.top_neutral = top_neutral  # [theta, nabla] = theta for every theta
        self.con_size = con_size

    @property
    def ok(self) -> bool:
        return self.modular and self.top_idempotent and self.top_neutral

    def failures(self) -> list[str]:
        out = []
        if not self.modular:
            out.append("Con(A) is not modular")
        if not self.top_idempotent:
            out.append("[nabla, nabla] != nabla")
        if not self.top_neutral:
            out.append("[theta, nabla] != theta for some theta")
        return out


def surrogate_checks(alg: FiniteAlgebra) -> SurrogateReport:
    """Run the hypothesis surrogates; pure report, never raises."""
    lattice = con_lattice(alg)
    return SurrogateReport(alg, *surrogate_index(lattice), con_size=len(lattice))


@stored
def surrogate_index(lattice: CongruenceLattice) -> tuple[bool, bool, bool]:
    """Whether Con(A) is modular, [nabla, nabla] = nabla, and [theta, nabla] =
    theta for every theta."""
    top = lattice.top_index
    modular = lattice.is_modular()
    # lower covers first, so each query starts from the stored values below;
    # the top comes last and starts from the join of its coatoms' values
    neutral = all(commutator_index(lattice, i, top) == i for i in reversed(range(len(lattice))))
    return modular, commutator_index(lattice, top, top) == top, neutral


def require_theory(alg: FiniteAlgebra) -> SurrogateReport:
    """Gate for theory-dependent operations; raises TheoryHypothesisFailed."""
    report = surrogate_checks(alg)
    if not report.ok:
        raise TheoryHypothesisFailed(f"{alg.name}: " + "; ".join(report.failures()))
    return report

"""Boolean centers, the congruence Boolean lifting property, and the
characterization/transfer suites built on it.

A congruence theta has CBLP when the Boolean-center map of the canonical
projection is surjective: every complemented congruence of A/theta is
(alpha v theta)/theta for some complemented alpha of A.

A/theta is read as the interval [theta, nabla] of Con(A).  By the
correspondence theorem chi -> chi/theta maps it onto Con(A/theta), keeping
the index order, and in a congruence-modular variety [alpha/theta,
beta/theta] = ([alpha, beta] v theta)/theta (Freese and McKenzie, ch. 4).
So A/theta has the joins, meets and order of Con(A) above theta, the
commutator [alpha, beta] v theta, and the center ``center_index`` at base
theta, a function of any lattice, as are the cores that read only it.  A is
the case theta = Delta: A and every A/theta take one code path, and no
Con(A/theta) is built here; the quotient side of each identity is an
oracle in ``verify``.

Indices inside, ``Congruence`` at the public edge.  Each result that the
``verify`` suites read has an index core, named after it with an ``_index``
suffix, that takes Con(A) and congruence indices and returns indices and
flags; a member chi of [theta, nabla] stands for chi/theta.  A public
function runs the theory gate, indexes its congruence arguments, calls its
core and builds its report for the caller's algebra, mapping chi to
chi/theta and back with ``congruences.quotient_edge``.  The transfer
results (radical invariance, the star and maximal-interval transfers, the
regular-join and non-coprime-meet transfers) live in ``verify``'s lifting
suite alone, which checks each over whole lists of ``cblp_index`` verdicts.

B(p_theta) is one stored row per theta, ``center_map_index``: alpha v theta
for each complemented congruence alpha, in center order.  CBLP and its
witnesses, the fibers of orthogonal lifting, the Rad-injectivity test and
``verify``'s certificate and morphism checks all read that row.

Clauses (2) and (3) of the characterization read only the coprime pairs
that no center pair separates at their own commutator: separation at theta
reads theta v phi and theta v psi, which grow with theta.  ``has_id_blp``
reads L/(g] off the interval [g, 1] of L instead of building it.
"""

from __future__ import annotations

import json
from itertools import combinations, compress

from .algebra import FiniteAlgebra
from .commutator import commutator_index, commutator_table, require_theory
from .congruences import Congruence, CongruenceLattice, con_lattice, quotient_edge
from .errors import Falsified, HypothesisNotMet, NoCBLP, NotALattice, NotOrthogonal, ParentMismatch
from .lattices import FiniteLattice, LatticeIdeal, _members, center_index, stored
from .reticulation import center_preservation_index, reticulation_index
from .spectrum import clopen_index, is_hyperarchimedean, open_table, spectrum_index

__all__ = [
    "BooleanCenter",
    "boolean_center_of_congruences",
    "projection_image",
    "LiftingReport",
    "has_cblp",
    "IdBlpReport",
    "has_id_blp",
    "rad_cblp_criterion",
    "diamond",
    "diamond_star_commute",
    "cblp_characterization",
    "quotient_cblp_descent",
    "BNormalReport",
    "is_b_normal",
    "hyperarchimedean_cblp",
    "lift_orthogonal",
    "OrthogonalReport",
    "orthogonal_uniqueness_and_atoms",
    "ring_idempotents",
    "ring_idempotent_lifting",
]


def _indices(alg: FiniteAlgebra, *congruences: Congruence) -> tuple:
    """Con(A) and the indices of the given congruences, after the theory
    gate."""
    require_theory(alg)
    lattice = con_lattice(alg)
    return (lattice, *map(lattice.index, congruences))


# ---------------------------------------------------------------------------
# Boolean centers


class BooleanCenter:
    """The complemented congruences of an algebra, with complements."""

    __slots__ = ("elements", "complement", "atoms")

    def __init__(self, elements, complement, atoms):
        self.elements = elements  # congruences
        self.complement = complement
        self.atoms = atoms

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def boolean_center_of_congruences(alg: FiniteAlgebra) -> BooleanCenter:
    """B(Con(A)), from ``center_index`` at theta = Delta."""
    require_theory(alg)
    lattice = con_lattice(alg)
    members, complement, atoms = center_index(lattice, lattice.bottom_index)
    con = lattice.congruences
    return BooleanCenter(
        elements=tuple(con[i] for i in members),
        complement={con[i].blocks: con[j] for i, j in complement.items()},
        atoms=tuple(con[i] for i in atoms),
    )


# ---------------------------------------------------------------------------
# Canonical projections


def projection_image(alg: FiniteAlgebra, theta: Congruence, alpha: Congruence) -> Congruence:
    """The image congruence (alpha v theta)/theta of the canonical projection."""
    lattice = con_lattice(alg)
    t = lattice.index(theta)
    down, _ = quotient_edge(lattice, t)
    return down(lattice.join_table[lattice.index(alpha)][t])


@stored
def center_map_index(lattice: FiniteLattice, t: int) -> tuple[int, ...]:
    """B(p_theta) as one row: alpha v theta for each member alpha of
    B(Con(A)), in center order."""
    join_t = lattice.join_table[t]
    return tuple(join_t[a] for a in center_index(lattice, lattice.bottom_index)[0])


# ---------------------------------------------------------------------------
# CBLP


class LiftingReport:
    """Per-congruence lifting verdicts.

    ``witnesses`` maps each complemented congruence of the quotient to a
    complemented lift; ``counterexample`` holds an unliftable target when
    there is one.  ``thm63`` carries the four characterization verdicts once
    they are computed; ``exploratory`` marks reports computed although the
    reticulation fails to preserve the Boolean center.
    """

    __slots__ = (
        "algebra", "theta", "cblp", "witnesses", "counterexample", "regular", "diamond", "thm63",
        "exploratory",
    )

    def __init__(
        self, algebra, theta, cblp, witnesses, counterexample, regular, diamond, thm63=None,
        exploratory=False,
    ):
        self.algebra = algebra
        self.theta = theta
        self.cblp = cblp
        self.witnesses = witnesses  # pairs (target in A/theta, lift in A)
        self.counterexample = counterexample
        self.regular = regular
        self.diamond = diamond
        self.thm63 = thm63
        self.exploratory = exploratory

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def to_json_dict(self) -> dict:
        thm = self.thm63 or {}
        return {
            "theta": list(self.theta.blocks),
            "cblp": self.cblp,
            "witnesses": [
                {"target": list(b.blocks), "lift": list(a.blocks)}
                for b, a in self.witnesses
            ]
            + (
                [{"unliftable": list(self.counterexample.blocks)}]
                if self.counterexample is not None
                else []
            ),
            "thm63": {
                "c1": thm.get("c1"),
                "c2": thm.get("c2"),
                "c3": thm.get("c3"),
                "c4": thm.get("c4"),
            },
            "regular": self.regular,
            "diamond": list(self.diamond.blocks),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def has_cblp(alg: FiniteAlgebra, theta: Congruence) -> LiftingReport:
    """Decide whether B(p_theta) is surjective and record witnesses."""
    return _lifting_report(alg, *_indices(alg, theta))


def _lifting_report(
    alg: FiniteAlgebra, lattice: CongruenceLattice, t: int, thm63=None, exploratory=False
) -> LiftingReport:
    cblp, witnesses, counterexample = cblp_index(lattice, t)
    con, down = lattice.congruences, quotient_edge(lattice, t)[0]
    dia = diamond_index(lattice, t)
    return LiftingReport(
        algebra=alg,
        theta=con[t],
        cblp=cblp,
        witnesses=tuple((down(k), con[a]) for k, a in witnesses),
        counterexample=None if counterexample is None else down(counterexample),
        regular=dia == t,
        diamond=con[dia],
        thm63=thm63,
        exploratory=exploratory,
    )


@stored
def cblp_index(lattice: FiniteLattice, t: int) -> tuple[bool, tuple, int | None]:
    """Whether theta has CBLP; the witnesses (k, a), each member k of
    B([theta, nabla]) in order with a complemented lift a; and the first k
    with no lift, or None."""
    targets = center_index(lattice, t)[0]
    members = center_index(lattice, lattice.bottom_index)[0]
    images = center_map_index(lattice, t)
    witnesses = []
    for k in targets:
        if k not in images:
            return False, tuple(witnesses), k
        witnesses.append((k, members[images.index(k)]))
    return True, tuple(witnesses), None


@stored
def _all_cblp(lattice: FiniteLattice, t: int) -> bool:
    """Whether A/theta has CBLP at every congruence: chi/theta has it when
    B([chi, nabla]) lies inside {beta v chi : beta in B([theta, nabla])}.
    At theta = Delta these are the verdicts of ``cblp_index``."""
    members, join = center_index(lattice, t)[0], lattice.join_table
    return all(
        set(center_index(lattice, c)[0]).issubset([join[b][c] for b in members])
        for c in compress(range(len(lattice)), lattice.leq[t])
    )


# ---------------------------------------------------------------------------
# Ideal lifting in distributive lattices


class IdBlpReport:
    __slots__ = ("lattice", "ideal", "lifts", "witnesses", "counterexample")

    def __init__(self, lattice, ideal, lifts, witnesses, counterexample):
        self.lattice = lattice
        self.ideal = ideal
        self.lifts = lifts
        self.witnesses = witnesses  # pairs (quotient class index, lifting element)
        self.counterexample = counterexample  # quotient class index with no lift


def has_id_blp(lattice: FiniteLattice, ideal: LatticeIdeal) -> IdBlpReport:
    """Whether every complemented class of L/I lifts to a complemented
    element of L; the quotient is by x ~ y iff x v i = y v i for some i in I.

    L/I is read off the tables of the ideal's lattice without building it:
    as in ``quotient_by_ideal``, its classes are the members y of the
    interval [g, 1], numbered in the order of their least members, and the
    interval's bounds, joins and meets are the parent's, so y is
    complemented in L/I iff y v z = 1 and y ^ z = g for some z >= g.
    Raises :class:`ParentMismatch` when I is an ideal of another lattice.
    """
    if ideal.lattice != lattice:
        raise ParentMismatch("the ideal is not an ideal of the given lattice")
    center_l = lattice.center  # first: L's NotALattice comes before L/I's
    g = ideal.generator
    join, (mates, several) = lattice.join_table, lattice.interval_complements
    position: dict[int, int] = {}  # the class of x is position[x v g]
    for y in join[g]:
        position.setdefault(y, len(position))
    lift_of: dict[int, int] = {}  # each class's least complemented member
    for x in center_l:
        lift_of.setdefault(position[join[g][x]], x)
    witnesses, counterexample = [], None
    for y, k in position.items():
        if (y, g) in several:
            positions = sorted(position[z] for z in several[y, g])
            raise NotALattice(f"element {k} has several complements: {positions}")
        if g in mates[y] and counterexample is None:
            if k in lift_of:
                witnesses.append((k, lift_of[k]))
            else:
                counterexample = k
    return IdBlpReport(lattice, ideal, counterexample is None, tuple(witnesses), counterexample)


# ---------------------------------------------------------------------------
# The Rad(A) criterion


def rad_cblp_criterion(alg: FiniteAlgebra) -> bool:
    """Rad(A) has CBLP iff alpha -> Max(A) n D(alpha) is a Boolean
    isomorphism from B(Con(A)) onto Clop(Max(A)).

    Also verifies on the way that the quotient-center map onto Clop(Max(A))
    is a Boolean isomorphism; a failure makes the criterion return False.
    That the center map of the Rad projection is injective is verify's
    orthogonal-lift-unique at theta = Rad.
    """
    require_theory(alg)
    lattice = con_lattice(alg)
    rad = spectrum_index(lattice, False)[2]
    # each image Max(A) n D(alpha) is an int bitset of the maximals, by position
    clopens = clopen_index(lattice)
    traces = open_table(lattice)[1]

    members = center_index(lattice, lattice.bottom_index)[0]
    g_values = [traces[a] for a in members]
    # g is always an injective Boolean morphism here; surjectivity onto the
    # clopens is the criterion
    if any(u not in clopens for u in g_values):
        return False
    g_iso = len(set(g_values)) == len(g_values) and set(g_values) == clopens

    # the quotient-center map: B([Rad, nabla]) onto Clop(Max(A)), a Boolean
    # morphism since D takes joins to unions and meets to intersections
    f_values = [traces[k] for k in center_index(lattice, rad)[0]]
    if len(set(f_values)) != len(f_values) or set(f_values) != clopens:
        return False

    return g_iso == cblp_index(lattice, rad)[0]


# ---------------------------------------------------------------------------
# Regular congruences and the characterization theorem


def diamond(alg: FiniteAlgebra, theta: Congruence) -> Congruence:
    """Join of the complemented congruences below theta."""
    lattice, t = _indices(alg, theta)
    return lattice.congruences[diamond_index(lattice, t)]


@stored
def diamond_index(lattice: FiniteLattice, t: int) -> int:
    leq = lattice.leq
    return lattice.join_many(
        a for a in center_index(lattice, lattice.bottom_index)[0] if leq[a][t]
    )


def diamond_star_commute(alg: FiniteAlgebra, theta: Congruence) -> bool:
    """The ideal of the reticulation generated by the complemented part of
    theta* equals (theta-diamond)*; also: regular theta gives a regular
    ideal theta*."""
    return diamond_star_commute_index(*_indices(alg, theta))


def diamond_star_commute_index(lattice: CongruenceLattice, t: int) -> bool:
    _, retic_lattice, lam = reticulation_index(lattice)
    g = lam[t]  # theta* = (g]
    # the generator of the ideal generated by the complemented part of theta*
    ideal_diamond = diamond_index(retic_lattice, g)
    dia = diamond_index(lattice, t)
    if ideal_diamond != lam[dia]:
        return False
    return dia != t or ideal_diamond == g


@stored
def _coprime_pairs(lattice: CongruenceLattice) -> tuple[int, ...]:
    """For each i, {j : i v j is the top congruence} as an int bitset; the
    readers take [i, j] from ``commutator_table``."""
    top = lattice.top_index
    return tuple(
        sum(1 << j for j, joined in enumerate(row) if joined == top) for row in lattice.join_table
    )


@stored
def _center_pair_bits(lattice: CongruenceLattice) -> tuple[list[int], list[int]]:
    """Over the center pairs (alpha, alpha'), k-th in center order, where
    alpha' is alpha's complement: for each congruence x, the int bitsets
    {k : alpha_k <= x} and {k : alpha'_k <= x}."""
    members, complement, _ = center_index(lattice, lattice.bottom_index)
    below_a = [0] * len(lattice)
    below_na = [0] * len(lattice)
    for k, a in enumerate(members):
        for x, (above_a, above_na) in enumerate(zip(lattice.leq[a], lattice.leq[complement[a]])):
            if above_a:
                below_a[x] |= 1 << k
            if above_na:
                below_na[x] |= 1 << k
    return below_a, below_na


def cblp_characterization(alg: FiniteAlgebra, theta: Congruence) -> LiftingReport:
    """The four equivalent characterizations of CBLP for theta:

    (1) the lifting property itself; (2)/(3) a complemented congruence
    separating theta v phi from theta v psi for all coprime phi, psi with
    [phi, psi] below (resp. equal to) theta; (4) the center of
    A/(theta v phi-diamond) is trivial for every maximal phi.

    Requires the reticulation to preserve the Boolean center; when it does
    not, the verdicts are still computed and the report is marked
    exploratory.
    """
    lattice, t = _indices(alg, theta)
    c1, c2, c3, c4 = cblp_characterization_index(lattice, t)
    exploratory = not center_preservation_index(lattice)[0]
    thm63 = {"c1": c1, "c2": c2, "c3": c3, "c4": c4}
    return _lifting_report(alg, lattice, t, thm63, exploratory)


@stored
def _unseparated_pairs(lattice: CongruenceLattice) -> tuple[tuple[int, int, int], ...]:
    """The coprime pairs (phi, psi, [phi, psi]) that no center pair
    separates at theta = [phi, psi], the least theta whose clause (2) reads
    them.  Separation at theta reads theta v phi and theta v psi, which grow
    with theta, and so do the center pairs below them: a pair separated at
    [phi, psi] is separated at every theta above it."""
    below_a, below_na = _center_pair_bits(lattice)
    join, table = lattice.join_table, commutator_table(lattice)
    pairs = []
    for i, partners in enumerate(_coprime_pairs(lattice)):
        for j in _members(partners):
            cij = table[i][j]
            if not below_a[join[cij][i]] & below_na[join[cij][j]]:
                pairs.append((i, j, cij))
    return tuple(pairs)


def cblp_characterization_index(lattice: CongruenceLattice, t: int) -> tuple[bool, ...]:
    below_a, below_na = _center_pair_bits(lattice)
    leq, join_t = lattice.leq, lattice.join_table[t]

    # phi, psi are separated when some center pair (alpha, alpha') has
    # alpha <= theta v phi and alpha' <= theta v psi; only the pairs that
    # fail at [phi, psi] can fail at theta (``_unseparated_pairs``)
    c2 = True
    c3 = True  # c3's pairs ([phi,psi] = theta) are a subset of c2's
    for i, j, cij in _unseparated_pairs(lattice):
        if not leq[cij][t] or below_a[join_t[i]] & below_na[join_t[j]]:
            continue
        c2 = False
        if cij == t:
            c3 = False
            break

    c4 = True
    for m in spectrum_index(lattice, False)[1]:
        joined = join_t[diamond_index(lattice, m)]
        if len(center_index(lattice, joined)[0]) > 2:
            c4 = False
            break

    return cblp_index(lattice, t)[0], c2, c3, c4


def _require_below_rad(lattice: CongruenceLattice, t: int) -> None:
    if not lattice.leq[t][spectrum_index(lattice, False)[2]]:
        raise HypothesisNotMet("theta must be contained in Rad(A)")


def quotient_cblp_descent(alg: FiniteAlgebra, theta: Congruence) -> bool:
    """For theta below Rad(A) that itself has CBLP: if A/theta has CBLP then
    so does A, and if A/theta is B-normal then A is B-normal.  Raises
    HypothesisNotMet when theta is not below Rad(A).

    The lifting hypothesis on theta is required: without it the descent is
    refuted by the pentagon with theta = Rad(N5) (the quotient is the 2x2
    lattice, CBLP everywhere, while Rad(N5) itself does not lift).
    """
    return quotient_cblp_descent_index(*_indices(alg, theta))


def quotient_cblp_descent_index(lattice: CongruenceLattice, t: int) -> bool:
    _require_below_rad(lattice, t)
    if not cblp_index(lattice, t)[0]:
        return True
    bottom = lattice.bottom_index
    if _all_cblp(lattice, t) and not _all_cblp(lattice, bottom):
        return False
    if b_normal_index(lattice, t) is None and b_normal_index(lattice, bottom) is not None:
        return False
    return True


class BNormalReport:
    __slots__ = ("algebra", "b_normal", "counterexample")

    def __init__(self, algebra, b_normal, counterexample):
        self.algebra = algebra
        self.b_normal = b_normal
        self.counterexample = counterexample  # a coprime pair with no separating pair


def is_b_normal(alg: FiniteAlgebra) -> BNormalReport:
    """For every coprime pair (chi, eps) there are complemented alpha, beta
    with chi v alpha = eps v beta = nabla and [alpha, beta] = bottom."""
    require_theory(alg)
    lattice = con_lattice(alg)
    pair = b_normal_index(lattice, lattice.bottom_index)
    if pair is not None:
        pair = tuple(lattice.congruences[i] for i in pair)
    return BNormalReport(alg, pair is None, pair)


@stored
def b_normal_index(lattice: CongruenceLattice, t: int) -> tuple[int, int] | None:
    """The first coprime pair of [theta, nabla] that no alpha, beta of
    B([theta, nabla]) with [alpha, beta] <= theta separate, or None when
    A/theta is B-normal."""
    top, leq = lattice.top_index, lattice.leq
    members, table = center_index(lattice, t)[0], commutator_table(lattice)
    # the candidate separating pairs (alpha, beta), k-th as an int bit
    orthogonal = [(a, b) for a in members for b in members if leq[table[a][b]][t]]
    by_a: dict[int, int] = {}  # a -> {k : alpha_k = a}
    by_b: dict[int, int] = {}
    for k, (a, b) in enumerate(orthogonal):
        by_a[a] = by_a.get(a, 0) | 1 << k
        by_b[b] = by_b.get(b, 0) | 1 << k
    # for each chi: {k : chi v alpha_k = nabla} and {k : chi v beta_k = nabla}
    cov_a = [0] * len(lattice)
    cov_b = [0] * len(lattice)
    for x, row in enumerate(lattice.join_table):
        for a, bits in by_a.items():
            if row[a] == top:
                cov_a[x] |= bits
        for b, bits in by_b.items():
            if row[b] == top:
                cov_b[x] |= bits
    above = leq[t]
    return next(
        (
            (i, j)
            for i, partners in enumerate(_coprime_pairs(lattice))
            if above[i]
            for j in _members(partners)
            if above[j] and not cov_a[i] & cov_b[j]
        ),
        None,
    )


def hyperarchimedean_cblp(alg: FiniteAlgebra) -> bool:
    """A hyperarchimedean algebra has CBLP at every congruence (vacuously
    true when the algebra is not hyperarchimedean)."""
    if not is_hyperarchimedean(alg):
        return True
    lattice = con_lattice(alg)
    return _all_cblp(lattice, lattice.bottom_index)


# ---------------------------------------------------------------------------
# Orthogonal lifting


def _check_orthogonal(lattice: CongruenceLattice, t: int, members, items) -> None:
    """Items of [theta, nabla] pairwise orthogonal in A/theta, x ^ y = theta
    and [x, y] <= theta, and each in ``members``."""
    leq = lattice.leq
    for x, y in combinations(items, 2):
        if lattice.meet_index(x, y) != t or not leq[commutator_index(lattice, x, y)][t]:
            down = quotient_edge(lattice, t)[0]
            raise NotOrthogonal(f"{down(x)} and {down(y)} are not orthogonal")
    for x in items:
        if x not in members:
            raise NotOrthogonal(f"{quotient_edge(lattice, t)[0](x)} is not complemented")


def lift_orthogonal(
    alg: FiniteAlgebra, theta: Congruence, omega_prime
) -> list[Congruence]:
    """Lift an orthogonal family from B(Con(A/theta)) to an orthogonal family
    of B(Con(A)) mapping onto it, by inductive disjointing: each raw lift is
    cut down by the complement of the join of the lifts built so far."""
    lattice, t = _indices(alg, theta)
    family = tuple(map(quotient_edge(lattice, t)[1], omega_prime))
    return [lattice.congruences[a] for a in lift_orthogonal_index(lattice, t, family)]


def lift_orthogonal_index(lattice: CongruenceLattice, t: int, family) -> list[int]:
    cblp, witnesses, _ = cblp_index(lattice, t)
    if not cblp:
        raise NoCBLP(f"{lattice.congruences[t]} does not have CBLP")
    _check_orthogonal(lattice, t, center_index(lattice, t)[0], family)

    name, bottom = lattice.algebra.name, lattice.bottom_index
    members, complement, _ = center_index(lattice, bottom)
    witness = dict(witnesses)
    lifted: list[int] = []
    for k in family:
        sofar = lattice.join_many(lifted)
        if sofar not in complement:
            raise Falsified(f"{name}: join of complemented congruences left the center")
        alpha = lattice.meet_index(witness[k], complement[sofar])
        if lattice.join_index(alpha, t) != k:
            target = quotient_edge(lattice, t)[0](k)
            raise Falsified(f"{name}: disjointed lift of {target} no longer projects onto it")
        lifted.append(alpha)
    _check_orthogonal(lattice, bottom, members, lifted)
    return lifted


class OrthogonalReport:
    __slots__ = (
        "algebra", "theta", "unique_lifts", "lifts_orthogonal", "atoms_lift_to_atoms",
        "difference_lemma",
    )

    def __init__(
        self, algebra, theta, unique_lifts, lifts_orthogonal, atoms_lift_to_atoms, difference_lemma
    ):
        self.algebra = algebra
        self.theta = theta
        self.unique_lifts = unique_lifts
        self.lifts_orthogonal = lifts_orthogonal
        self.atoms_lift_to_atoms = atoms_lift_to_atoms  # None when theta lacks CBLP
        self.difference_lemma = difference_lemma


def orthogonal_uniqueness_and_atoms(alg: FiniteAlgebra, theta: Congruence) -> OrthogonalReport:
    """For theta below Rad(A): liftable orthogonal families lift uniquely and
    orthogonally; when theta has CBLP, atom families lift to atom families.

    Uniqueness reduces to the center map of the projection having singleton
    fibers on B(Con(A)), which is itself a consequence of the difference
    lemma checked here.  Orthogonality is a condition on pairs, and every
    orthogonal pair is a family, so the liftable orthogonal pairs decide it
    for every liftable family.
    """
    return OrthogonalReport(alg, theta, *orthogonal_index(*_indices(alg, theta)))


def orthogonal_index(lattice: CongruenceLattice, t: int) -> tuple:
    """The fields of ``OrthogonalReport`` after ``theta``, in order."""
    _require_below_rad(lattice, t)
    rad = spectrum_index(lattice, False)[2]
    members, complement, atoms = center_index(lattice, lattice.bottom_index)
    qmembers, _, qatoms = center_index(lattice, t)
    leq, meet, bottom = lattice.leq, lattice.meet_table, lattice.bottom_index

    # difference lemma: alpha - beta below Rad(A) forces alpha <= beta, which
    # in both orders gives the uniqueness of lifts; at beta = bottom, whose
    # complement is nabla, it says a complemented alpha below Rad(A) is bottom
    lemma = all(
        leq[a][b] or not leq[meet[a][complement[b]]][rad] for a in members for b in members
    )

    # the first member of each fiber of the center map; unliftable members
    # of the quotient center are outside the hypothesis
    lift: dict[int, int] = {}
    for a, k in zip(members, center_map_index(lattice, t)):
        lift.setdefault(k, a)
    unique = len(lift) == len(members)

    # each liftable orthogonal pair of the quotient center, whose meet in
    # A/theta is theta
    table = commutator_table(lattice)
    lifts_orthogonal = all(
        meet[lift[k1]][lift[k2]] == bottom and table[lift[k1]][lift[k2]] == bottom
        for k1, k2 in combinations([k for k in qmembers if k in lift], 2)
        if meet[k1][k2] == t
    )

    # a singleton {k} lifts to its witness; when every witness is an atom,
    # each disjointed lift of a subfamily lies below its witness and is not
    # the bottom, so it is that atom, and the whole family decides them all
    atoms_ok: bool | None = None
    cblp, witnesses, _ = cblp_index(lattice, t)
    if cblp:
        lifted = lift_orthogonal_index(lattice, t, qatoms)
        witness = dict(witnesses)
        atoms_ok = all(x in atoms for x in lifted) and all(witness[k] in atoms for k in qatoms)

    return unique, lifts_orthogonal, atoms_ok, lemma


# ---------------------------------------------------------------------------
# Ring oracle


def ring_idempotents(n: int) -> list[int]:
    return [e for e in range(n) if (e * e) % n == e]


def ring_idempotent_lifting(n: int, d: int) -> bool:
    """Direct oracle: every idempotent of Z_n/dZ_n = Z_d is congruent mod d
    to an idempotent of Z_n."""
    if n <= 0 or d <= 0 or n % d != 0:
        raise HypothesisNotMet(f"need n > 0 and d > 0 dividing n, got n={n}, d={d}")
    lifts_of = {e % d for e in ring_idempotents(n)}
    return all(e in lifts_of for e in ring_idempotents(d))

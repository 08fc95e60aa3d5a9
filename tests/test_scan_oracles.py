"""The former library scans, kept as oracles for their bitset replacements.

* ``FiniteLattice.is_distributive``: the cubic test of
  x ^ (y v z) = (x ^ y) v (x ^ z), against Birkhoff's join-irreducible test;
* ``lattice_from_leq``: the triple transitivity loop and the lub/glb list
  search, against the up-set/down-set bitsets, down to the exact
  ``NotALattice`` message;
* ``cblp_characterization``'s separation scan (c2, c3) and ``is_b_normal``'s
  orthogonal-pair scan, against their bitset forms;
* ``all_congruences``: the closure of every principal congruence under join,
  with the order and the relation masks by a block scan, the tables by
  partition join and meet and the principal congruences by one closure per
  pair, against the closure of the join-irreducibles, the bitset tables and
  the principals kept from that closure;
* ``commutator_index``: the saturation fixpoint that holds delta as its
  relation mask, adds the members of every Delta-class that meets delta
  without lying inside it and re-closes delta from all its pairs, against
  the climb through Con(A) by joins with the congruences those classes
  generate, seeded from the stored values one lower cover down and stopped
  at alpha ^ beta, with the table asked for bottom-up and in drawn orders;
* ``FiniteLattice.lower_covers``: the quadratic scan of the elements below
  each element, against the table read off down-set bitsets;
* ``center_index`` at the bottom and ``center``: every pair tested for
  x v y = 1 and x ^ y = 0, against the g = 0 slice of
  ``interval_complements``, down to the ``NotALattice`` message;
* ``FiniteLattice.upper_covers``: the same scan of the elements above each
  element, against the inverse of the lower cover table;
* ``FiniteLattice.join_irreducible_indices``: the join of everything
  strictly below each element, against "exactly one lower cover";
* ``FiniteLattice.is_modular``: the cubic test of the modular law, against
  upper and lower semimodularity on pairs of covers;
* ``lattices.is_prime_ideal``: the quadratic test of x ^ y inside forcing x
  or y inside, against the meet of everything outside the ideal;
* ``radical-lattice-distributive``: the cubic law
  x ^ rho(y v z) = rho((x ^ y) v (x ^ z)) over the radicals, against
  Birkhoff's test on the radical lattice;
* ``residuation_index``: the join of every gamma with [alpha, gamma] <= beta,
  read off the full commutator table, against the join of the qualifying
  join-irreducibles from the stored row of alpha;
* ``congruences._join_blocks``: both block arrays merged in a partition and
  relabelled by least elements, against one union-find whose roots are the
  least elements of their classes;
* ``orthogonal_index``'s ``lifts_orthogonal``: every orthogonal family of the
  center of Con(A/theta), enumerated depth first on the quotient's own
  lattice, with the lifts of each liftable family tested pairwise, against
  the liftable orthogonal pairs of the interval [theta, nabla] alone;
* ``orthogonal_index``'s ``atoms_lift_to_atoms``: every subfamily of the
  quotient center's atoms lifted by ``lift_orthogonal_index``, against the
  witnesses of the atoms and the one lift of the whole atom family;
* ``center-join-distributes``, ``commutator-monotone`` and
  ``residuation-adjunction``: the law at every member of B, every
  comparable pair and every fiber, against the members that are no join of
  two smaller ones, the covers and the lower covers;
* ``center_map_index``: every member's image generated in Con(A/theta),
  against the projected join alpha v theta; ``projection-center-morphism``
  generates the images of the atoms only and takes every other cell as a
  quotient join of two smaller ones;
* ``cblp_characterization_index``: every coprime pair at every theta,
  against the pairs unseparated at their own commutator;
* ``has_id_blp``: the center of the lattice ``quotient_by_ideal`` builds,
  against the interval [g, 1] read off the parent's tables;
* ``has_id_blp``'s complements in [g, 1]: every pair of the interval
  tested for each ideal, against one table of the pairs y v z = 1 keyed by
  y ^ z, built in one pass over the lattice (``interval_complements``);
* ``_translation_plan``'s associativity test: the cubic scan of
  (a b) c = a (b c), against Light's test on the generators found first;
* ``_coprime_pairs``: the coprime pairs with their commutators by a scan of
  the join table, against the bitsets of partners with [i, j] read off
  ``commutator_table``;
* ``_semigroup_generators``' candidate order: the tuple (multiples, cycle
  length) counted from the table on every search, against the int scores
  that ``_translation_plan`` counts once per operation;
* ``clopens_of_max``'s witness search: a scan of all of Con(A) per clopen
  for the alphas whose trace Max(A) n D(alpha), built as a set, is the
  clopen, against the alphas looked up by their stored trace bitsets;
* ``costar_table``: (g]_* as one join over all of Con(A) per g, of the
  congruences with lambda-value in (g], against the joins of the
  lambda-fibers joined once each;
* ``_star_property``: every n of [alpha, beta]'s iterate chain searched for
  an m with [[alpha,alpha]^m, [beta,beta]^m] below it, against one
  comparison per pair at the stable iterates;
* ``reticulation_index`` where rho is the identity: L(A) built from the
  order of the radicals by ``lattice_from_leq``, against Con(A) itself.
"""

from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congruence_lab import Falsified, NotALattice, SizeBudgetExceeded, lifting, verify
from congruence_lab.algebra import FiniteAlgebra, Operation, load_algebra, product
from congruence_lab.builders import boolean_lattice, chain_lattice, ring_zn, standard_corpus
from congruence_lab.commutator import (
    _close_delta,
    _iterate_chain,
    _pair_algebra,
    commutator_index,
    commutator_table,
    residuation_index,
    surrogate_checks,
)
from congruence_lab.congruences import (
    Congruence,
    CongruenceLattice,
    _Partition,
    _canonical,
    _close_pairs,
    _join_blocks,
    _meet_blocks,
    _translation_plan,
    all_congruences,
    con_lattice,
    congruence_from_blocks,
    projection,
)
from congruence_lab.lattices import (
    FiniteLattice,
    _members,
    all_ideals,
    center_index,
    is_prime_ideal,
    lattice_from_leq,
    quotient_by_ideal,
)
from congruence_lab.lifting import (
    _coprime_pairs,
    boolean_center_of_congruences,
    cblp_characterization,
    has_id_blp,
    is_b_normal,
    lift_orthogonal_index,
    orthogonal_index,
)
from congruence_lab.reticulation import (
    _star_property,
    build_reticulation,
    costar_table,
    reticulation_index,
)
from congruence_lab.spectrum import (
    brute_force_clopens,
    clopens_of_max,
    radical_table,
    spectrum_index,
)
from congruence_lab.verify import _radical_frame_ok

from conftest import fresh_copy, replace
from test_commutator import associative_algebras
from test_congruences import random_algebras
from test_verify_faults import _plant_commutator


def cubic_is_distributive(lattice: FiniteLattice) -> bool:
    """x ^ (y v z) = (x ^ y) v (x ^ z) for all x, y, z, one row of z at a time."""
    n = lattice.size
    join, meet = lattice.join_table, lattice.meet_table
    return all(
        [meet[x][v] for v in join[y]] == [join[meet[x][y]][w] for w in meet[x]]
        for x in range(n)
        for y in range(n)
    )


def cubic_is_modular(lattice: FiniteLattice) -> bool:
    """x v (y ^ z) = (x v y) ^ z for all y and all x <= z."""
    n = lattice.size
    join, meet = lattice.join_table, lattice.meet_table
    for x in range(n):
        for z in range(n):
            if not lattice.leq[x][z]:
                continue
            for y in range(n):
                if join[x][meet[y][z]] != meet[join[x][y]][z]:
                    return False
    return True


def scan_is_prime_ideal(ideal) -> bool:
    """Proper, and x ^ y inside forces x or y inside."""
    lat = ideal.lattice
    if not ideal.is_proper():
        return False
    inside = [row[ideal.generator] for row in lat.leq]
    meet = lat.meet_table
    return all(
        inside[x] or inside[y] or not inside[meet[x][y]]
        for x in range(lat.size)
        for y in range(lat.size)
    )


def scan_join_irreducibles(lattice: FiniteLattice) -> tuple[int, ...]:
    """x is join-irreducible iff the join of everything strictly below x is
    not x (for the bottom that join is empty, hence the bottom)."""
    return tuple(
        x
        for x in range(lattice.size)
        if lattice.join_many(y for y, row in enumerate(lattice.leq) if row[x] and y != x) != x
    )


def scan_upper_covers(lattice: FiniteLattice) -> tuple[tuple[int, ...], ...]:
    leq = lattice.leq
    table = []
    for i in range(lattice.size):
        above = [j for j in range(lattice.size) if j != i and leq[i][j]]
        table.append(tuple(j for j in above if not any(k != j and leq[k][j] for k in above)))
    return tuple(table)


def cubic_radical_frame(lattice: FiniteLattice, rho) -> bool:
    """The radicals are closed under ^ and rho(v), and
    x ^ rho(y v z) = rho((x ^ y) v (x ^ z)) over radical x, y, z."""
    join, meet = lattice.join_table, lattice.meet_table
    radicals = set(rho)
    closed = all(
        meet[x][y] in radicals and rho[join[x][y]] in radicals
        for x in radicals
        for y in radicals
    )
    return closed and all(
        meet[x][rho[join[y][z]]] == rho[join[meet[x][y]][meet[x][z]]]
        for x in radicals
        for y in radicals
        for z in radicals
    )


def scan_lattice_from_leq(leq) -> FiniteLattice:
    matrix = tuple(tuple(bool(v) for v in row) for row in leq)
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise NotALattice("leq must be a nonempty square matrix")
    for a in range(n):
        if not matrix[a][a]:
            raise NotALattice(f"order not reflexive at {a}")
        for b in range(n):
            if a != b and matrix[a][b] and matrix[b][a]:
                raise NotALattice(f"order not antisymmetric at {a}, {b}")
            for c in range(n):
                if matrix[a][b] and matrix[b][c] and not matrix[a][c]:
                    raise NotALattice(f"order not transitive at {a}, {b}, {c}")
    join_table = [[0] * n for _ in range(n)]
    meet_table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ups = [c for c in range(n) if matrix[a][c] and matrix[b][c]]
            downs = [c for c in range(n) if matrix[c][a] and matrix[c][b]]
            lub = [c for c in ups if all(matrix[c][d] for d in ups)]
            glb = [c for c in downs if all(matrix[d][c] for d in downs)]
            if len(lub) != 1 or len(glb) != 1:
                raise NotALattice(f"elements {a}, {b} lack a unique lub/glb")
            join_table[a][b] = lub[0]
            meet_table[a][b] = glb[0]
    bottoms = [a for a in range(n) if all(matrix[a][b] for b in range(n))]
    tops = [a for a in range(n) if all(matrix[b][a] for b in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        raise NotALattice("order has no unique bottom/top")
    return FiniteLattice(
        leq=matrix,
        join_table=tuple(tuple(row) for row in join_table),
        meet_table=tuple(tuple(row) for row in meet_table),
        bottom_index=bottoms[0],
        top_index=tops[0],
    )


def scan_lower_covers(lattice: FiniteLattice) -> tuple[tuple[int, ...], ...]:
    leq = lattice.leq
    table = []
    for i in range(lattice.size):
        below = [j for j in range(lattice.size) if j != i and leq[j][i]]
        table.append(tuple(j for j in below if not any(k != j and leq[j][k] for k in below)))
    return tuple(table)


def _outcome(build, leq):
    """The built lattice's tables and bounds, or the NotALattice message."""
    try:
        lat = build(leq)
    except NotALattice as exc:
        return str(exc)
    return lat.join_table, lat.meet_table, lat.bottom_index, lat.top_index


def assert_same_scans(lattice: FiniteLattice):
    """Every cover, bitset and primeness scan of a lattice agrees with the
    scan it replaced."""
    assert lattice.is_distributive() == cubic_is_distributive(lattice)
    assert lattice.is_modular() == cubic_is_modular(lattice)
    assert lattice.lower_covers == scan_lower_covers(lattice)
    assert lattice.upper_covers == scan_upper_covers(lattice)
    assert lattice.join_irreducible_indices() == scan_join_irreducibles(lattice)
    ideals = all_ideals(lattice)
    assert [is_prime_ideal(ideal) for ideal in ideals] == [
        scan_is_prime_ideal(ideal) for ideal in ideals
    ]


def assert_same_lattice_verdicts(leq):
    expected = _outcome(scan_lattice_from_leq, leq)
    assert _outcome(lattice_from_leq, leq) == expected
    if not isinstance(expected, str):
        assert_same_scans(lattice_from_leq(leq))


def _order(n, pairs):
    """The reflexive-transitive closure of the given (lower, upper) pairs."""
    leq = [[a == b or (a, b) in pairs for b in range(n)] for a in range(n)]
    for k in range(n):
        for a in range(n):
            for b in range(n):
                leq[a][b] = leq[a][b] or (leq[a][k] and leq[k][b])
    return leq


NAMED_ORDERS = {
    "M3": _order(5, {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)}),
    "N5": _order(5, {(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)}),
    "C_5": [[a <= b for b in range(5)] for a in range(5)],
    "B_3": [[a & b == a for b in range(8)] for a in range(8)],
}


@pytest.mark.parametrize("name", sorted(NAMED_ORDERS))
def test_named_lattices_match_the_scans(name):
    assert_same_lattice_verdicts(NAMED_ORDERS[name])


def test_named_lattices_distributivity():
    verdicts = {
        name: lattice_from_leq(leq).is_distributive() for name, leq in NAMED_ORDERS.items()
    }
    assert verdicts == {"M3": False, "N5": False, "C_5": True, "B_3": True}


def test_named_lattices_modularity():
    verdicts = {name: lattice_from_leq(leq).is_modular() for name, leq in NAMED_ORDERS.items()}
    assert verdicts == {"M3": True, "N5": False, "C_5": True, "B_3": True}


def scan_complements(lattice) -> tuple:
    """For each x, every y with x v y = 1 and x ^ y = 0, by testing every
    pair."""
    join, meet = lattice.join_table, lattice.meet_table
    top, bottom = lattice.top_index, lattice.bottom_index
    return tuple(
        tuple(y for y in range(lattice.size) if join[x][y] == top and meet[x][y] == bottom)
        for x in range(lattice.size)
    )


def scan_center(lattice) -> tuple:
    """The complemented elements off ``scan_complements``; NotALattice, with
    the complements in increasing order, at the first element with
    several."""
    complements = scan_complements(lattice)
    for x, mates in enumerate(complements):
        if len(mates) > 1:
            raise NotALattice(f"element {x} has several complements: {list(mates)}")
    return tuple(x for x, mates in enumerate(complements) if mates)


def _complement_lattices():
    """Every Con(A) and L(A) of the corpus, L(C_9), and N5 and M3, whose
    centers raise."""
    for path in CORPUS_FILES:
        alg = load_algebra(path.read_text(encoding="utf-8"))
        yield pytest.param(lambda alg=alg: con_lattice(alg), False, id=f"Con({alg.name})")
        if surrogate_checks(alg).ok:
            yield pytest.param(
                lambda alg=alg: build_reticulation(alg).lattice, False, id=f"L({alg.name})"
            )
    yield pytest.param(lambda: build_reticulation(chain_lattice(9)).lattice, False, id="L(C_9)")
    for name in ("N5", "M3"):
        yield pytest.param(lambda name=name: lattice_from_leq(NAMED_ORDERS[name]), True, id=name)


@pytest.mark.parametrize("build, raises", _complement_lattices())
def test_complements_are_the_bottom_slice_of_the_interval_table(build, raises):
    """One scan of the pairs, ``interval_complements``, gives the
    complements and the center that the per-element scan gave: its members
    and first mates at the bottom, ``center_index``, with every further mate
    in its table of several, and the same NotALattice message where an
    element has several complements."""
    lattice = build()
    bottom, scanned = lattice.bottom_index, scan_complements(lattice)
    members, complement, _ = center_index(lattice, bottom)
    several = lattice.interval_complements[1]
    assert members == tuple(x for x, mates in enumerate(scanned) if mates)
    assert all(tuple(several.get((x, bottom), [complement[x]])) == scanned[x] for x in members)
    outcomes = []
    for center in (lambda: lattice.center, lambda: scan_center(lattice)):
        try:
            outcomes.append(center())
        except NotALattice as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert isinstance(outcomes[0], str) == raises


def _in_theory_corpus():
    return [alg for alg in standard_corpus() if surrogate_checks(alg).ok]


def test_corpus_reticulations_match_the_scans():
    for alg in _in_theory_corpus():
        lattice = build_reticulation(alg).lattice
        assert lattice.is_distributive() and cubic_is_distributive(lattice)
        assert_same_lattice_verdicts(lattice.leq)


@st.composite
def orders(draw):
    """Square 0/1 matrices on at most 7 points: raw matrices, partial orders
    and orders with an added bottom and top, sometimes with one cell flipped,
    so that lattices and every kind of non-lattice come up."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["raw", "order", "bounded"]))
    if kind == "raw":
        leq = [[draw(st.booleans()) for _ in range(n)] for _ in range(n)]
    else:
        pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
        if kind == "bounded":
            edges |= {(0, x) for x in range(1, n)} | {(x, n - 1) for x in range(n - 1)}
        perm = draw(st.permutations(range(n)))
        base = _order(n, edges)
        leq = [[base[perm[a]][perm[b]] for b in range(n)] for a in range(n)]
    if draw(st.booleans()):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        leq[a][b] = not leq[a][b]
    return leq


@given(orders())
@settings(max_examples=300, deadline=None)
def test_random_orders_match_the_scans(leq):
    assert_same_lattice_verdicts(leq)


def _closed_under(meet, family: set) -> set:
    """The least superset of family closed under the binary operation meet."""
    while True:
        meets = {meet(x, y) for x in family for y in family}
        if meets <= family:
            return family
        family |= meets


@st.composite
def set_lattices(draw):
    """A random family of subsets of {0, 1, 2, 3}, closed under intersection
    and with the whole set added, ordered by inclusion and listed in a drawn
    order: always a lattice, of at most 16 elements, often neither modular
    nor distributive."""
    family = _closed_under(int.__and__, {15} | set(draw(st.lists(st.integers(0, 15), max_size=6))))
    members = draw(st.permutations(sorted(family)))
    return lattice_from_leq([[not a & ~b for b in members] for a in members])


@given(set_lattices())
@settings(max_examples=300, deadline=None)
def test_random_lattices_match_the_scans(lattice):
    assert_same_lattice_verdicts(lattice.leq)


def coprime_triples(lattice) -> list[tuple[int, int, int]]:
    """(i, j, [i, j]) for every ordered pair whose join is the top, in
    row-major order, by a scan of the join table."""
    table, top = commutator_table(lattice), lattice.top_index
    return [
        (i, j, table[i][j])
        for i, row in enumerate(lattice.join_table)
        for j, joined in enumerate(row)
        if joined == top
    ]


def scan_c2_c3(alg, theta):
    lattice = con_lattice(alg)
    t = lattice.index(theta)
    center = boolean_center_of_congruences(alg)
    center_pairs = [
        (lattice.index(alpha), lattice.index(center.complement[alpha.blocks]))
        for alpha in center.elements
    ]

    def separated(phi, psi):
        tp = lattice.join_index(t, phi)
        tq = lattice.join_index(t, psi)
        return any(
            lattice.leq_index(a, tp) and lattice.leq_index(na, tq) for a, na in center_pairs
        )

    c2 = True
    c3 = True
    for i, j, cij in coprime_triples(lattice):
        if not lattice.leq_index(cij, t):
            continue
        if separated(i, j):
            continue
        c2 = False
        if cij == t:
            c3 = False
            break
    return c2, c3


def scan_b_normal(alg):
    lattice = con_lattice(alg)
    top, bottom = lattice.top_index, lattice.bottom_index
    center_indices = [lattice.index(alpha) for alpha in boolean_center_of_congruences(alg)]
    orthogonal = [
        (a, b)
        for a in center_indices
        for b in center_indices
        if commutator_index(lattice, a, b) == bottom
    ]
    for i, j, _ in coprime_triples(lattice):
        if not any(
            lattice.join_index(i, a) == top and lattice.join_index(j, b) == top
            for a, b in orthogonal
        ):
            return False, (lattice.congruences[i], lattice.congruences[j])
    return True, None


@pytest.mark.parametrize("alg", _in_theory_corpus(), ids=lambda alg: alg.name)
def test_separation_and_b_normal_scans_on_the_corpus(alg):
    lattice = con_lattice(alg)
    assert [(i, j) for i, j, _ in coprime_triples(lattice)] == [
        (i, j) for i, partners in enumerate(_coprime_pairs(lattice)) for j in _members(partners)
    ]
    for theta in lattice.congruences:
        thm = cblp_characterization(alg, theta).thm63
        assert (thm["c2"], thm["c3"]) == scan_c2_c3(alg, theta)
    report = is_b_normal(alg)
    assert (report.b_normal, report.counterexample) == scan_b_normal(alg)


def _block_mask(blocks) -> int:
    """The relation of a block array, bit x * n + y per related pair (x, y)."""
    n = len(blocks)
    rows: dict = {}  # block label -> its members as a bitset
    for y, label in enumerate(blocks):
        rows[label] = rows.get(label, 0) | 1 << y
    return sum(rows[label] << x * n for x, label in enumerate(blocks))


def partition_join_blocks(a, b) -> tuple[int, ...]:
    """Join of two block arrays: the classes of the union, normalized."""
    part = _Partition(len(a))
    for x, (p, q) in enumerate(zip(a, b)):
        part.union(x, p)
        part.union(x, q)
    return _canonical(part.label)


@st.composite
def block_array_pairs(draw):
    n = draw(st.integers(1, 12))
    labels = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return _canonical(draw(labels)), _canonical(draw(labels))


@given(block_array_pairs())
@settings(max_examples=500, deadline=None)
def test_join_blocks_matches_the_partition_join(pair):
    assert _join_blocks(*pair) == partition_join_blocks(*pair)


def join_closure_con(alg, cap):
    """Con(A) closed from every principal congruence under join, ordered by a
    block scan per pair, with one partition join and one meet per
    incomparable pair, the relation masks by a block scan and the principal
    congruence of every pair by its own closure."""
    n = alg.size
    principal: dict = {}
    bottom = tuple(range(n))
    elements = {bottom: None}
    for a in range(n):
        for b in range(a + 1, n):
            blocks = _close_pairs(alg, [(a, b)])
            principal[blocks] = None
            if blocks not in elements and len(elements) >= cap:
                raise SizeBudgetExceeded(f"|Con({alg.name})| exceeds the cap of {cap}")
            elements.setdefault(blocks, None)
    worklist = list(elements)
    while worklist:
        current = worklist.pop()
        for gen in principal:
            merged = partition_join_blocks(current, gen)
            if merged not in elements:
                if len(elements) >= cap:
                    raise SizeBudgetExceeded(f"|Con({alg.name})| exceeds the cap of {cap}")
                elements[merged] = None
                worklist.append(merged)
    ordered = sorted(elements)
    index = {blocks: i for i, blocks in enumerate(ordered)}
    size = len(ordered)
    leq = tuple(
        tuple(all(other[rep] == other[x] for x, rep in enumerate(blocks)) for other in ordered)
        for blocks in ordered
    )
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
                jn = index[partition_join_blocks(bi, bj)]
                mt = index[_meet_blocks(bi, bj)]
            join_table[i][j] = join_table[j][i] = jn
            meet_table[i][j] = meet_table[j][i] = mt
    return CongruenceLattice(
        leq=leq,
        join_table=tuple(tuple(row) for row in join_table),
        meet_table=tuple(tuple(row) for row in meet_table),
        bottom_index=index[bottom],
        top_index=index[(0,) * n],
        algebra=alg,
        congruences=tuple(Congruence(alg, blocks) for blocks in ordered),
        matrix_bounds=tuple(_block_mask(blocks).bit_count() ** 2 for blocks in ordered),
        masks=tuple(_block_mask(blocks) for blocks in ordered),
        principals=tuple(index[_close_pairs(alg, [(a, b)])] for a in range(n) for b in range(n)),
        _index=index,
    )


def _fields(lattice):
    return (
        lattice.algebra,
        lattice.congruences,
        lattice.leq,
        lattice.join_table,
        lattice.meet_table,
        lattice.bottom_index,
        lattice.top_index,
        lattice.matrix_bounds,
        lattice.masks,
        lattice.principals,
        list(lattice._index.items()),
    )


def assert_same_con(alg):
    lattice = all_congruences(alg, cap=10**6)
    assert _fields(lattice) == _fields(join_closure_con(alg, cap=10**6))
    assert lattice.lower_covers == scan_lower_covers(lattice)
    blocks = [theta.blocks for theta in lattice.congruences]
    index = lattice._index
    for a, row_join, row_meet in zip(blocks, lattice.join_table, lattice.meet_table):
        assert [index[_join_blocks(a, b)] for b in blocks] == list(row_join)
        assert [index[_meet_blocks(a, b)] for b in blocks] == list(row_meet)
    return len(lattice)


CORPUS_FILES = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.json"))
LADDER = [
    chain_lattice(9),
    boolean_lattice(4),
    ring_zn(24),
    ring_zn(30),
    product(ring_zn(2), ring_zn(9)),
]


@pytest.mark.parametrize(
    "alg",
    [load_algebra(path.read_text(encoding="utf-8")) for path in CORPUS_FILES] + LADDER,
    ids=lambda alg: alg.name,
)
def test_con_matches_the_join_closure_of_every_principal(alg):
    size = assert_same_con(alg)
    if size > 1:  # the bottom is never counted against the cap
        cap = size - 1
        with pytest.raises(SizeBudgetExceeded) as raised:
            all_congruences(alg, cap=cap)
        assert str(raised.value) == f"|Con({alg.name})| exceeds the cap of {cap}"
    assert len(all_congruences(alg, cap=size)) == size


@given(random_algebras())
@settings(max_examples=200, deadline=None)
def test_con_of_random_algebras_matches_the_join_closure(alg):
    assert_same_con(alg)
    # random Con(A) include non-distributive and non-modular lattices
    assert_same_scans(all_congruences(alg))


@pytest.mark.parametrize(
    "alg",
    [load_algebra(path.read_text(encoding="utf-8")) for path in CORPUS_FILES] + LADDER,
    ids=lambda alg: alg.name,
)
def test_con_lattices_match_the_scans(alg):
    assert_same_scans(con_lattice(alg))


@pytest.mark.parametrize("alg", _in_theory_corpus(), ids=lambda alg: alg.name)
def test_radical_frames_of_the_corpus_match_the_cubic_law(alg):
    lattice = con_lattice(alg)
    rho = radical_table(lattice)
    assert _radical_frame_ok(lattice, rho) == cubic_radical_frame(lattice, rho)


@st.composite
def closure_operators(draw):
    """A lattice from ``set_lattices()`` and the closure operator of a random
    family of its elements closed under meets (the top always in it): x goes
    to the least member above x.  Its members under ^ and the closure of v
    form a lattice, distributive or not."""
    lattice = draw(set_lattices())
    drawn = {lattice.top_index} | {x for x in range(lattice.size) if draw(st.booleans())}
    family = _closed_under(lattice.meet_index, drawn)
    rho = [lattice.meet_many(y for y in family if lattice.leq[x][y]) for x in range(lattice.size)]
    return lattice, rho


@given(closure_operators())
@settings(max_examples=300, deadline=None)
def test_random_radical_frames_match_the_cubic_law(frame):
    lattice, rho = frame
    assert _radical_frame_ok(lattice, rho) == cubic_radical_frame(lattice, rho)


def saturation_commutator(lattice, i, j) -> int:
    """[congruences[i], congruences[j]] by saturation: delta, held as a block
    array and its relation mask, gains the members of every class of each
    join-irreducible Delta_{g,beta} (g below alpha, and symmetrically) that
    meets it without lying inside it, and is closed again from all its
    pairs, until no class is left half inside."""
    alg = lattice.algebra
    n = alg.size
    leq, ji = lattice.leq, lattice.join_irreducible_indices()
    classes = [mask for g in ji if leq[g][i] for mask in _close_delta(lattice, g, j)[::2]]
    classes += [mask for g in ji if leq[g][j] for mask in _close_delta(lattice, g, i)[::2]]
    blocks = tuple(range(n))
    while True:
        related = _block_mask(blocks)
        missing = 0
        for cls in classes:
            if cls & related and cls & ~related:
                missing |= cls & ~related
        if not missing:
            return lattice.index(Congruence(alg, blocks))
        seeds = list(enumerate(blocks))
        seeds += [divmod(k, n) for k in range(missing.bit_length()) if missing >> k & 1]
        blocks = _close_pairs(alg, seeds)


def assert_same_commutators(alg, order=None):
    """The full table on a cold Con(A), asked for in ``order`` (default:
    bottom-up, since a finer congruence sorts later), so that each query is
    seeded from whatever the queries before it stored; the oracle runs on a
    Con(A) of its own."""
    lattice, oracle = all_congruences(alg), all_congruences(alg)
    size = len(lattice)
    if order is None:
        order = [(i, j) for i in reversed(range(size)) for j in reversed(range(size))]
    for i, j in order:
        assert commutator_index(lattice, i, j, cap=10**9) == saturation_commutator(oracle, i, j)


@pytest.mark.parametrize(
    "alg",
    [load_algebra(path.read_text(encoding="utf-8")) for path in CORPUS_FILES] + LADDER,
    ids=lambda alg: alg.name,
)
def test_commutator_matches_the_saturation_fixpoint(alg):
    assert_same_commutators(alg)


@given(st.one_of(random_algebras(), associative_algebras()), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_commutator_of_random_algebras_matches_the_saturation_fixpoint(alg, rng):
    """Random algebras, and semigroups such as (Z_6, *), whose fixpoints
    often need more than one round."""
    size = len(all_congruences(alg))
    order = [(i, j) for i in range(size) for j in range(size)]
    rng.shuffle(order)
    assert_same_commutators(alg, order)
    assert_same_commutators(alg)


def scan_residuation(lattice, i, j) -> int:
    """congruences[i] -> congruences[j] as the join of every gamma with
    [congruences[i], gamma] <= congruences[j], over the whole table."""
    leq = lattice.leq
    return lattice.join_many(g for g, c in enumerate(commutator_table(lattice)[i]) if leq[c][j])


THEORY_CORPUS = [
    alg
    for alg in (load_algebra(path.read_text(encoding="utf-8")) for path in CORPUS_FILES)
    if surrogate_checks(alg).ok
]


@pytest.mark.parametrize("alg", THEORY_CORPUS, ids=lambda alg: alg.name)
def test_residuation_matches_the_full_scan(alg):
    """On a cold Con(A), so the rows are filled by the residuation queries
    themselves; the scan reads a Con(A) of its own."""
    lattice, oracle = all_congruences(alg), all_congruences(alg)
    size = len(lattice)
    for i in range(size):
        for j in range(size):
            assert residuation_index(lattice, i, j) == scan_residuation(oracle, i, j)


def orthogonal_families(lattice, elements) -> list[tuple]:
    """Every orthogonal subset (pairwise meet the bottom) of the given
    members of Con(A/theta), depth first, each family before its extensions
    by later elements."""
    bottom, meet = lattice.bottom_index, lattice.meet_table
    families = []
    stack = [(0, ())]
    while stack:
        start, chosen = stack.pop()
        families.append(chosen)
        for k in reversed(range(start, len(elements))):
            e = elements[k]
            if all(meet[e][c] == bottom for c in chosen):
                stack.append((k + 1, chosen + (e,)))
    return families


def family_lifts_orthogonal(lattice, t) -> bool:
    """Whether the lifts of every liftable orthogonal family of the center
    of Con(A/theta), the quotient's own, are pairwise orthogonal, family by
    family, each complemented alpha lying in the fiber of its generated
    image; the commutator is read through ``lifting.commutator_table``, as
    ``orthogonal_index`` reads it."""
    fibers = {}
    for a in center_index(lattice, lattice.bottom_index)[0]:
        fibers.setdefault(generated_image(lattice, t, a), []).append(a)
    qlattice = projection(lattice, t).lattice
    qmembers = center_index(qlattice, qlattice.bottom_index)[0]
    table = lifting.commutator_table(lattice)
    meet, bottom = lattice.meet_table, lattice.bottom_index
    ok = True
    for family in orthogonal_families(qlattice, qmembers):
        if any(k not in fibers for k in family):
            continue
        for x, y in combinations([fibers[k][0] for k in family], 2):
            if meet[x][y] != bottom or table[x][y] != bottom:
                ok = False
    return ok


@pytest.mark.parametrize("alg", THEORY_CORPUS + [boolean_lattice(4)], ids=lambda alg: alg.name)
def test_orthogonal_pairs_match_the_family_loop(alg):
    lattice = con_lattice(alg)
    rad = spectrum_index(lattice, False)[2]
    for t in range(len(lattice)):
        if lattice.leq[t][rad]:
            assert orthogonal_index(lattice, t)[1] == family_lifts_orthogonal(lattice, t)


def test_orthogonal_pairs_and_families_catch_one_commutator(monkeypatch):
    """[a1, a2] read as a1 on Con(C_5), the Boolean lattice of 16: the lifts
    of the atoms a1 and a2 at Delta are no longer orthogonal."""
    alg = fresh_copy(chain_lattice(5))
    lattice = con_lattice(alg)
    bottom = lattice.bottom_index
    assert orthogonal_index(lattice, bottom)[1] and family_lifts_orthogonal(lattice, bottom)
    a1, a2 = lattice.atoms()[:2]
    _plant_commutator(monkeypatch, alg, a1, a2, a1, module=lifting)
    assert orthogonal_index(lattice, bottom)[1] is False
    assert family_lifts_orthogonal(lattice, bottom) is False


def atom_subfamilies_lift_to_atoms(lattice, t) -> bool | None:
    """Whether every subfamily of the quotient center's atoms lifts to atoms
    of B(Con(A)), one ``lift_orthogonal_index`` call per subfamily; None
    when theta lacks CBLP.  Both sets of atoms are read through
    ``lifting.center_index``, as ``orthogonal_index`` reads them."""
    if not lifting.cblp_index(lattice, t)[0]:
        return None
    atoms = set(lifting.center_index(lattice, lattice.bottom_index)[2])
    qatoms = lifting.center_index(lattice, t)[2]
    return all(
        set(lift_orthogonal_index(lattice, t, chosen)) <= atoms
        for r in range(len(qatoms) + 1)
        for chosen in combinations(qatoms, r)
    )


@pytest.mark.parametrize("alg", THEORY_CORPUS + [boolean_lattice(4)], ids=lambda alg: alg.name)
def test_atom_family_matches_the_subfamily_loop(alg):
    lattice = con_lattice(alg)
    rad = spectrum_index(lattice, False)[2]
    for t in range(len(lattice)):
        if lattice.leq[t][rad]:
            assert orthogonal_index(lattice, t)[2] == atom_subfamilies_lift_to_atoms(lattice, t)


def test_atom_family_and_subfamilies_catch_one_dropped_atom(monkeypatch):
    """The first atom a1 dropped from the atoms of B(Con(Z_12)) that
    ``lifting`` reads, and not from those of B([theta_6, nabla]): at theta_6,
    below Rad(Z_12), both atoms of the quotient Z_6 lift to atoms of
    B(Con(Z_12)), one of them a1, now no atom.  At theta = Delta the two
    sets of atoms are one stored value, so a plant there drops a1 from
    both."""
    alg = fresh_copy(ring_zn(12))
    lattice = con_lattice(alg)
    bottom = lattice.bottom_index
    t = lattice.index(congruence_from_blocks(alg, [x % 6 for x in range(12)]))
    assert orthogonal_index(lattice, t)[2] and atom_subfamilies_lift_to_atoms(lattice, t)
    real = lifting.center_index
    a1 = real(lattice, bottom)[2][0]

    def dropped(lat, base):
        members, complement, atoms = real(lat, base)
        if lat is lattice and base == bottom:
            atoms = tuple(a for a in atoms if a != a1)
        return members, complement, atoms

    monkeypatch.setattr(lifting, "center_index", dropped)
    assert orthogonal_index(lattice, t)[2] is False
    assert atom_subfamilies_lift_to_atoms(lattice, t) is False


# ---------------------------------------------------------------------------
# the scans that the generator routes replaced: center distributivity over
# every member of B, monotonicity over every comparable pair, the adjunction
# over every fiber, the generated image of every member, the separation of
# every coprime pair at every theta, and Id-BLP on the built quotient L/I


def scan_center_join_distributes(lattice) -> bool:
    """(t ^ u) v a = (t v a) ^ (u v a) for every member a of B(Con(A)) and
    all t, u, one row of u per t."""
    join, meet = lattice.join_table, lattice.meet_table
    ok = True
    for a in center_index(lattice, lattice.bottom_index)[0]:
        join_a = [row[a] for row in join]
        right: dict[int, list[int]] = {}
        for t in range(len(lattice)):
            v = join_a[t]
            if v not in right:
                right[v] = list(map(meet[v].__getitem__, join_a))
            if list(map(join_a.__getitem__, meet[t])) != right[v]:
                ok = False
    return ok


def scan_commutator_monotone(lattice, table) -> bool:
    """[i, b] <= [i2, b] for every comparable pair i <= i2 and every b."""
    leq = lattice.leq
    ok = True
    for i, row in enumerate(table):
        ups = [leq[c] for c in row]
        for i2, above in enumerate(leq[i]):
            if above and not all(up[c] for up, c in zip(ups, table[i2])):
                ok = False
    return ok


def scan_residuation_adjunction(lattice, table) -> bool:
    """down(b -> c) = {a : [a, b] <= c} for every b and c, the right side
    as the union of every fiber {a : [a, b] = v} with v <= c."""
    leq, down, size = lattice.leq, lattice.down_sets, len(lattice)
    ok = True
    for b in range(size):
        fibers: dict[int, int] = {}
        for a, row in enumerate(table):
            fibers[row[b]] = fibers.get(row[b], 0) | 1 << a
        for c in range(size):
            below_c = 0
            for v, members in fibers.items():
                if leq[v][c]:
                    below_c |= members
            if down[residuation_index(lattice, b, c)] != below_c:
                ok = False
    return ok


def generated_image(lattice, t, a) -> int:
    """The congruence of A/theta generated by the projected pairs of alpha =
    congruences[a], as an index of Con(A/theta), enumerated on its own: the
    join of the principal congruences of those pairs."""
    p = projection(lattice, t)
    theta, alpha = lattice.congruences[t].blocks, lattice.congruences[a].blocks
    element = {r: k for k, r in enumerate(sorted(set(theta)))}
    image = [element[r] for r in theta]
    m, principals = p.quotient.size, p.lattice.principals
    return p.lattice.join_many({principals[image[x] * m + image[r]] for x, r in enumerate(alpha)})


def scan_center_map(lattice, t) -> tuple:
    """B(p_theta) with every member's cell generated in Con(A/theta) and
    read back into [theta, nabla]."""
    up = projection(lattice, t).up
    members = center_index(lattice, lattice.bottom_index)[0]
    return tuple(up[generated_image(lattice, t, a)] for a in members)


def scan_characterization(lattice, t) -> tuple[bool, bool]:
    """Clauses (2) and (3) from every coprime pair at this theta."""
    below_a, below_na = lifting._center_pair_bits(lattice)
    leq, join_t = lattice.leq, lattice.join_table[t]
    c2 = c3 = True
    for i, j, cij in coprime_triples(lattice):
        if not leq[cij][t] or below_a[join_t[i]] & below_na[join_t[j]]:
            continue
        c2 = False
        if cij == t:
            c3 = False
    return c2, c3


def quotient_id_blp(lattice, ideal) -> tuple:
    """(lifts, witnesses, counterexample) of Id-BLP, read off the quotient
    lattice that ``quotient_by_ideal`` builds and its center."""
    quo, class_of = quotient_by_ideal(ideal)
    center_l = lattice.center
    witnesses = []
    for target in quo.center:
        lift = next((x for x in center_l if class_of[x] == target), None)
        if lift is None:
            return False, tuple(witnesses), target
        witnesses.append((target, lift))
    return True, tuple(witnesses), None


def _id_blp_outcome(route, lattice, ideal):
    try:
        return route(lattice, ideal)
    except NotALattice as exc:
        return str(exc)


def _report(lattice, ideal) -> tuple:
    report = has_id_blp(lattice, ideal)
    return report.lifts, report.witnesses, report.counterexample


def interval_id_blp(lattice, ideal) -> tuple:
    """(lifts, witnesses, counterexample) of Id-BLP, the complements of each
    member y of [g, 1] found by testing y against every member of [g, 1]."""
    center_l = lattice.center
    join, meet, top = lattice.join_table, lattice.meet_table, lattice.top_index
    g = ideal.generator
    position: dict[int, int] = {}
    for y in join[g]:
        position.setdefault(y, len(position))
    center_q = []
    for y in position:
        mates = [z for z in position if join[y][z] == top and meet[y][z] == g]
        if len(mates) > 1:
            raise NotALattice(
                f"element {position[y]} has several complements: {[position[z] for z in mates]}"
            )
        if mates:
            center_q.append(position[y])
    lift_of: dict[int, int] = {}
    for x in center_l:
        lift_of.setdefault(position[join[g][x]], x)
    witnesses = []
    for target in center_q:
        if target not in lift_of:
            return False, tuple(witnesses), target
        witnesses.append((target, lift_of[target]))
    return True, tuple(witnesses), None


# M3 and N5 raise at L's own center; 1 + M3 (a new bottom below M3) has
# the center {0, 1} and raises at the interval [g, 1] = M3 over its atom g
SEVERAL_COMPLEMENTS = {
    "M3": NAMED_ORDERS["M3"],
    "N5": NAMED_ORDERS["N5"],
    "1+M3": _order(6, {(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)}),
}


@pytest.mark.parametrize(
    "source",
    THEORY_CORPUS + LADDER + sorted(SEVERAL_COMPLEMENTS),
    ids=lambda source: getattr(source, "name", source),
)
def test_id_blp_matches_the_per_ideal_search(source):
    """On every ideal of a reticulation, and of three lattices where both
    routes raise the same NotALattice message."""
    if isinstance(source, str):
        lattice = lattice_from_leq(SEVERAL_COMPLEMENTS[source])
    else:
        lattice = build_reticulation(source).lattice
    outcomes = [_id_blp_outcome(_report, lattice, ideal) for ideal in all_ideals(lattice)]
    assert outcomes == [
        _id_blp_outcome(interval_id_blp, lattice, ideal) for ideal in all_ideals(lattice)
    ]
    assert any(isinstance(outcome, str) for outcome in outcomes) == isinstance(source, str)


GENERATOR_LADDER = THEORY_CORPUS + [boolean_lattice(4), ring_zn(30), chain_lattice(9)]


def _verdicts(suite, alg) -> dict[str, bool]:
    return {check.name: check.passed for check in suite(alg)}


@pytest.mark.parametrize("alg", GENERATOR_LADDER, ids=lambda alg: alg.name)
def test_generator_routes_match_the_scans(alg):
    """Each check and result that now reads generators (B-join-irreducibles,
    covers, lower covers, atoms, the pairs unseparated at their commutator,
    the interval [g, 1]) against the scan it replaced."""
    lattice = con_lattice(alg)
    table = commutator_table(lattice)
    commutator_checks = _verdicts(verify._suite_commutator_axioms, alg)
    assert commutator_checks["commutator-monotone"] == scan_commutator_monotone(lattice, table)
    assert commutator_checks["residuation-adjunction"] == scan_residuation_adjunction(
        lattice, table
    )
    center_checks = _verdicts(verify._suite_boolean_center, alg)
    assert center_checks["center-join-distributes"] == scan_center_join_distributes(lattice)
    for t in range(len(lattice)):
        assert lifting.center_map_index(lattice, t) == scan_center_map(lattice, t)
        assert lifting.cblp_characterization_index(lattice, t)[1:3] == scan_characterization(
            lattice, t
        )
    rl = build_reticulation(alg).lattice
    for ideal in all_ideals(rl):
        assert _report(rl, ideal) == quotient_id_blp(rl, ideal)


@given(set_lattices())
@settings(max_examples=200, deadline=None)
def test_id_blp_matches_the_built_quotient(lattice):
    """On every ideal of a random lattice, distributive or not, down to the
    NotALattice message for an element with several complements."""
    for ideal in all_ideals(lattice):
        assert _id_blp_outcome(_report, lattice, ideal) == _id_blp_outcome(
            quotient_id_blp, lattice, ideal
        )


def _c5_cell_plants():
    """Every single-cell plant of the join or meet table of Con(C_5), the
    16-element Boolean lattice, to a value other than the true one."""
    return st.tuples(
        st.sampled_from(["join_table", "meet_table"]),
        st.integers(0, 15),
        st.integers(0, 15),
        st.integers(0, 15),
    )


C5 = chain_lattice(5)


@given(_c5_cell_plants())
@settings(max_examples=150, deadline=None)
def test_center_generators_differ_from_the_scan_only_off_a_lattice(plant):
    """A plant on which center-join-distributes and the scan over every
    member disagree breaks the lattice axioms, and the congruences suite
    fails it.  Only the scan then fails: the reduction to the generators
    reads the join as associative and commutative."""
    table, x, y, value = plant
    lattice = con_lattice(C5)
    rows = [list(row) for row in getattr(lattice, table)]
    assume(rows[x][y] != value)
    rows[x][y] = value
    planted = replace(lattice, **{table: tuple(map(tuple, rows))})
    real = verify.con_lattice
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "con_lattice", lambda a, cap=None: planted if a is C5 else real(a, cap))
        new = _verdicts(verify._suite_boolean_center, C5)["center-join-distributes"]
        axioms = _verdicts(verify._suite_con_enumeration, C5)["join-meet-lattice-axioms"]
    old = scan_center_join_distributes(planted)
    if new != old:
        assert (new, old, axioms) == (True, False, False)


def test_one_sided_join_off_the_generators_fails_only_the_scan(monkeypatch):
    """a3 v (a1 v a2) read as the top, the reverse order left alone: the law
    at a1 v a2 fails, and only the scan tests a1 v a2.  The join table is no
    longer commutative, which join-meet-lattice-axioms reports.  The stored
    results are computed first, from the real tables, so the plant changes
    only the join table that the suites read."""
    alg = fresh_copy(C5)
    assert verify.verify_algebra(alg).ok
    lattice = con_lattice(alg)
    a1, a2, a3, _ = lattice.atoms()
    rows = [list(row) for row in lattice.join_table]
    rows[a3][lattice.join_index(a1, a2)] = lattice.top_index
    planted = replace(lattice, join_table=tuple(map(tuple, rows)))
    real = verify.con_lattice
    monkeypatch.setattr(
        verify, "con_lattice", lambda a, cap=None: planted if a is alg else real(a, cap)
    )
    assert _verdicts(verify._suite_boolean_center, alg)["center-join-distributes"]
    assert not scan_center_join_distributes(planted)
    assert not _verdicts(verify._suite_con_enumeration, alg)["join-meet-lattice-axioms"]


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
@settings(max_examples=150, deadline=None)
def test_monotonicity_and_adjunction_match_the_scans_under_one_wrong_commutator(i, j, value):
    """A commutator table of Con(C_5) with one cell wrong: the cover route
    and the lower-cover route decide exactly as the scans do."""
    lattice = con_lattice(C5)
    rows = [list(row) for row in commutator_table(lattice)]
    assume(rows[i][j] != value)
    rows[i][j] = value
    planted = tuple(map(tuple, rows))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "commutator_table", lambda lat: planted)
        new = _verdicts(verify._suite_commutator_axioms, C5)
    assert new["commutator-monotone"] == scan_commutator_monotone(lattice, planted)
    assert new["residuation-adjunction"] == scan_residuation_adjunction(lattice, planted)


def test_center_map_generates_the_atoms_only():
    """Cg(2, 0) of Con(A/Delta) read as the top, on a verified C_5 whose
    stored results the plant keeps: the pair (2, 0) lies in
    Cg(0, 1) v Cg(1, 2) and in no atom of B(A), so only the scan, which
    generates every member's image, reads it and differs from the center
    map.  projection-center-morphism generates the atoms only and takes the
    image of a join to be the join of the images, which a wrong principal
    congruence of a non-atom pair breaks, so it passes."""
    alg = fresh_copy(C5)
    assert verify.verify_algebra(alg).ok
    lattice = con_lattice(alg)
    t = lattice.bottom_index
    real = projection(lattice, t)
    qlattice = real.lattice
    principals = list(qlattice.principals)
    principals[2 * real.quotient.size + 0] = qlattice.top_index
    lattice._caches["congruence_lab.congruences.projection"][(t,)] = replace(
        real, lattice=replace(qlattice, principals=tuple(principals))
    )
    row = lifting.center_map_index(lattice, t)
    members = center_index(lattice, lattice.bottom_index)[0]
    assert row == tuple(lattice.join_table[a][t] for a in members)
    assert scan_center_map(lattice, t) != row
    assert _verdicts(verify._suite_lifting, alg)["projection-center-morphism"]


# ---------------------------------------------------------------------------
# associativity: the cubic scan that Light's test on the generators replaced


def cubic_is_associative(rows) -> bool:
    """(a b) c = a (b c) for every a, b, c of the table rows[a][b] = a b."""
    n = len(rows)
    return all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


# ---------------------------------------------------------------------------
# generator search: the tuple sort key that the plan's int scores replaced


def tuple_key_generators(rows, firsts, seconds, index_of) -> tuple[int, ...]:
    """The greedy generators of the pair algebra with members (firsts[i],
    seconds[i]) under rows[a][b] = a b, candidates sorted by the tuple
    (most multiples f(x, A) and f(A, x), then longest cyclic subsemigroup,
    each summed over both coordinates), counted from the table on every
    call; the span is kept closed under multiplication on the right by the
    generators."""
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

    def times(s, t):
        return index_of[rows[firsts[s]][firsts[t]] * n + rows[seconds[s]][seconds[t]]]

    generated = set()
    generators = []
    for c in order:
        if c in generated:
            continue
        generators.append(c)
        queue = [c] + [times(s, c) for s in generated]
        while queue:
            t = queue.pop()
            if t not in generated:
                generated.add(t)
                queue += [times(t, g) for g in generators]
    return tuple(generators)


def assert_int_scores_choose_the_tuple_key_generators(alg):
    """The plan's generators of A and each A(beta)'s stored generators (all
    of A(beta) where none are stored) against the tuple key's."""
    n = alg.size
    diagonal = [-1] * (n * n)
    for x in range(n):
        diagonal[x * n + x] = x
    lattice = con_lattice(alg)
    stored = [_pair_algebra(lattice, b) for b in range(len(lattice))]
    for e, (_, rows, _, generators, _) in enumerate(_translation_plan(alg)):
        if generators is None:
            continue
        assert generators == tuple_key_generators(rows, range(n), range(n), diagonal)
        for firsts, seconds, index_of, products in stored:
            oracle = tuple_key_generators(rows, firsts, seconds, index_of)
            if products[e] is None:
                assert len(oracle) == len(firsts)
            else:
                assert tuple(products[e]) == oracle


@pytest.mark.parametrize(
    "alg",
    [load_algebra(path.read_text(encoding="utf-8")) for path in CORPUS_FILES] + LADDER,
    ids=lambda alg: alg.name,
)
def test_int_scores_choose_the_tuple_key_generators(alg):
    assert_int_scores_choose_the_tuple_key_generators(alg)


@given(associative_algebras())
@settings(max_examples=100, deadline=None)
def test_int_scores_choose_the_tuple_key_generators_on_semigroups(alg):
    assert_int_scores_choose_the_tuple_key_generators(alg)


def scan_clopen_witnesses(lattice) -> list[tuple[tuple[int, ...], int, int]]:
    """Each clopen of Max(A) with its witness pair (alpha, beta) as indices:
    the first pair in index order with Max(A) n D(alpha) the clopen, alpha
    v beta the top and [alpha, beta] <= Rad(A), found by scanning all of
    Con(A) once per clopen."""
    _, maximals, rad, _ = spectrum_index(lattice, False)
    leq, top = lattice.leq, lattice.top_index
    found = []
    for members in brute_force_clopens(lattice.algebra):
        member_set = set(members)
        a, b = next(
            (a, b)
            for a, above in enumerate(leq)
            if {k for k, m in enumerate(maximals) if not above[m]} == member_set
            for b, joined in enumerate(lattice.join_table[a])
            if joined == top and leq[commutator_index(lattice, a, b)][rad]
        )
        found.append((members, a, b))
    return found


@pytest.mark.parametrize("alg", THEORY_CORPUS + LADDER, ids=lambda alg: alg.name)
def test_clopen_witnesses_match_the_scan(alg):
    lattice = con_lattice(alg)
    witnesses = [
        (w.members, lattice.index(w.alpha), lattice.index(w.beta)) for w in clopens_of_max(alg)
    ]
    assert witnesses == scan_clopen_witnesses(lattice)


def scan_costar(lattice, g) -> int:
    """(g]_* as an index: the join of every congruence j with lambda(j) in
    (g], one pass over Con(A) per g."""
    _, retic_lattice, lam = reticulation_index(lattice)
    inside = [row[g] for row in retic_lattice.leq]
    return lattice.join_many(j for j, h in enumerate(lam) if inside[h])


@pytest.mark.parametrize("alg", THEORY_CORPUS + LADDER, ids=lambda alg: alg.name)
def test_costar_table_matches_the_per_ideal_join(alg):
    lattice = con_lattice(alg)
    size = reticulation_index(lattice)[1].size
    assert costar_table(lattice) == tuple(scan_costar(lattice, g) for g in range(size))


def scan_star_property(lattice) -> bool:
    """For every pair and every value [alpha,beta]^n of its chain, a search
    for an m with [[alpha,alpha]^m, [beta,beta]^m] <= [alpha,beta]^n, m
    bounded by the longer of the two chains."""
    table = commutator_table(lattice)
    chains = [_iterate_chain(lattice, i) for i in range(len(lattice))]
    for a, chain_a in enumerate(chains):
        for b, chain_b in enumerate(chains):
            bound = max(len(chain_a), len(chain_b))
            for n_value in chains[table[a][b]]:  # the values [alpha,beta]^n, n >= 1
                found = False
                for m in range(bound):
                    am = chain_a[min(m, len(chain_a) - 1)]
                    bm = chain_b[min(m, len(chain_b) - 1)]
                    if lattice.leq_index(table[am][bm], n_value):
                        found = True
                        break
                if not found:
                    return False
    return True


def upper_triangular_f2() -> FiniteAlgebra:
    """T_2(F_2), the ring of upper-triangular 2x2 matrices over F_2, with
    ``ring_zn``'s signature; [[a, b], [0, c]] is the element 4a + 2b + c."""
    entries = [(x >> 2, x >> 1 & 1, x & 1) for x in range(8)]

    def index(a, b, c):
        return 4 * (a % 2) + 2 * (b % 2) + c % 2

    add = tuple(index(a + p, b + q, c + r) for a, b, c in entries for p, q, r in entries)
    mul = tuple(index(a * p, a * q + b * r, c * r) for a, b, c in entries for p, q, r in entries)
    return FiniteAlgebra(
        "T_2(F_2)",
        8,
        (
            Operation("add", 2, add),
            Operation("neg", 1, tuple(range(8))),
            Operation("mul", 2, mul),
            Operation("zero", 0, (0,)),
            Operation("one", 0, (index(1, 0, 1),)),
        ),
    )


# Z_8 (in the corpus), Z_16, Z_24 and Z_27 have iterate chains of length 3
STAR_INPUTS = THEORY_CORPUS + [
    boolean_lattice(4),
    ring_zn(30),
    product(ring_zn(2), ring_zn(9)),
    ring_zn(16),
    ring_zn(24),
    ring_zn(27),
]


@pytest.mark.parametrize("alg", STAR_INPUTS, ids=lambda alg: alg.name)
def test_star_property_matches_the_iterate_scan(alg):
    lattice = con_lattice(alg)
    assert _star_property(lattice) == scan_star_property(lattice)


def test_star_property_fails_on_upper_triangular_matrices():
    """T_2(F_2) has five congruences and passes the surrogates.  Its
    ideals I_1 (a = 0) and I_2 (c = 0) are idempotent and [I_1, I_2] is
    J (a = c = 0), but J^2 = 0: no iterates of I_1 and I_2 have their
    commutator below [I_1, I_2]^2."""
    alg = upper_triangular_f2()
    assert surrogate_checks(alg).ok
    lattice = con_lattice(alg)
    assert len(lattice) == 5
    assert _star_property(lattice) is scan_star_property(lattice) is False


@pytest.mark.parametrize("alg", THEORY_CORPUS + [chain_lattice(9)], ids=lambda alg: alg.name)
def test_reticulation_is_con_where_rho_is_the_identity(alg):
    """Where every congruence is radical (C_5, B_3 and C_9 among them), L(A)
    is Con(A) itself and lambda the identity; the order route would have
    built the same tables.  Every other input gets a lattice of its own, on
    fewer elements."""
    lattice = con_lattice(alg)
    radicals, retic_lattice, lam = reticulation_index(lattice)
    identity = tuple(range(len(lattice)))
    if radical_table(lattice) != identity:
        assert type(retic_lattice) is FiniteLattice
        assert retic_lattice.size == len(radicals) < len(lattice)
        return
    assert retic_lattice is lattice and lam == identity
    rebuilt = lattice_from_leq(lattice.leq)
    assert rebuilt.join_table == lattice.join_table
    assert rebuilt.meet_table == lattice.meet_table
    assert (rebuilt.bottom_index, rebuilt.top_index) == (lattice.bottom_index, lattice.top_index)


@pytest.mark.parametrize(
    "alg",
    [ring_zn(8), ring_zn(24), product(ring_zn(2), ring_zn(9)), upper_triangular_f2()],
    ids=lambda alg: alg.name,
)
def test_reticulation_is_built_where_rho_is_not_the_identity(alg):
    lattice = con_lattice(alg)
    radicals, retic_lattice, _ = reticulation_index(lattice)
    assert radical_table(lattice) != tuple(range(len(lattice)))
    assert type(retic_lattice) is FiniteLattice
    assert retic_lattice.size == len(radicals) < len(lattice)

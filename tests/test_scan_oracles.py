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
  least elements of their classes.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab import NotALattice, SizeBudgetExceeded
from congruence_lab.algebra import load_algebra, product
from congruence_lab.builders import boolean_lattice, chain_lattice, ring_zn, standard_corpus
from congruence_lab.commutator import (
    _close_delta,
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
    all_congruences,
    con_lattice,
)
from congruence_lab.lattices import FiniteLattice, all_ideals, is_prime_ideal, lattice_from_leq
from congruence_lab.lifting import (
    _coprime_pairs,
    boolean_center_of_congruences,
    cblp_characterization,
    is_b_normal,
)
from congruence_lab.reticulation import build_reticulation
from congruence_lab.spectrum import radical_index
from congruence_lab.verify import _radical_frame_ok

from test_commutator import associative_algebras
from test_congruences import random_algebras


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
    for i, j, cij in _coprime_pairs(lattice):
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
    for i, j, _ in _coprime_pairs(lattice):
        if not any(
            lattice.join_index(i, a) == top and lattice.join_index(j, b) == top
            for a, b in orthogonal
        ):
            return False, (lattice.congruences[i], lattice.congruences[j])
    return True, None


@pytest.mark.parametrize("alg", _in_theory_corpus(), ids=lambda alg: alg.name)
def test_separation_and_b_normal_scans_on_the_corpus(alg):
    for theta in con_lattice(alg).congruences:
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
    rho = [radical_index(lattice, i) for i in range(len(lattice))]
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


@pytest.mark.parametrize(
    "alg",
    [
        alg
        for alg in (load_algebra(path.read_text(encoding="utf-8")) for path in CORPUS_FILES)
        if surrogate_checks(alg).ok
    ],
    ids=lambda alg: alg.name,
)
def test_residuation_matches_the_full_scan(alg):
    """On a cold Con(A), so the rows are filled by the residuation queries
    themselves; the scan reads a Con(A) of its own."""
    lattice, oracle = all_congruences(alg), all_congruences(alg)
    size = len(lattice)
    for i in range(size):
        for j in range(size):
            assert residuation_index(lattice, i, j) == scan_residuation(oracle, i, j)

"""Exhaustive property suites over a corpus of finite algebras.

Each suite checks one batch of invariants or one named transfer result on a
single algebra and yields Check records; ``verify_algebra`` runs every suite
the algebra's hypothesis surrogates allow, and ``verify_corpus`` adds the
cross-algebra checks (direct products, quotient correspondences).

Every quantifier runs over all of Con(A) except the capped ones below.  The
identities quantified over pairs and triples (the lattice axioms, commutator
monotonicity and residuation, the radical lemmas and the radical frame, the
spectral topology, the lambda and star clauses, center distributivity) read
the join, meet and order tables into locals, read the commutator off
``commutator_table``, the one stored table of Con(A) (of Con(A/theta) for
the quotient checks), and compare whole rows, or int bitsets of down-sets,
instead of calling a lattice method per element.  The lifting suite reads
per-theta lists in the same way: the CBLP results with their witnesses,
the radicals, the regular congruences, the trivial quotient centers and the
Id-BLP verdict of each ideal (g] of the reticulation are computed once, and
the checks compare entries of them.  The commutator identities
over triples that go through quotient algebras stay capped at TRIPLE_CAP
congruences, and the matrix and brute-force oracles at their universe
sizes, as before.  The caps match the sizes the suites are specified at and
are recorded in each check's detail string when they bite.

Each fact is stated by one check: lambda's lattice clauses by
lambda-clause-suite, which lambda-boolean-embedding and spec-homeomorphism
do not restate, and the injectivity of the center map at Rad(A) by
orthogonal-lift-unique, which rad-clopen-criterion does not restate.

The library reads A/theta as the interval [theta, nabla] of Con(A); the
quotient algebras and their Con(A/theta) appear only here, on one side of
interval-vs-quotient-count, commutator-projection-identity,
quotient-iterate-identity, projection-center-morphism and
quotient-annihilator-identity.

Three checks test their quantifier on generators, each exact by an order or
lattice identity of the tables it reads.  ``center-join-distributes`` tests
the bottom and the members of B that are not the join of two smaller
members, since the law passes from a and b to a v b by the associativity of
the join.  ``commutator-monotone`` compares rows along covers only, since
<= is transitive.  ``residuation-adjunction`` builds {a : [a, b] <= c}
bottom-up, as the fiber of c and the sets at the lower covers of c, since
v < c means v <= some lower cover of c.  A table that is not a lattice's
can pass these checks and fail the scans they replaced; the
congruences suite tests the lattice axioms.
"""

from __future__ import annotations

import time
from itertools import combinations
from math import gcd

from .algebra import (
    FiniteAlgebra,
    find_isomorphism,
    parse_algebra,
    product,
    quotient,
    serialize_algebra,
)
from .builders import ring_congruence, ring_zn
from .commutator import (
    annihilator_index,
    commutator_table,
    matrix_subalgebra,
    residuation_index,
    surrogate_checks,
    _iterate_chain,
)
from .congruences import (
    Congruence,
    brute_force_congruences,
    con_lattice,
    congruence_from_blocks,
    congruence_from_pairs,
    projection,
    _canonical,
    _quotient_algebra,
)
from .lattices import FiniteLattice, _bitset, _members, all_ideals, center_index
from .lifting import (
    b_normal_index,
    cblp_characterization_index,
    cblp_index,
    center_map_index,
    diamond_index,
    diamond_star_commute_index,
    has_id_blp,
    hyperarchimedean_cblp,
    orthogonal_index,
    quotient_cblp_descent_index,
    rad_cblp_criterion,
    ring_idempotent_lifting,
    ring_idempotents,
    _coprime_pairs,
)
from .reticulation import (
    check_spec_homeomorphism,
    costar_table,
    preserves_boolean_center,
    reticulation_index,
)
from .spectrum import (
    clopen_index,
    clopens_of_max,
    open_table,
    radical_oracle_table,
    radical_table,
    spectrum_index,
    v_set_index,
)

__all__ = ["Check", "AlgebraReport", "verify_algebra", "verify_corpus"]

TRIPLE_CAP = 12  # |Con(A)| bound for cubic commutator identities
BRUTE_FORCE_CAP = 7  # universe bound for whole-partition enumeration
MATRIX_CHECK_CAP = 4  # universe bound for materializing M(alpha, beta)
PAIR_SIZE_CAP = 16  # |A| * |B| bound for the corpus product checks


class Check:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name, passed, detail=""):
        self.name = name
        self.passed = passed
        self.detail = detail


class AlgebraReport:
    __slots__ = ("algebra", "exploratory", "checks", "elapsed")

    def __init__(self, algebra, exploratory, checks=None, elapsed=0.0):
        self.algebra = algebra
        self.exploratory = exploratory
        self.checks = [] if checks is None else checks
        self.elapsed = elapsed

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def _is_ring(alg: FiniteAlgebra) -> bool:
    return alg == ring_zn(alg.size)


def _is_lattice_signature(alg: FiniteAlgebra) -> bool:
    return alg.signature() == (("join", 2), ("meet", 2), ("bot", 0), ("top", 0))


# ---------------------------------------------------------------------------
# suite pieces


def _suite_roundtrip(alg):
    doc = serialize_algebra(alg)
    yield Check("doc-roundtrip", parse_algebra(doc) == alg)


def _suite_con_enumeration(alg):
    lattice = con_lattice(alg)
    if alg.size <= BRUTE_FORCE_CAP:
        brute = set(brute_force_congruences(alg))
        enum = {c.blocks for c in lattice.congruences}
        yield Check(
            "con-brute-force",
            brute == enum,
            f"{len(enum)} congruences at n={alg.size}",
        )
        # every stored Cg(a, b) is the meet of the brute-force congruences relating a, b
        minimal_ok = True
        for cell, k in enumerate(lattice.principals):
            a, b = divmod(cell, alg.size)
            relating = [blocks for blocks in brute if blocks[a] == blocks[b]]
            if lattice.congruences[k].blocks != _canonical(zip(*relating)):
                minimal_ok = False
        yield Check("principal-minimality", minimal_ok)
    size = len(lattice)
    join, meet = lattice.join_table, lattice.meet_table
    # commutativity: each table equals its transpose; absorption, row by row
    lattice_ok = tuple(zip(*join)) == join and tuple(zip(*meet)) == meet
    for i in range(size):
        if {meet[i][jn] for jn in join[i]} != {i} or {join[i][mt] for mt in meet[i]} != {i}:
            lattice_ok = False
    yield Check("join-meet-lattice-axioms", lattice_ok)
    ji = lattice.join_irreducible_indices()
    decompose_ok = all(
        lattice.join_many(g for g in ji if lattice.leq_index(g, i)) == i
        for i in range(size)
    )
    yield Check("join-irreducible-decomposition", decompose_ok)
    # Con(A/theta) of the stored quotient that projection reads, enumerated
    # on its own, so a count mismatch fails here instead of raising there
    interval_ok = True
    for t, above in enumerate(lattice.leq):
        quo = _quotient_algebra(lattice, t)
        if sum(above) != len(con_lattice(quo)):
            interval_ok = False
    yield Check("interval-vs-quotient-count", interval_ok)


def _suite_commutator_axioms(alg):
    lattice = con_lattice(alg)
    size = len(lattice)
    table = commutator_table(lattice)
    leq, join, meet = lattice.leq, lattice.join_table, lattice.meet_table
    top = lattice.top_index

    below_ok = all(
        leq[c][m] for row, meet_row in zip(table, meet) for c, m in zip(row, meet_row)
    )
    yield Check("commutator-below-meet", below_ok)

    yield Check("commutator-commutative", tuple(zip(*table)) == table)

    # [i, b] <= [i2, b] for i <= i2, compared over the covers i < i2 only:
    # every comparable pair is joined by a chain of covers, and <= is
    # transitive
    monotone_ok = True
    upper = lattice.upper_covers
    for i, row in enumerate(table):
        ups = [leq[c] for c in row]  # ups[b][x]: [i, b] <= x
        for i2 in upper[i]:
            if not all(up[c] for up, c in zip(ups, table[i2])):
                monotone_ok = False
    yield Check("commutator-monotone", monotone_ok)

    if size <= TRIPLE_CAP:
        distributive_ok = all(
            table[lattice.join_index(i, j)][b] == lattice.join_index(table[i][b], table[j][b])
            for i in range(size)
            for j in range(size)
            for b in range(size)
        )
        yield Check("commutator-join-distributive", distributive_ok, f"|Con|={size}")

    if size <= TRIPLE_CAP:
        projection_ok = True
        # at theta = Delta, A/theta is A and both sides read [i, j] itself
        for t in range(size):
            if t == lattice.bottom_index:
                continue
            p = projection(lattice, t)
            down, join_t, qtable = p.down, join[t], commutator_table(p.lattice)
            for i in range(size):
                q_row = qtable[down[join_t[i]]]
                for j in range(size):
                    if down[join_t[table[i][j]]] != q_row[down[join_t[j]]]:
                        projection_ok = False
        yield Check("commutator-projection-identity", projection_ok, f"|Con|={size}")

    coprime_meet_ok = True
    coprime_iterates_ok = True
    coprime_joins_ok = True
    for i, partners in enumerate(_coprime_pairs(lattice)):
        # the g coprime to i, as a list and as flags
        coprime_g = list(_members(partners))
        is_coprime = [v == top for v in join[i]]
        chain_i = _iterate_chain(lattice, i)
        for j in coprime_g:
            if table[i][j] != meet[i][j]:
                coprime_meet_ok = False
            chain_j = _iterate_chain(lattice, j)
            bound = max(len(chain_i), len(chain_j))
            for n in range(1, bound + 1):
                a = chain_i[min(n, len(chain_i) - 1)]
                b = chain_j[min(n, len(chain_j) - 1)]
                if join[a][b] != top:
                    coprime_iterates_ok = False
            # for every g coprime to i: [j, g] and j ^ g stay coprime to i
            for row_j in (table[j], meet[j]):
                if not all(map(is_coprime.__getitem__, map(row_j.__getitem__, coprime_g))):
                    coprime_joins_ok = False
    yield Check("coprime-commutator-is-meet", coprime_meet_ok)
    yield Check("coprime-iterates-stay-coprime", coprime_iterates_ok)
    yield Check("coprime-join-transfer", coprime_joins_ok)

    if size <= TRIPLE_CAP:
        quotient_iterates_ok = True
        for t in range(size):  # theta = Delta skipped as above
            if t == lattice.bottom_index:
                continue
            p = projection(lattice, t)
            down, join_t, qtable = p.down, join[t], commutator_table(p.lattice)
            for i in range(size):
                for j in range(size):
                    if down[i] is None or down[j] is None:
                        continue
                    chain_q = _iterate_chain(p.lattice, qtable[down[i]][down[j]])
                    base = table[i][j]
                    chain_a = _iterate_chain(lattice, base)
                    bound = max(len(chain_q), len(chain_a))
                    for n in range(1, bound + 1):
                        left = chain_q[min(n - 1, len(chain_q) - 1)]
                        up = chain_a[min(n - 1, len(chain_a) - 1)]
                        if left != down[join_t[up]]:
                            quotient_iterates_ok = False
        yield Check("quotient-iterate-identity", quotient_iterates_ok, f"|Con|={size}")

    # a <= b -> c iff [a, b] <= c, compared one column of a per (b, c) as
    # bitsets: down[x] is {a : a <= x}, fibers[v] is {a : [a, b] = v}, and
    # below[c] is {a : [a, b] <= c}, the fiber of c and below[l] for each
    # lower cover l of c, since v < c means v <= l for some such l.  Reversed
    # index order is bottom-up, so each below[l] is ready before c's.
    down, lower = lattice.down_sets, lattice.lower_covers
    adjunction_ok = True
    for b in range(size):
        fibers: dict[int, int] = {}
        for a, row in enumerate(table):
            fibers[row[b]] = fibers.get(row[b], 0) | 1 << a
        below = [0] * size
        for c in reversed(range(size)):
            below_c = fibers.get(c, 0)
            for l in lower[c]:
                below_c |= below[l]
            below[c] = below_c
            if down[residuation_index(lattice, b, c)] != below_c:
                adjunction_ok = False
    yield Check("residuation-adjunction", adjunction_ok)

    # i -> bottom against the join of every gamma with [i, gamma] = bottom
    bottom, join_many = lattice.bottom_index, lattice.join_many
    annihilator_ok = all(
        annihilator_index(lattice, i) == join_many(g for g, c in enumerate(row) if c == bottom)
        for i, row in enumerate(table)
    )
    yield Check("annihilator-is-residuum-at-bottom", annihilator_ok)

    if _is_ring(alg):
        n = alg.size
        by_divisor = {
            d: lattice.index(ring_congruence(alg, d)) for d in range(1, n + 1) if n % d == 0
        }
        ring_ok = all(
            table[by_divisor[d]][by_divisor[e]] == by_divisor[gcd(d * e, n)]
            for d in by_divisor
            for e in by_divisor
        )
        yield Check("ring-gcd-oracle", ring_ok)

    if _is_lattice_signature(alg):
        yield Check("distributive-meet-oracle", table == meet)

    if alg.size <= MATRIX_CHECK_CAP:
        # M(beta, alpha) is the transpose (x, z, y, w) of M(alpha, beta), generators
        # included, and the fixpoint reads both: one closure per unordered pair
        matrix_ok = True
        for i in range(size):
            for j in range(i, size):
                alpha, beta = lattice.congruences[i], lattice.congruences[j]
                m = matrix_subalgebra(alg, alpha, beta)
                for a in range(alg.size):
                    for a2 in range(alg.size):
                        if alpha.related(a, a2) and (a, a, a2, a2) not in m.matrices:
                            matrix_ok = False
                        if beta.related(a, a2) and (a, a2, a, a2) not in m.matrices:
                            matrix_ok = False
                fix = _term_condition_fixpoint(alg, m).blocks
                for value in (table[i][j], table[j][i]):
                    if fix != lattice.congruences[value].blocks:
                        matrix_ok = False
        yield Check("matrix-subalgebra-cross-check", matrix_ok, f"n={alg.size}")


def _term_condition_fixpoint(alg, m) -> Congruence:
    """Cross-check route for the commutator, directly on a materialized
    matrix set: both row orientations of M(alpha, beta)
    and of M(beta, alpha) (the transposes)."""
    pairs = set()
    for x, y, z, w in m.matrices:
        pairs.add(((x, y), (z, w)))
        pairs.add(((x, z), (y, w)))  # transpose rows = columns
    delta = congruence_from_pairs(alg, [])
    while True:
        new = [
            bottom
            for top, bottom in pairs
            if delta.related(*top) and not delta.related(*bottom)
        ]
        if not new:
            return delta
        delta = congruence_from_pairs(alg, list(enumerate(delta.blocks)) + new)


def _suite_radicals(alg):
    lattice = con_lattice(alg)
    size = len(lattice)
    leq, join, meet = lattice.leq, lattice.join_table, lattice.meet_table
    table = commutator_table(lattice)
    rho = radical_table(lattice)

    yield Check("radical-dual-path", rho == radical_oracle_table(lattice))

    lemma_ok = True
    top = lattice.top_index
    for a in range(size):
        ra = rho[a]
        if not leq[a][ra]:
            lemma_ok = False
        if (ra == top) != (a == top):
            lemma_ok = False
        if rho[ra] != ra:
            lemma_ok = False
        chain = _iterate_chain(lattice, a)
        for value in chain:
            if rho[value] != ra:
                lemma_ok = False
        # the identities in b, one row of b at a time
        meet_rho = [meet[ra][rb] for rb in rho]  # rho(a) ^ rho(b)
        join_rho = [join[ra][rb] for rb in rho]  # rho(a) v rho(b)
        if not ([rho[m] for m in meet[a]] == [rho[c] for c in table[a]] == meet_rho):
            lemma_ok = False
        if [rho[j] for j in join[a]] != [rho[j] for j in join_rho]:
            lemma_ok = False
        if [j == top for j in join_rho] != [j == top for j in join[a]]:
            lemma_ok = False
    yield Check("radical-lemma-suite", lemma_ok)

    primes_radical_ok = all(rho[p] == p for p in spectrum_index(lattice, False)[0])
    yield Check("primes-are-radical", primes_radical_ok)

    yield Check(
        "radical-lattice-distributive",
        _radical_frame_ok(lattice, rho),
        f"{len(set(rho))} radicals",
    )


def _radical_frame_ok(lattice: FiniteLattice, rho: tuple[int, ...]) -> bool:
    """Whether the radicals, the values of rho, are closed under ^ and rho(v)
    and pass Birkhoff's test under inclusion, ^ and rho(v).  A join table
    that passes it is the lub of the order, so this is the distributive law
    x ^ rho(y v z) = rho((x ^ y) v (x ^ z)) over radical x, y, z."""
    join, meet = lattice.join_table, lattice.meet_table
    radicals = sorted(set(rho))
    position = {x: k for k, x in enumerate(radicals)}  # None off the radicals
    join_table = tuple(tuple(position.get(rho[join[x][y]]) for y in radicals) for x in radicals)
    meet_table = tuple(tuple(position.get(meet[x][y]) for y in radicals) for x in radicals)
    if any(None in row for row in join_table + meet_table):
        return False
    frame = FiniteLattice(
        leq=tuple(tuple(lattice.leq[x][y] for y in radicals) for x in radicals),
        join_table=join_table,
        meet_table=meet_table,
        bottom_index=position[rho[lattice.bottom_index]],
        top_index=position[rho[lattice.top_index]],
    )
    return frame.is_distributive()


def _suite_spectrum(alg):
    lattice = con_lattice(alg)
    leq, table = lattice.leq, commutator_table(lattice)
    primes, maximals, rad, _ = spectrum_index(lattice, False)

    yield Check("maximals-are-prime", set(maximals) <= set(primes))

    oracle_primes = spectrum_index(lattice, True)[0]
    yield Check("primality-all-pairs-oracle", set(primes) == set(oracle_primes))

    size = len(lattice)
    d_bits, traces = open_table(lattice)
    topology_ok = True
    for i in range(size):
        di = d_bits[i]
        if [d_bits[c] for c in table[i]] != [di & dj for dj in d_bits]:
            topology_ok = False
        if [d_bits[j] for j in lattice.join_table[i]] != [di | dj for dj in d_bits]:
            topology_ok = False
    full = (1 << len(primes)) - 1
    # D(nabla) is all of Spec(A) and D(Delta) is empty
    if d_bits[lattice.top_index] != full or d_bits[lattice.bottom_index] != 0:
        topology_ok = False
    yield Check("spectral-topology-identities", topology_ok)

    v_ok = all(_bitset(v_set_index(lattice, i)) == full & ~d_bits[i] for i in range(size))
    yield Check("v-d-complement", v_ok)

    # T1: every singleton of Max(A) is closed in the subspace
    full_max = (1 << len(maximals)) - 1
    opens = set(traces)
    t1_ok = all(full_max & ~(1 << k) in opens for k in range(len(maximals)))
    yield Check("max-subspace-T1", t1_ok)

    # the direct enumeration against Max(A) n D(alpha) over every witness pair:
    # alpha v beta the top and [alpha, beta] <= Rad(A)
    witnessed = {
        traces[i]
        for i, partners in enumerate(_coprime_pairs(lattice))
        if any(leq[table[i][j]][rad] for j in _members(partners))
    }
    clopens = clopen_index(lattice)
    yield Check("clopen-witness-completeness", witnessed == clopens, f"{len(clopens)} clopens")
    # clopens_of_max raises on a clopen without a witness, which the check
    # above has just reported
    witness_ok = True
    for w in clopens_of_max(alg) if clopens <= witnessed else ():
        a, b = lattice.index(w.alpha), lattice.index(w.beta)
        if lattice.join_index(a, b) != lattice.top_index:
            witness_ok = False
        if not leq[table[a][b]][rad]:
            witness_ok = False
        # the trace read off the order, not off the stored traces
        if [not leq[a][m] for m in maximals] != [k in w.members for k in range(len(maximals))]:
            witness_ok = False
    yield Check("clopen-witness-conditions", witness_ok)


def _suite_reticulation(alg):
    lattice = con_lattice(alg)
    _, rl, lam = reticulation_index(lattice)
    size = len(lattice)
    leq, join, meet = lattice.leq, lattice.join_table, lattice.meet_table
    rho = radical_table(lattice)
    table = commutator_table(lattice)

    # the eight quotient-map clauses
    ok = True
    nil = spectrum_index(lattice, False)[3]
    semiprime = nil == lattice.bottom_index
    for a in range(size):
        if (lam[a] == rl.top_index) != (a == lattice.top_index):
            ok = False
        chain = _iterate_chain(lattice, a)
        # some iterate (n >= 1) is the bottom congruence iff the stable value
        # is; a length-1 chain is its own square
        reaches_bottom = chain[-1] == lattice.bottom_index
        if (lam[a] == rl.bottom_index) != reaches_bottom:
            ok = False
        if (lam[a] == rl.bottom_index) != leq[a][nil]:
            ok = False
        if semiprime and (lam[a] == rl.bottom_index) != (a == lattice.bottom_index):
            ok = False
        for value in chain[1:] or chain:
            if lam[value] != lam[a]:
                ok = False
        # the clauses in b, one row of b at a time
        la = lam[a]
        if [lam[j] for j in join[a]] != [rl.join_table[la][lb] for lb in lam]:
            ok = False
        rl_meet = [rl.meet_table[la][lb] for lb in lam]
        if not ([lam[m] for m in meet[a]] == [lam[c] for c in table[a]] == rl_meet):
            ok = False
        le = [rl.leq[la][lb] for lb in lam]
        if le != [leq[rho[a]][rb] for rb in rho] or le != list(leq[chain[-1]]):
            ok = False
    yield Check("lambda-clause-suite", ok)

    # theta* is the ideal (lambda(theta)], so its join and meet rows are
    # the lambda rows above; here it is compared with its definition
    # {lambda(alpha) : alpha <= theta} and with rho(theta)*
    star_ok = all(
        _bitset(lam[j] for j in _members(down_a)) == rl.down_sets[lam[a]]
        and lam[a] == lam[rho[a]]
        for a, down_a in enumerate(lattice.down_sets)
    )
    yield Check("star-identity-suite", star_ok)

    down = costar_table(lattice)  # (g]_*, by g
    costar_ok = [down[g] for g in lam] == list(rho)
    for g, d in enumerate(down):
        if rho[d] != d or lam[d] != g:
            costar_ok = False
        if [row[d] for row in leq] != [rl.leq[h][g] for h in lam]:
            costar_ok = False
    yield Check("costar-identity-suite", costar_ok)

    homeo = check_spec_homeomorphism(alg)
    yield Check(
        "spec-homeomorphism",
        homeo.ok,
        "; ".join(homeo.failures[:2]) or f"{homeo.prime_count} primes",
    )

    yield Check(
        "prime-counts-match",
        homeo.ideal_prime_count == homeo.prime_count,
        f"{homeo.ideal_prime_count} prime ideals",
    )


def _suite_boolean_center(alg):
    lattice = con_lattice(alg)
    _, rl, lam = reticulation_index(lattice)
    members = center_index(lattice, lattice.bottom_index)[0]
    size = len(lattice)
    member = set(members)

    # the complement of chi in [theta, nabla] is unique, and it is chi -> theta
    several = lattice.interval_complements[1]
    unique_ok = all(
        (i, t) not in several and residuation_index(lattice, i, t) == c
        for t in range(size)
        for i, c in center_index(lattice, t)[1].items()
    )
    yield Check("center-complement-unique", unique_ok)

    join, meet, table = lattice.join_table, lattice.meet_table, commutator_table(lattice)
    meet_ok = all([row[a] for row in table] == [row[a] for row in meet] for a in members)
    yield Check("center-meet-is-commutator", meet_ok)

    # (t ^ u) v a = (t v a) ^ (u v a) for all t, u holds for a v b when it
    # holds for a and for b: (t ^ u) v a v b = ((t v a) ^ (u v a)) v b =
    # (t v a v b) ^ (u v a v b).  So the members that are not the join of two
    # smaller members, the bottom among them, decide it for all of B.
    distributive_ok = True
    for a in _join_generators(lattice, members):
        join_a = [row[a] for row in join]  # t v a, for every t
        # one row of u per t; the right row depends on t only through t v a
        right: dict[int, list[int]] = {}
        for t in range(size):
            v = join_a[t]
            if v not in right:
                right[v] = list(map(meet[v].__getitem__, join_a))
            if list(map(join_a.__getitem__, meet[t])) != right[v]:
                distributive_ok = False
    yield Check("center-join-distributes", distributive_ok)

    lemma41_ok = True
    bottom = lattice.bottom_index
    for i, partners in enumerate(_coprime_pairs(lattice)):
        chain_i = _iterate_chain(lattice, i)
        for j in _members(partners):
            if table[i][j] == bottom:
                if i not in member or j not in member:
                    lemma41_ok = False
            chain_j = _iterate_chain(lattice, j)
            bound = max(len(chain_i), len(chain_j))
            for n in range(1, bound + 1):
                a = chain_i[min(n, len(chain_i) - 1)]
                b = chain_j[min(n, len(chain_j) - 1)]
                if table[a][b] == bottom:
                    if a not in member or b not in member:
                        lemma41_ok = False
    yield Check("coprime-pairs-enter-center", lemma41_ok)

    closure_ok = True
    for a in members:
        for b in members:
            if join[a][b] not in member or meet[a][b] not in member:
                closure_ok = False
    yield Check("center-closed-under-join-meet", closure_ok)

    # membership and injectivity only: that lambda preserves the joins and
    # meets of B is lambda-clause-suite's clause restricted to B
    lam_center = set(rl.center)
    images = {lam[a] for a in members}
    yield Check(
        "lambda-boolean-embedding", images <= lam_center and len(images) == len(members)
    )

    report = preserves_boolean_center(alg)
    # surjectivity of lambda restricted to the center == preservation
    surjective = lam_center <= images
    yield Check(
        "center-preservation-equivalences",
        surjective == report.preserves,
        f"preserves={report.preserves}",
    )
    if report.sufficient_conditions_hold:
        yield Check("sufficient-conditions-imply-preservation", report.preserves)

    # clopen correspondence on Spec(A): D(theta) for every theta
    full = (1 << len(spectrum_index(lattice, False)[0])) - 1
    opens = open_table(lattice)[0]
    spec_opens = set(opens)
    spec_clopens = {u for u in spec_opens if full & ~u in spec_opens}
    d_images = {opens[a] for a in members}
    d_injective = len(d_images) == len(members)
    d_iso = d_injective and d_images == spec_clopens
    yield Check(
        "center-clopen-isomorphism-iff-preservation",
        d_iso == report.preserves and all(u in spec_clopens for u in d_images),
        f"|B|={len(members)}, |Clop(Spec)|={len(spec_clopens)}",
    )


def _join_generators(lattice: FiniteLattice, members) -> list[int]:
    """The members that are not the join of two members strictly below
    them.  Two such members may be taken maximal below a: raising either
    one keeps their join between the old join and a."""
    down, join = lattice.down_sets, lattice.join_table
    inside = _bitset(members)
    generators = []
    for a in members:
        below = down[a] & inside & ~(1 << a)
        covered = 0
        for b in _members(below):
            covered |= down[b] & ~(1 << b)
        if all(join[b][c] != a for b, c in combinations(_members(below & ~covered), 2)):
            generators.append(a)
    return generators


def _suite_lifting(alg):
    lattice = con_lattice(alg)
    _, rl, lam = reticulation_index(lattice)
    size = len(lattice)
    leq, join, meet = lattice.leq, lattice.join_table, lattice.meet_table
    table = commutator_table(lattice)

    # the per-theta lists that the checks read, each computed once
    results = [cblp_index(lattice, t) for t in range(size)]
    verdicts = [cblp for cblp, _, _ in results]
    rho = radical_table(lattice)
    regular = [diamond_index(lattice, c) == c for c in range(size)]
    trivial_center = [len(center_index(lattice, c)[0]) <= 2 for c in range(size)]
    id_lifts = [has_id_blp(rl, ideal).lifts for ideal in all_ideals(rl)]  # of (g], by g

    # one pass over theta for the first two checks.  Every verdict carries
    # its certificate: the witnesses lift the members of B([theta, nabla])
    # in order, each by a complemented congruence projecting onto it, and a
    # false verdict's unliftable member comes next and is the image of no
    # complemented congruence.  Through the projection, the morphism check
    # finds B([theta, nabla]) to be the center of Con(A/theta), whose
    # algebra passes the surrogates; the images of the bottom and the atoms
    # of B(A) to be the congruences their projected pairs generate, and
    # every other cell the join of two smaller ones, as generation
    # preserves joins; and the center map a Boolean morphism.
    members, complement, atoms = center_index(lattice, lattice.bottom_index)
    position = {a: i for i, a in enumerate(members)}  # a's cell in each row
    # the cells of alpha ^ e' and e, for e the first atom of B(A) below
    # alpha, where these two smaller members join to alpha
    splits = []
    for a in members:
        e = next((e for e in atoms if leq[e][a] and e != a), None)
        rest = None if e is None else meet[a][complement[e]]
        split = rest not in (None, a) and rest in position and join[rest][e] == a
        splits.append((position[rest], position[e]) if split else None)
    certified_ok = True
    morphism_ok = True
    for t in range(size):
        qmembers, qcomplement, qatoms = center_index(lattice, t)
        row = center_map_index(lattice, t)
        cblp, witnesses, unliftable = results[t]
        listed = tuple(k for k, _ in witnesses) + (() if cblp else (unliftable,))
        if (
            not all(a in position and row[position[a]] == k for k, a in witnesses)
            or qmembers[: len(listed)] != listed
            or (cblp and (len(listed) < len(qmembers) or unliftable is not None))
            or unliftable in row
        ):
            certified_ok = False

        p = projection(lattice, t)
        qlattice, down = p.lattice, p.down
        qrow = [down[x] for x in row]
        direct = center_index(qlattice, qlattice.bottom_index)
        mapped = (
            tuple(down[k] for k in qmembers),
            {down[k]: down[c] for k, c in qcomplement.items()},
            tuple(down[k] for k in qatoms),
        )
        if (
            not surrogate_checks(p.quotient).ok
            or mapped != direct
            or not set(direct[0]).issuperset(qrow)
        ):
            morphism_ok = False
            continue
        theta = lattice.congruences[t].blocks
        element = {r: k for k, r in enumerate(sorted(set(theta)))}  # of A/theta
        m, principals = p.quotient.size, qlattice.principals
        qjoin, qmeet = qlattice.join_table, qlattice.meet_table
        for a, x, split in zip(members, qrow, splits):
            if split is None:
                pairs = zip(theta, lattice.congruences[a].blocks)
                expected = qlattice.join_many(
                    {principals[element[u] * m + element[theta[v]]] for u, v in pairs}
                )
            else:
                expected = qjoin[qrow[split[0]]][qrow[split[1]]]
            nx = qrow[position[complement[a]]]
            if (
                x != expected
                or qjoin[x][nx] != qlattice.top_index
                or qmeet[x][nx] != qlattice.bottom_index
            ):
                morphism_ok = False
        if len(members) <= 16:
            for a, x in zip(members, qrow):
                for b, y in zip(members, qrow):
                    if qrow[position[join[a][b]]] != qjoin[x][y]:
                        morphism_ok = False
                    if qrow[position[meet[a][b]]] != qmeet[x][y]:
                        morphism_ok = False
    yield Check("cblp-decided-everywhere", certified_ok, f"{sum(verdicts)}/{size} lift")
    yield Check("projection-center-morphism", morphism_ok)

    yield Check("radical-invariance", all(verdicts[t] == verdicts[rho[t]] for t in range(size)))
    yield Check("star-transfer", all(verdicts[t] == id_lifts[lam[t]] for t in range(size)))
    down = costar_table(lattice)  # (g]_*, by g
    ideal_ok = all(lifts == verdicts[down[g]] for g, lifts in enumerate(id_lifts))
    yield Check("ideal-transfer", ideal_ok)

    same_radical_ok = all(
        verdicts[i] == verdicts[j]
        for i in range(size)
        for j in range(size)
        if rho[i] == rho[j]
    )
    yield Check("equal-radicals-equal-verdicts", same_radical_ok)

    _, _, rad, nil = spectrum_index(lattice, False)
    below_nil_ok = all(verdicts[i] for i in range(size) if leq[i][nil])
    yield Check("below-nilradical-lifts", below_nil_ok)

    res_ok = True
    rem_ok = True
    for t in range(size):
        p = projection(lattice, t)
        for e, k in enumerate(p.down):
            if k is None:
                continue
            arrow = residuation_index(lattice, e, t)
            if not leq[table[e][arrow]][t]:
                rem_ok = False
            if annihilator_index(p.lattice, k) != p.down[join[arrow][t]]:
                res_ok = False
    yield Check("quotient-annihilator-identity", res_ok)
    yield Check("residuum-commutator-below-theta", rem_ok)

    # the same maximals above i and j: the same trace Max(A) n D
    traces = open_table(lattice)[1]
    transfer_ok = all(
        verdicts[i] or not verdicts[j]
        for i in range(size)
        for j in range(size)
        if leq[i][j] and traces[i] == traces[j]
    )
    yield Check("max-interval-transfer", transfer_ok)

    rad_transfer_ok = all(verdicts[i] for i in range(size) if leq[i][rad] and verdicts[rad])
    yield Check("below-rad-transfer", rad_transfer_ok)

    yield Check("rad-clopen-criterion", rad_cblp_criterion(alg))
    yield Check("hyperarchimedean-cblp", hyperarchimedean_cblp(alg))

    yield Check(
        "diamond-star-commute",
        all(diamond_star_commute_index(lattice, t) for t in range(size)),
    )

    thm63_ok = True
    exploratory = not preserves_boolean_center(alg).preserves
    for t in range(size):
        values = set(cblp_characterization_index(lattice, t))
        if not exploratory and len(values) != 1:
            thm63_ok = False
    yield Check("characterization-four-way", thm63_ok)

    lifting = [t for t in range(size) if verdicts[t]]
    regular_ok = all(verdicts[join[t][c]] for t in lifting for c in range(size) if regular[c])
    yield Check("regular-join-transfer", regular_ok)

    yield Check("regular-congruences-lift", all(verdicts[i] for i in range(size) if regular[i]))

    top = lattice.top_index
    noncoprime_ok = all(
        verdicts[meet[t][c]]
        for t in lifting
        for c in range(size)
        if join[t][c] != top and trivial_center[c]
    )
    yield Check("noncoprime-meet-transfer", noncoprime_ok)

    descent_ok = all(quotient_cblp_descent_index(lattice, i) for i in range(size) if leq[i][rad])
    yield Check("quotient-descent", descent_ok)

    b_normal = b_normal_index(lattice, lattice.bottom_index) is None
    yield Check("b-normal-iff-cblp", b_normal == all(verdicts), f"b_normal={b_normal}")


def _suite_orthogonal(alg):
    lattice = con_lattice(alg)
    rad = spectrum_index(lattice, False)[2]
    # (unique, lifts orthogonal, atoms to atoms, lemma) for each theta below
    # Rad(A); the atom verdict is None where theta lacks CBLP
    found = [orthogonal_index(lattice, t) for t in range(len(lattice)) if lattice.leq[t][rad]]
    yield Check("orthogonal-difference-lemma", all(lemma for *_, lemma in found))
    yield Check("orthogonal-lift-unique", all(unique for unique, *_ in found))
    yield Check("orthogonal-lift-orthogonal", all(ortho for _, ortho, *_ in found))
    yield Check("atom-families-lift-to-atoms", all(atoms is not False for *_, atoms, _ in found))


def _suite_ring_oracles(alg):
    if not _is_ring(alg):
        return
    n = alg.size
    lattice = con_lattice(alg)
    idempotents = ring_idempotents(n)
    members = center_index(lattice, lattice.bottom_index)[0]
    yield Check(
        "center-counts-idempotents",
        len(members) == len(idempotents),
        f"|B|={len(members)}, idempotents={len(idempotents)}",
    )
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    agree = all(
        cblp_index(lattice, lattice.index(ring_congruence(alg, d)))[0]
        == ring_idempotent_lifting(n, d)
        for d in divisors
    )
    yield Check("cblp-matches-idempotent-lifting", agree)


SUITES = [
    ("algebra", _suite_roundtrip),
    ("congruences", _suite_con_enumeration),
    ("commutator", _suite_commutator_axioms),
    ("radical", _suite_radicals),
    ("spectrum", _suite_spectrum),
    ("reticulation", _suite_reticulation),
    ("center", _suite_boolean_center),
    ("lifting", _suite_lifting),
    ("orthogonal", _suite_orthogonal),
    ("oracle", _suite_ring_oracles),
]

BASIC_SUITES = {"algebra", "congruences"}


def verify_algebra(alg: FiniteAlgebra) -> AlgebraReport:
    """Run every applicable suite on one algebra.

    Algebras failing the hypothesis surrogates run only the hypothesis-free
    suites and come back marked exploratory.
    """
    start = time.perf_counter()
    surrogate = surrogate_checks(alg)
    report = AlgebraReport(algebra=alg, exploratory=not surrogate.ok)
    for label, suite in SUITES:
        if report.exploratory and label not in BASIC_SUITES:
            continue
        for check in suite(alg):
            check.name = f"{label}.{check.name}"
            report.checks.append(check)
    if report.exploratory:
        report.checks.append(
            Check(
                "surrogate.hypotheses",
                True,
                "EXPLORATORY: " + "; ".join(surrogate.failures()),
            )
        )
    else:
        report.checks.append(
            Check("surrogate.hypotheses", True, "modularity and top checks pass")
        )
    report.elapsed = time.perf_counter() - start
    return report


def _product_congruence(prod, a_con, b_con, b_size):
    labels = [
        a_con.blocks[x // b_size] * b_size + b_con.blocks[x % b_size]
        for x in range(prod.size)
    ]
    return congruence_from_blocks(prod, labels)


def verify_corpus(algebras) -> list[AlgebraReport]:
    """Per-algebra reports plus a synthetic report of cross-algebra checks."""
    reports = [verify_algebra(alg) for alg in algebras]

    cross = AlgebraReport(
        algebra=FiniteAlgebra("corpus-cross-checks", 1, ()), exploratory=False
    )
    start = time.perf_counter()
    # the factorization of Con over direct products characterizes the
    # top-commutator hypothesis, so only surrogate-passing algebras qualify
    passing = [alg for alg in algebras if surrogate_checks(alg).ok]
    eligible = [
        (a, b)
        for a in passing
        for b in passing
        if a.signature() == b.signature() and a.size * b.size <= PAIR_SIZE_CAP
    ]
    hf_ok = True
    for a, b in eligible:
        prod = product(a, b)
        plat = con_lattice(prod)
        alat, blat = con_lattice(a), con_lattice(b)
        if len(plat) != len(alat) * len(blat):
            hf_ok = False
            continue
        mapped = {}
        for ca in alat.congruences:
            for cb in blat.congruences:
                mapped[(ca.blocks, cb.blocks)] = _product_congruence(
                    prod, ca, cb, b.size
                ).blocks
        if len(set(mapped.values())) != len(mapped):
            hf_ok = False
        if set(mapped.values()) != {c.blocks for c in plat.congruences}:
            hf_ok = False
        for (ka, kb), v in mapped.items():
            for (la, lb), w in mapped.items():
                left = Congruence(prod, v).leq(Congruence(prod, w))
                right = Congruence(a, ka).leq(Congruence(a, la)) and Congruence(
                    b, kb
                ).leq(Congruence(b, lb))
                if left != right:
                    hf_ok = False
    cross.checks.append(
        Check(
            "product.congruence-factorization",
            hf_ok,
            f"{len(eligible)} same-signature pairs",
        )
    )

    assoc_ok = True
    triples = [
        (a, b, c)
        for a in algebras
        for b in algebras
        for c in algebras
        if a.signature() == b.signature() == c.signature()
        and a.size * b.size * c.size <= PAIR_SIZE_CAP
    ]
    for a, b, c in triples:
        left = product(product(a, b), c)
        right = product(a, product(b, c))
        # canonical rebracketing bijection is the identity on flat indices
        if left.size != right.size or any(
            lop.table != rop.table for lop, rop in zip(left.operations, right.operations)
        ):
            assoc_ok = False
    cross.checks.append(
        Check("product.associativity", assoc_ok, f"{len(triples)} triples")
    )

    iso_ok = True
    z12 = ring_zn(12)
    if any(alg == z12 for alg in algebras):
        quo = quotient(z12, ring_congruence(z12, 6))
        iso_ok = iso_ok and find_isomorphism(quo, ring_zn(6)) is not None
        prod = product(ring_zn(4), ring_zn(3))
        iso_ok = iso_ok and find_isomorphism(prod, z12) is not None
    cross.checks.append(Check("product.known-isomorphisms", iso_ok))

    cross.elapsed = time.perf_counter() - start
    reports.append(cross)
    return reports

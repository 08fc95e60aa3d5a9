"""Seeded inputs for the three workloads, and the oracles that check them.

Every expected answer here comes from a closed form computed in this file
(partition meets, ring gcds, idempotent lifting in Z_n, the Birkhoff
representation of a finite distributive lattice) or from counts pinned at
the commit that introduced the benchmark.  The program under test only
builds the input algebras (``builders``) and serializes them.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

# Check counts of `congruence-lab verify --json` per corpus file, pinned at
# the commit that introduced this benchmark.
CORPUS_CHECKS = {
    "b_2": 69, "b_3": 66, "c_1": 69, "c_2": 69, "c_3": 69, "c_5": 65,
    "c_7": 65, "kite": 68, "l_2": 68, "l_3": 68, "l_4": 68, "m3": 68,
    "n5": 68, "pointed_pair": 7, "z_12": 68, "z_2": 71, "z_3": 71,
    "z_4": 71, "z_6": 70, "z_8": 68,
}
EXPLORATORY = {"pointed_pair"}

# Point queries per base algebra in each pass: about one query in five asks
# for a CBLP verdict, the rest for a commutator.
COMMUTATORS_PER_BASE = 8
CBLPS_PER_BASE = 2


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def canonical(labels) -> tuple[int, ...]:
    """A partition as a block array naming each block by its least element."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(label, x) for x, label in enumerate(labels))


def partition_meet(a, b) -> tuple[int, ...]:
    return canonical(list(zip(a, b)))


def idempotent_lifting(n: int, d: int) -> bool:
    """Every idempotent of Z_d is the image of an idempotent of Z_n."""
    images = {e % d for e in range(n) if e * e % n == e}
    return all(e in images for e in range(d) if e * e % d == e)


# ---------------------------------------------------------------------------
# verify workloads


def corpus_documents(root: Path, seed: int) -> list[dict]:
    paths = sorted((root / "corpus").glob("*.json"))
    random.Random(seed).shuffle(paths)
    return [
        {
            "path": str(p),
            "label": p.stem,
            "checks": CORPUS_CHECKS[p.stem],
            "exploratory": p.stem in EXPLORATORY,
            "con_size": None,
        }
        for p in paths
    ]


def ladder_documents(workdir: Path, seed: int) -> list[dict]:
    from congruence_lab.algebra import dump_algebra, product
    from congruence_lab.builders import boolean_lattice, ring_zn

    # |Con| closed forms: Con(B_k) is Boolean on the k atoms, and Z_n (and
    # Z_2 x Z_9, which is Z_18 by the CRT) has one congruence per divisor.
    ladder = [
        ("B_4", boolean_lattice(4), 2**4),
        ("Z_24", ring_zn(24), len(divisors(24))),
        ("Z_2xZ_9", product(ring_zn(2), ring_zn(9)), len(divisors(18))),
    ]
    random.Random(seed).shuffle(ladder)
    workdir.mkdir(parents=True, exist_ok=True)
    docs = []
    for label, alg, con_size in ladder:
        path = workdir / f"{label}.json"
        path.write_text(dump_algebra(alg), encoding="utf-8")
        docs.append(
            {
                "path": str(path),
                "label": label,
                "checks": None,
                "exploratory": False,
                "con_size": con_size,
            }
        )
    return docs


# ---------------------------------------------------------------------------
# point-query workload


def _lattice_congruences(doc: dict) -> list[tuple[int, ...]]:
    """Con(L) of a finite distributive lattice from its Birkhoff representation.

    Each congruence collapses a set S of join-irreducibles onto their unique
    lower covers: x and y are related iff the same join-irreducibles outside
    S lie below both.  This gives all 2^|J(L)| congruences.
    """
    n = doc["size"]
    meet = next(op["table"] for op in doc["operations"] if op["name"] == "meet")
    leq = [[meet[a * n + b] == a for b in range(n)] for a in range(n)]
    below = [[b for b in range(n) if b != a and leq[b][a]] for a in range(n)]
    covers = [
        [b for b in below[a] if not any(leq[b][c] for c in below[a] if c != b)]
        for a in range(n)
    ]
    irreducibles = [a for a in range(n) if len(covers[a]) == 1]
    out = []
    for mask in range(2 ** len(irreducibles)):
        kept = [p for k, p in enumerate(irreducibles) if not mask >> k & 1]
        out.append(canonical([tuple(leq[p][x] for p in kept) for x in range(n)]))
    return out


def _ring_bases():
    from congruence_lab.algebra import product, serialize_algebra
    from congruence_lab.builders import ring_zn

    bases = []
    for n in (8, 12, 16):
        bases.append((f"Z_{n}", serialize_algebra(ring_zn(n)), n, list(range(n))))
    # Z_2 x Z_9 stores (a, b) at a * 9 + b; x in Z_18 maps to (x mod 2, x mod 9).
    doc = serialize_algebra(product(ring_zn(2), ring_zn(9)))
    crt = [(x % 2) * 9 + x % 9 for x in range(18)]
    _check_ring_isomorphism(doc, 18, crt)
    bases.append(("Z_2xZ_9", doc, 18, crt))
    return bases


def _check_ring_isomorphism(doc: dict, n: int, phi: list[int]) -> None:
    tables = {op["name"]: op["table"] for op in doc["operations"]}
    size = doc["size"]
    for x in range(n):
        for y in range(n):
            if tables["add"][phi[x] * size + phi[y]] != phi[(x + y) % n]:
                raise RuntimeError(f"{doc['name']}: CRT map does not preserve add")
            if tables["mul"][phi[x] * size + phi[y]] != phi[(x * y) % n]:
                raise RuntimeError(f"{doc['name']}: CRT map does not preserve mul")


def _bases() -> list[dict]:
    """Each base with its congruences and closed-form commutator and CBLP."""
    from congruence_lab.algebra import serialize_algebra
    from congruence_lab.builders import boolean_lattice, chain_lattice, kite

    out = []
    for label, alg in (
        ("C_7", chain_lattice(7)),
        ("C_5", chain_lattice(5)),
        ("B_3", boolean_lattice(3)),
        ("kite", kite()),
    ):
        doc = serialize_algebra(alg)
        # Con of a distributive lattice is Boolean, so [a, b] = a ^ b and
        # every congruence has CBLP.
        out.append(
            {
                "label": label,
                "doc": doc,
                "congruences": _lattice_congruences(doc),
                "commutator": partition_meet,
                "cblp": lambda theta: True,
            }
        )
    for label, doc, n, phi in _ring_bases():
        # theta_d relates x and y iff x = y mod d, read through phi.
        inverse = {e: x for x, e in enumerate(phi)}
        thetas = {canonical([inverse[e] % d for e in range(n)]): d for d in divisors(n)}
        by_d = {d: theta for theta, d in thetas.items()}
        out.append(
            {
                "label": label,
                "doc": doc,
                "congruences": list(thetas),
                "commutator": lambda a, b, n=n, t=thetas, by_d=by_d: by_d[
                    gcd(t[a] * t[b], n)
                ],
                "cblp": lambda theta, n=n, t=thetas: idempotent_lifting(n, t[theta]),
            }
        )
    return out


def _relabel(doc: dict, pi: list[int]) -> dict:
    """The isomorphic copy of ``doc`` in which element x is called pi[x]."""
    n = doc["size"]
    ops = []
    for op in doc["operations"]:
        table = op["table"]
        arity = op["arity"]
        new = [0] * len(table)
        for index, value in enumerate(table):
            args, rest = [], index
            for _ in range(arity):
                rest, arg = divmod(rest, n)
                args.append(pi[arg])
            position = 0
            for arg in reversed(args):
                position = position * n + arg
            new[position] = pi[value]
        ops.append({"name": op["name"], "arity": arity, "table": new})
    return {"name": doc["name"], "size": n, "operations": ops}


def _move(blocks, pi: list[int]) -> list[int]:
    """A block array carried to the relabelled copy: pi[x] gets x's label."""
    moved = [0] * len(pi)
    for x, label in enumerate(blocks):
        moved[pi[x]] = pi[label]
    return moved


def _arguments(base: dict, kind: str, count: int) -> list:
    """``count`` arguments dealt from repeated decks of all unordered pairs
    (or all congruences) of the base.

    The decks are shuffled by a generator fixed per base and kind, so every
    seed asks the same multiset of queries and the latency mix does not
    depend on the seed.
    """
    design = random.Random(f"{base['label']}:{kind}")
    cons = base["congruences"]
    if kind == "commutator":
        items = [(a, b) for i, a in enumerate(cons) for b in cons[i:]]
    else:
        items = list(cons)
    out: list = []
    while len(out) < count:
        deck = list(items)
        design.shuffle(deck)
        out.extend(deck)
    return out[:count]


def point_queries(seed: int, passes: int) -> list[list[dict]]:
    """``passes`` lists of cold queries, each on a new relabelled algebra.

    Every pass asks the same number of each query kind on each base.  The
    seed picks which pass asks which arguments, each query's relabelling,
    the argument order and the query order.
    """
    rng = random.Random(seed)
    per_pass = {"commutator": COMMUTATORS_PER_BASE, "cblp": CBLPS_PER_BASE}
    seen: set[str] = set()
    out: list[list[dict]] = [[] for _ in range(passes)]
    for base in _bases():
        doc = base["doc"]
        n = doc["size"]
        for kind, count in per_pass.items():
            arguments = _arguments(base, kind, count * passes)
            rng.shuffle(arguments)
            for k, argument in enumerate(arguments):
                while True:
                    pi = list(range(n))
                    rng.shuffle(pi)
                    copy = _relabel(doc, pi)
                    key = json.dumps(copy["operations"])
                    if key not in seen:
                        seen.add(key)
                        break
                query = {"base": base["label"], "kind": kind, "doc": copy, "pi": pi}
                if kind == "commutator":
                    a, b = argument if rng.random() < 0.5 else argument[::-1]
                    query.update(
                        alpha=_move(a, pi), beta=_move(b, pi),
                        expected=list(base["commutator"](a, b)),
                    )
                else:
                    query.update(theta=_move(argument, pi), expected=base["cblp"](argument))
                out[k % passes].append(query)
    for queries in out:
        rng.shuffle(queries)
    return out


def check_answer(query: dict, answer) -> bool:
    """Map a commutator answer back through the relabelling and compare."""
    if query["kind"] == "cblp":
        return answer is query["expected"]
    if not isinstance(answer, list) or len(answer) != len(query["pi"]):
        return False
    pi = query["pi"]
    return canonical([answer[pi[x]] for x in range(len(pi))]) == tuple(query["expected"])

"""Finite algebras given by full operation tables.

The universe of an algebra of size ``n`` is always ``0..n-1``.  Operation
tables are flat tuples in row-major order with the last argument varying
fastest, so a binary table has ``f(a, b) == table[a * n + b]``.  Arity 0 is
allowed and encodes a constant as a length-1 table.

Values are immutable after construction and hash/compare structurally on
``(size, operations)``; the display name is a label only.  That way two
independently built copies of the same table set (for example a quotient of
``Z_16`` and the ring ``Z_8``) share every cached analysis downstream.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from itertools import product as iproduct

from .errors import (
    EntryRange,
    MalformedDoc,
    NotACongruence,
    SignatureMismatch,
    TableShape,
)

__all__ = [
    "Operation",
    "FiniteAlgebra",
    "parse_algebra",
    "serialize_algebra",
    "load_algebra",
    "dump_algebra",
    "quotient",
    "product",
    "find_isomorphism",
    "is_isomorphic",
]


class Operation:
    __slots__ = ("name", "arity", "table")

    def __init__(self, name, arity, table):
        self.name = name
        self.arity = arity
        self.table = table

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.arity, self.table) == (other.name, other.arity, other.table)

    def __hash__(self):
        return hash((self.name, self.arity, self.table))

    def apply(self, size: int, args: Sequence[int]) -> int:
        index = 0
        for a in args:
            index = index * size + a
        return self.table[index]


class FiniteAlgebra:
    """A finite universe 0..size-1 with named finitary operations."""

    __slots__ = ("name", "size", "operations", "_hash")

    def __init__(self, name, size, operations):
        self.name = name
        self.size = size
        self.operations = operations
        _validate(self)
        # the tables are immutable, so the structural hash is computed once;
        # lru_caches keyed on the algebra would otherwise rehash every table
        self._hash = hash((size, operations))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.size, self.operations) == (other.size, other.operations)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: rebuild rather than copy _hash
        return (FiniteAlgebra, (self.name, self.size, self.operations))

    def operation(self, name: str) -> Operation:
        for op in self.operations:
            if op.name == name:
                return op
        raise KeyError(name)

    def apply(self, name: str, *args: int) -> int:
        return self.operation(name).apply(self.size, args)

    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((op.name, op.arity) for op in self.operations)

    def rename(self, name: str) -> "FiniteAlgebra":
        return FiniteAlgebra(name, self.size, self.operations)

    def __repr__(self):
        sig = ", ".join(f"{op.name}/{op.arity}" for op in self.operations)
        return f"FiniteAlgebra({self.name!r}, size={self.size}, ops=[{sig}])"


def _validate(alg: FiniteAlgebra) -> None:
    if type(alg.size) is not int or alg.size < 1:
        raise MalformedDoc(f"algebra size must be a positive integer, got {alg.size!r}")
    seen = set()
    for op in alg.operations:
        if not isinstance(op.name, str) or not op.name:
            raise MalformedDoc(f"operation name must be a nonempty string, got {op.name!r}")
        if op.name in seen:
            raise MalformedDoc(f"duplicate operation name {op.name!r}")
        seen.add(op.name)
        if type(op.arity) is not int or op.arity < 0:
            raise MalformedDoc(f"operation {op.name!r} has invalid arity {op.arity!r}")
        expected = alg.size**op.arity
        if len(op.table) != expected:
            raise TableShape(
                f"operation {op.name!r}: table has {len(op.table)} entries, "
                f"expected {alg.size}**{op.arity} = {expected}"
            )
        for value in op.table:
            if type(value) is not int or not 0 <= value < alg.size:
                raise EntryRange(
                    f"operation {op.name!r}: entry {value!r} outside 0..{alg.size - 1}"
                )


def parse_algebra(doc: dict) -> FiniteAlgebra:
    """Validate an algebra document and return the algebra it describes.

    The document format is a JSON object
    ``{"name": str, "size": int, "operations": [{"name", "arity", "table"}]}``
    with tables in row-major order, last argument varying fastest.
    """
    if not isinstance(doc, dict):
        raise MalformedDoc(f"expected a JSON object, got {type(doc).__name__}")
    extra = set(doc) - {"name", "size", "operations"}
    if extra:
        raise MalformedDoc(f"unknown keys in algebra document: {sorted(extra)}")
    try:
        name = doc["name"]
        size = doc["size"]
        ops_doc = doc["operations"]
    except KeyError as exc:
        raise MalformedDoc(f"missing key {exc.args[0]!r} in algebra document") from None
    if not isinstance(name, str):
        raise MalformedDoc("algebra name must be a string")
    if not isinstance(ops_doc, list):
        raise MalformedDoc("'operations' must be a list")
    operations = []
    for entry in ops_doc:
        if not isinstance(entry, dict) or set(entry) != {"name", "arity", "table"}:
            raise MalformedDoc(f"bad operation entry: {entry!r}")
        table = entry["table"]
        if not isinstance(table, list) or not all(type(v) is int for v in table):
            raise MalformedDoc(f"operation {entry['name']!r}: table must be a list of ints")
        operations.append(Operation(entry["name"], entry["arity"], tuple(table)))
    return FiniteAlgebra(name, size, tuple(operations))


def serialize_algebra(alg: FiniteAlgebra) -> dict:
    """Inverse of :func:`parse_algebra`; round-trips losslessly."""
    return {
        "name": alg.name,
        "size": alg.size,
        "operations": [
            {"name": op.name, "arity": op.arity, "table": list(op.table)}
            for op in alg.operations
        ],
    }


def load_algebra(text: str) -> FiniteAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDoc(f"invalid JSON: {exc}") from None
    return parse_algebra(doc)


def dump_algebra(alg: FiniteAlgebra) -> str:
    return json.dumps(serialize_algebra(alg), indent=2)


def quotient(alg: FiniteAlgebra, theta) -> FiniteAlgebra:
    """Quotient algebra with universe the theta-blocks, indexed by least reps.

    Raises :class:`NotACongruence` when theta is not compatible with every
    operation of ``alg``.
    """
    from .congruences import is_congruence  # local import to avoid a cycle

    if not is_congruence(alg, theta.blocks):
        raise NotACongruence(f"{list(theta.blocks)} is not a congruence of {alg.name}")
    reps = sorted(set(theta.blocks))
    rep_index = {r: i for i, r in enumerate(reps)}
    k = len(reps)
    operations = []
    for op in alg.operations:
        table = []
        for args in iproduct(range(k), repeat=op.arity):
            value = op.apply(alg.size, tuple(reps[a] for a in args))
            table.append(rep_index[theta.blocks[value]])
        operations.append(Operation(op.name, op.arity, tuple(table)))
    return FiniteAlgebra(f"{alg.name}/{list(theta.blocks)}", k, tuple(operations))


def product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Direct product with pairs (x, y) flattened to x * |b| + y."""
    if a.signature() != b.signature():
        raise SignatureMismatch(
            f"signatures differ: {a.signature()} vs {b.signature()}"
        )
    size = a.size * b.size
    operations = []
    for op_a, op_b in zip(a.operations, b.operations):
        arity = op_a.arity
        table = []
        for args in iproduct(range(size), repeat=arity):
            xs = tuple(arg // b.size for arg in args)
            ys = tuple(arg % b.size for arg in args)
            table.append(op_a.apply(a.size, xs) * b.size + op_b.apply(b.size, ys))
        operations.append(Operation(op_a.name, arity, tuple(table)))
    return FiniteAlgebra(f"{a.name}x{b.name}", size, tuple(operations))


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra) -> list[int] | None:
    """Brute-force backtracking search for an isomorphism a -> b.

    Returns the image list (phi[x] in b for x in a) or None.  Intended for
    the bundled corpus only (universe sizes up to ~16).
    """
    if a.size != b.size or a.signature() != b.signature():
        return None
    n = a.size
    phi = [-1] * n
    used = [False] * n

    pairs = list(zip(a.operations, b.operations))

    def consistent(x: int) -> bool:
        # check every table entry all of whose arguments are now assigned
        # and that mentions x in some argument slot
        for op_a, op_b in pairs:
            if op_a.arity == 0:
                va, vb = op_a.table[0], op_b.table[0]
                if phi[va] != -1 and phi[va] != vb:
                    return False
                continue
            assigned = [y for y in range(n) if phi[y] != -1]
            for args in iproduct(assigned, repeat=op_a.arity):
                if x not in args:
                    continue
                va = op_a.apply(n, args)
                vb = op_b.apply(n, tuple(phi[y] for y in args))
                if phi[va] != -1 and phi[va] != vb:
                    return False
                if phi[va] == -1 and used[vb]:
                    # vb is taken by some other element, but va must map there
                    owner = phi.index(vb)
                    if owner != va:
                        return False
        return True

    # constants force their images
    for op_a, op_b in pairs:
        if op_a.arity == 0:
            va, vb = op_a.table[0], op_b.table[0]
            if phi[va] == -1 and not used[vb]:
                phi[va] = vb
                used[vb] = True
            elif phi[va] != vb:
                return None

    order = sorted(range(n), key=lambda x: phi[x] == -1)

    def extend_ordered(k: int) -> bool:
        if k == n:
            return all(
                op_b.table[_image_index(args, phi, n)] == phi[op_a.apply(n, args)]
                for op_a, op_b in pairs
                for args in iproduct(range(n), repeat=op_a.arity)
            )
        x = order[k]
        if phi[x] != -1:
            return extend_ordered(k + 1)
        for y in range(n):
            if used[y]:
                continue
            phi[x] = y
            used[y] = True
            if consistent(x) and extend_ordered(k + 1):
                return True
            phi[x] = -1
            used[y] = False
        return False

    if extend_ordered(0):
        return list(phi)
    return None


def _image_index(args: Iterable[int], phi: list[int], n: int) -> int:
    index = 0
    for a in args:
        index = index * n + phi[a]
    return index


def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    return find_isomorphism(a, b) is not None

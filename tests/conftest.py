import inspect
from itertools import count

import pytest

from congruence_lab import con_lattice, congruence_from_blocks
from congruence_lab.algebra import FiniteAlgebra, Operation
from congruence_lab.builders import ring_zn


def theta(alg, d):
    """The mod-d congruence of ring_zn(n)."""
    return congruence_from_blocks(alg, [x % d for x in range(alg.size)])


@pytest.fixture(scope="session")
def z6():
    return ring_zn(6)


@pytest.fixture(scope="session")
def z12():
    return ring_zn(12)


@pytest.fixture(scope="session")
def z4():
    return ring_zn(4)


def congruences_of(alg):
    return con_lattice(alg).congruences


_fresh_tags = count()


def fresh_copy(alg):
    """A structurally new copy of alg (operations renamed), so nothing stored
    for alg or for an earlier copy is reused by it."""
    tag = next(_fresh_tags)
    return FiniteAlgebra(
        alg.name,
        alg.size,
        tuple(Operation(f"{op.name}~{tag}", op.arity, op.table) for op in alg.operations),
    )


def replace(obj, **changes):
    """A new instance of obj's class, built by its constructor from obj's
    fields with ``changes`` applied.  Like ``dataclasses.replace``, the
    new instance recomputes its cached properties, and a Con(A) keeps
    obj's store of results unless ``_caches`` is among the changes; a
    plain lattice starts with an empty store."""
    fields = {name: getattr(obj, name) for name in inspect.signature(type(obj)).parameters}
    return type(obj)(**{**fields, **changes})


@pytest.fixture()
def set_cap():
    """``set_cap(var, value)`` sets a cap's context variable (``CON_CAP`` or
    ``MATRIX_CAP``) for the rest of the test; each is reset by its token,
    last first, after the test."""
    tokens = []
    yield lambda var, value: tokens.append((var, var.set(value)))
    for var, token in reversed(tokens):
        var.reset(token)

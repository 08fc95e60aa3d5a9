"""Algebra documents, quotients, products and the corpus builders."""

from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab import (
    EntryRange,
    MalformedDoc,
    NotACongruence,
    NotALattice,
    SignatureMismatch,
    TableShape,
    con_lattice,
    congruence_from_blocks,
    delta,
    dump_algebra,
    find_isomorphism,
    is_isomorphic,
    load_algebra,
    nabla,
    parse_algebra,
    product,
    quotient,
    serialize_algebra,
)
from congruence_lab.algebra import FiniteAlgebra, Operation
from congruence_lab.builders import (
    boolean_lattice,
    chain_lattice,
    diamond,
    kite,
    lattice_from_order,
    mv_chain,
    pentagon,
    ring_zn,
    standard_corpus,
)

from conftest import theta


TWO_ELEMENT_LATTICE_DOC = {
    "name": "2",
    "size": 2,
    "operations": [
        {"name": "join", "arity": 2, "table": [0, 1, 1, 1]},
        {"name": "meet", "arity": 2, "table": [0, 0, 0, 1]},
        {"name": "bot", "arity": 0, "table": [0]},
        {"name": "top", "arity": 0, "table": [1]},
    ],
}


def test_parse_two_element_lattice():
    alg = parse_algebra(TWO_ELEMENT_LATTICE_DOC)
    assert alg.size == 2
    assert alg == chain_lattice(2)


def test_parse_rejects_wrong_table_length():
    doc = {
        "name": "bad",
        "size": 2,
        "operations": [{"name": "f", "arity": 2, "table": [0, 1, 0]}],
    }
    with pytest.raises(TableShape):
        parse_algebra(doc)


def test_parse_rejects_out_of_range_entry():
    doc = {
        "name": "bad",
        "size": 2,
        "operations": [{"name": "f", "arity": 1, "table": [0, 2]}],
    }
    with pytest.raises(EntryRange):
        parse_algebra(doc)


def test_parse_rejects_boolean_table_entries():
    # JSON true/false decode to bool, a subclass of int
    text = (
        '{"name": "bad", "size": 2, "operations": '
        '[{"name": "f", "arity": 1, "table": [true, 0]}]}'
    )
    with pytest.raises(MalformedDoc):
        load_algebra(text)


def test_algebra_validation_rejects_boolean_entries():
    with pytest.raises(EntryRange):
        FiniteAlgebra("x", 2, (Operation("f", 1, (False, True)),))


def test_congruence_from_blocks_rejects_boolean_labels(z6):
    with pytest.raises(NotACongruence):
        congruence_from_blocks(z6, [False, True, False, True, False, True])


@pytest.mark.parametrize(
    "doc",
    [
        {"size": 2, "operations": []},
        {"name": "x", "operations": []},
        {"name": "x", "size": 2},
        {"name": "x", "size": 0, "operations": []},
        {"name": "x", "size": 2, "operations": [{"name": "f", "arity": 1}]},
        {
            "name": "x",
            "size": 2,
            "operations": [
                {"name": "f", "arity": 0, "table": [0]},
                {"name": "f", "arity": 0, "table": [1]},
            ],
        },
    ],
)
def test_parse_rejects_malformed_documents(doc):
    with pytest.raises(MalformedDoc):
        parse_algebra(doc)


def test_parse_z6_ring_and_axioms():
    # oracle: brute-force ring axiom check over the parsed tables
    alg = parse_algebra(serialize_algebra(ring_zn(6)))
    add, mul, neg = alg.operation("add"), alg.operation("mul"), alg.operation("neg")
    zero, one = alg.apply("zero"), alg.apply("one")
    n = alg.size
    for a in range(n):
        assert add.apply(n, (a, zero)) == a
        assert add.apply(n, (a, neg.apply(n, (a,)))) == zero
        assert mul.apply(n, (a, one)) == a
        for b in range(n):
            assert add.apply(n, (a, b)) == add.apply(n, (b, a))
            assert mul.apply(n, (a, b)) == mul.apply(n, (b, a))
            for c in range(n):
                assert add.apply(n, (add.apply(n, (a, b)), c)) == add.apply(
                    n, (a, add.apply(n, (b, c)))
                )
                assert mul.apply(n, (mul.apply(n, (a, b)), c)) == mul.apply(
                    n, (a, mul.apply(n, (b, c)))
                )
                assert mul.apply(n, (a, add.apply(n, (b, c)))) == add.apply(
                    n, (mul.apply(n, (a, b)), mul.apply(n, (a, c)))
                )


def test_roundtrip_corpus():
    for alg in standard_corpus():
        assert parse_algebra(serialize_algebra(alg)) == alg
        assert load_algebra(dump_algebra(alg)) == alg


@st.composite
def algebra_docs(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    ops = []
    for k in range(draw(st.integers(min_value=0, max_value=2))):
        arity = draw(st.integers(min_value=0, max_value=2))
        table = draw(
            st.lists(
                st.integers(min_value=0, max_value=size - 1),
                min_size=size**arity,
                max_size=size**arity,
            )
        )
        ops.append({"name": f"op{k}", "arity": arity, "table": table})
    return {"name": draw(st.text(max_size=8)), "size": size, "operations": ops}


@given(algebra_docs())
@settings(max_examples=60, deadline=None)
def test_roundtrip_generated(doc):
    assert serialize_algebra(parse_algebra(doc)) == doc


def test_quotient_of_z12_by_theta6_is_z6(z12):
    quo = quotient(z12, theta(z12, 6))
    assert quo.size == 6
    assert find_isomorphism(quo, ring_zn(6)) is not None


def test_quotient_by_delta_and_nabla(z6):
    assert is_isomorphic(quotient(z6, delta(z6)), z6)
    assert quotient(z6, nabla(z6)).size == 1


def test_quotient_rejects_noncongruence(z6):
    from congruence_lab.congruences import Congruence

    bogus = Congruence(z6, (0, 1, 0, 1, 1, 1))
    with pytest.raises(NotACongruence):
        quotient(z6, bogus)


def test_quotient_projection_is_homomorphism():
    for alg in [ring_zn(8), chain_lattice(4), mv_chain(3)]:
        for theta_ in con_lattice(alg).congruences:
            quo = quotient(alg, theta_)
            reps = sorted(set(theta_.blocks))
            block = {r: i for i, r in enumerate(reps)}
            proj = [block[theta_.blocks[x]] for x in range(alg.size)]
            assert quo.size == theta_.num_blocks()
            for op, qop in zip(alg.operations, quo.operations):
                for args in iproduct(range(alg.size), repeat=op.arity):
                    image = qop.apply(quo.size, tuple(proj[a] for a in args))
                    assert image == proj[op.apply(alg.size, args)]


def test_product_z4_z3_is_z12(z12):
    prod = product(ring_zn(4), ring_zn(3))
    assert prod.size == 12
    assert find_isomorphism(prod, z12) is not None


def test_non_isomorphic_rings_rejected(z4):
    klein = product(ring_zn(2), ring_zn(2))
    assert find_isomorphism(klein, z4) is None
    assert not is_isomorphic(z4, klein)


def test_product_with_one_element_is_unit():
    one = quotient(ring_zn(2), nabla(ring_zn(2)))
    assert is_isomorphic(product(ring_zn(5), one), ring_zn(5))


def test_product_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        product(ring_zn(2), chain_lattice(2))


def test_product_congruence_count():
    prod = product(ring_zn(2), ring_zn(2))
    assert len(con_lattice(prod)) == 4


def test_chain_lattice_congruence_count():
    assert len(con_lattice(chain_lattice(3))) == 4


def test_mv_chain_two_is_boolean_two():
    alg = mv_chain(2)
    assert alg.apply("oplus", 1, 1) == 1
    assert alg.apply("neg", 0) == 1
    assert len(con_lattice(alg)) == 2


def test_lattice_from_order_builds_n5():
    n5 = pentagon()
    assert n5.apply("join", 1, 3) == 4
    assert n5.apply("meet", 2, 3) == 0
    assert n5.apply("bot") == 0 and n5.apply("top") == 4


def test_lattice_from_order_rejects_non_lattices():
    with pytest.raises(NotALattice):
        lattice_from_order([(0, 2), (1, 2)])  # two minimal elements, no bottom
    with pytest.raises(NotALattice):
        lattice_from_order([(0, 1), (1, 0)])  # cycle
    with pytest.raises(NotALattice):
        # four-element "bowtie": 0,1 both below 2,3; no lub for 0,1
        lattice_from_order([(0, 2), (0, 3), (1, 2), (1, 3)])


def test_boolean_lattice_shape():
    b2 = boolean_lattice(2)
    assert b2.size == 4
    assert b2.apply("join", 1, 2) == 3
    assert b2.apply("meet", 1, 2) == 0


def test_named_non_examples_present():
    assert pentagon().size == 5
    assert diamond().size == 5
    assert kite().size == 5


def test_corpus_size_cap():
    assert all(alg.size <= 16 for alg in standard_corpus())
    assert len(standard_corpus()) >= 10


def test_structural_equality_ignores_name():
    a = ring_zn(6)
    b = a.rename("other")
    assert a == b and hash(a) == hash(b)


def test_operation_apply_row_major():
    op = Operation("f", 2, tuple(range(9)))
    assert op.apply(3, (1, 2)) == 5  # 1*3 + 2, last argument fastest


def test_algebra_validation_direct():
    with pytest.raises(TableShape):
        FiniteAlgebra("x", 2, (Operation("f", 1, (0,)),))

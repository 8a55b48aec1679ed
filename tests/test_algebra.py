"""Structure-constant algebras: constructors, validation, centers, products.

The multiplication tables built here are the ground truth everything else
rests on, so each constructor gets spot checks done by hand (matrix units,
quaternion table, truncated polynomial grading) plus a full associativity
and unity sweep via validate().
"""

import pytest

from ghderiv.ring import QQ, Zmod
from ghderiv.algebra import (
    AlgebraMismatch,
    NonFieldRing,
    StructureAlgebra,
    algebra_from_doc,
    algebra_to_doc,
    center_basis,
    from_spec,
    full_matrix,
    is_commutative,
    jordan_product,
    quaternions,
    ring_as_algebra,
    tensor_product,
    triangle_positions,
    truncated_poly,
    upper_triangular,
    validate,
)


# ---------------------------------------------------------------------------
# constructor oracles
# ---------------------------------------------------------------------------


def test_full_matrix_products_by_hand():
    m2 = full_matrix(2)
    e11, e12, e21, e22 = (m2.basis_element(k) for k in range(4))
    assert e11 * e12 == e12
    assert e12 * e21 == e11
    assert e21 * e12 == e22
    assert e12 * e11 == m2.zero()
    assert e12 * e12 == m2.zero()
    assert m2.one() == e11 + e22
    assert m2.labels == ("e11", "e12", "e21", "e22")


def test_upper_triangular_is_the_expected_subalgebra():
    t2 = upper_triangular(2)
    e11, e12, e22 = (t2.basis_element(k) for k in range(3))
    assert e11 * e12 == e12
    assert e12 * e22 == e12
    assert e12 * e11 == t2.zero()
    assert e22 * e12 == t2.zero()
    assert t2.one() == e11 + e22
    assert triangle_positions(2) == [(0, 0), (0, 1), (1, 1)]
    assert triangle_positions(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def test_quaternion_table_by_hand():
    q = quaternions()
    one, i, j, k = (q.basis_element(t) for t in range(4))
    assert i * i == -one
    assert j * j == -one
    assert k * k == -one
    assert i * j == k
    assert j * i == -k
    assert j * k == i
    assert k * i == j
    assert i * j * k == -one
    # Anticommuting imaginaries have vanishing Jordan products.
    assert jordan_product(i, j) == q.zero()
    assert jordan_product(i, i) == (-one).scale(2)


def test_ring_as_algebra_is_rank_one():
    a = ring_as_algebra(QQ)
    assert a.dim == 1
    assert a.one() * a.one() == a.one()
    z4 = ring_as_algebra(Zmod(4))
    two = z4.element([2])
    assert (two * two).is_zero()


def test_truncated_poly_grading():
    # Basis order: all of A at degree 0, then at degree 1, ...
    base = upper_triangular(2)
    p = truncated_poly(base, 2)
    assert p.dim == 9
    d = base.dim

    def at(t, i):
        return p.basis_element(t * d + i)

    # (e11 x) (e12 x) = e12 x^2, and anything above degree 2 dies.
    assert at(1, 0) * at(1, 1) == at(2, 1)
    assert (at(1, 1) * at(2, 2)).is_zero()
    assert at(0, 0) * at(2, 1) == at(2, 1)
    assert p.one() * at(2, 2) == at(2, 2)


def test_tensor_product_structure():
    t2 = upper_triangular(2)
    dual = truncated_poly(ring_as_algebra(QQ), 1)
    p = tensor_product(t2, dual)
    assert p.dim == t2.dim * dual.dim
    assert p.factors == (t2, dual)

    def at(i, j):
        return p.basis_element(i * dual.dim + j)

    # (e11 (x) 1)(e12 (x) x) = e12 (x) x
    assert at(0, 0) * at(1, 1) == at(1, 1)
    # (e12 (x) x)(e22 (x) x) = e12 (x) x^2 = 0 in the truncation
    assert (at(1, 1) * at(2, 1)).is_zero()
    assert p.one() == at(0, 0) + at(2, 0)


def test_tensor_product_needs_q():
    z5 = ring_as_algebra(Zmod(5))
    with pytest.raises(NonFieldRing):
        tensor_product(z5, z5)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "alg",
    [
        full_matrix(2),
        full_matrix(3),
        upper_triangular(2),
        upper_triangular(3),
        upper_triangular(4),
        quaternions(),
        ring_as_algebra(QQ),
        ring_as_algebra(Zmod(4)),
        truncated_poly(upper_triangular(2), 2),
        truncated_poly(quaternions(), 1),
        tensor_product(upper_triangular(2), truncated_poly(ring_as_algebra(QQ), 1)),
        full_matrix(2, Zmod(5)),
    ],
    ids=lambda a: f"dim{a.dim}-{a.ring}",
)
def test_constructors_validate(alg):
    rep = validate(alg)
    assert rep.ok
    assert rep.assoc_failure is None
    assert rep.unity_failure is None


def test_validate_catches_tampering():
    t2 = upper_triangular(2)
    sc = [[[c for c in cell] for cell in row] for row in t2.sc]
    sc[0][1][2] = QQ.one()  # e11*e12 gains a spurious e22 component
    bad = StructureAlgebra(
        ring=t2.ring, dim=t2.dim, labels=t2.labels,
        sc=tuple(tuple(tuple(cell) for cell in row) for row in sc),
        unity=t2.unity,
    )
    rep = validate(bad)
    assert not rep.ok

    bad_unity = StructureAlgebra(
        ring=t2.ring, dim=t2.dim, labels=t2.labels, sc=t2.sc,
        unity=(QQ.one(), QQ.one(), QQ.one()),
    )
    rep2 = validate(bad_unity)
    assert not rep2.ok
    assert rep2.unity_failure is not None


# ---------------------------------------------------------------------------
# centers and commutativity
# ---------------------------------------------------------------------------


def test_centers_of_the_catalog_algebras():
    for alg in (upper_triangular(2), full_matrix(2), quaternions()):
        c = center_basis(alg)
        assert len(c) == 1
        assert c[0] == alg.one()

    # A commutative algebra is its own center.
    dual = truncated_poly(ring_as_algebra(QQ), 1)
    assert len(center_basis(dual)) == 2


def test_is_commutative():
    assert is_commutative(ring_as_algebra(QQ))
    assert is_commutative(truncated_poly(ring_as_algebra(QQ), 3))
    assert not is_commutative(upper_triangular(2))
    assert not is_commutative(full_matrix(2))
    assert not is_commutative(quaternions())


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def test_element_arithmetic():
    t2 = upper_triangular(2)
    a = t2.element([1, 2, 3])
    b = t2.element(["1/2", "0", "-3"])
    assert (a + b).coords == t2.element(["3/2", "2", "0"]).coords
    assert (a - a).is_zero()
    assert a.scale(2) == t2.element([2, 4, 6])
    assert (-b).coords == t2.element(["-1/2", "0", "3"]).coords
    # Product by distributivity: only e11e11, e12e22, e22e22 survive.
    assert a * b == t2.element(["1/2", "-6", "-9"])


def test_cross_algebra_operations_rejected():
    t2, m2 = upper_triangular(2), full_matrix(2)
    with pytest.raises(AlgebraMismatch):
        t2.basis_element(0) * m2.basis_element(0)
    with pytest.raises(AlgebraMismatch):
        t2.basis_element(0) + m2.basis_element(0)


def test_structural_equality_of_separately_built_copies():
    assert upper_triangular(3) == upper_triangular(3)
    assert full_matrix(2) != full_matrix(2, Zmod(5))
    assert upper_triangular(2) != full_matrix(2)
    # Equal algebras hash equal, so they share one set or dict entry.
    assert len({from_spec("tn2"), from_spec("tn2")}) == 1
    assert hash(tensor_product(ring_as_algebra(QQ), quaternions())) == hash(
        tensor_product(ring_as_algebra(QQ), quaternions()))


# ---------------------------------------------------------------------------
# serialization and spec strings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    ["tn2", "tn4", "mn3", "quat", "ring", "poly(ring,2)",
     "tensor(ring,ring)", "poly:tn2:1", "tensor:tn2:ring", "poly(quat,1)"],
)
def test_doc_round_trip(spec):
    a = from_spec(spec)
    b = algebra_from_doc(algebra_to_doc(a))
    assert a == b


def test_from_spec_ring_threading():
    a = from_spec("tn2", Zmod(5))
    assert a.ring == Zmod(5)
    assert from_spec("mn2").ring == QQ


def test_from_spec_rejects_garbage():
    for bad in ["tn", "tnx", "mn0", "poly(ring)", "tensor(ring)", "widget", ""]:
        with pytest.raises(ValueError):
            from_spec(bad)


def test_from_doc_strict_rejects_broken_table():
    doc = algebra_to_doc(upper_triangular(2))
    doc["sc"][0][1][2] = "1"  # corrupt one structure constant
    with pytest.raises(ValueError):
        algebra_from_doc(doc)
    # Non-strict loading defers the judgement to the caller.
    loose = algebra_from_doc(doc, strict=False)
    assert not validate(loose).ok

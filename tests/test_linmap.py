"""Linear maps, triples, the closed-form solution families, and transport.

The parametric families are frozen against matrices computed by hand, and
each family is cross-checked against its second construction route (right
multiplication by the matrix collecting the parameters).  Transport maps
(polynomial lift, tensor extension) are checked columnwise.
"""

import random

import pytest
from hypothesis import given, strategies as st

from ghderiv.ring import QQ, Zmod
from ghderiv.algebra import (
    AlgebraMismatch,
    full_matrix,
    quaternions,
    ring_as_algebra,
    triangle_positions,
    truncated_poly,
    upper_triangular,
)
from ghderiv.linmap import (
    BadParameterCount,
    LinMap,
    MapTriple,
    NotATensorAlgebra,
    left_mul_map,
    map_from_doc,
    map_to_doc,
    mn_jordan_family,
    poly_lift,
    quat_jordan_family,
    right_mul_map,
    tensor_coordinates,
    tensor_extend,
    tn_jordan_family,
    tn_left_family,
    triple_from_doc,
    triple_to_doc,
)


def test_construction_routes_agree():
    t2 = upper_triangular(2)
    rows = [[1, 2, 0], [0, 3, 0], [0, 0, 4]]
    cols = [[1, 0, 0], [2, 3, 0], [0, 0, 4]]
    assert LinMap.from_rows(t2, rows) == LinMap.from_columns(t2, cols)
    images = [t2.element(c) for c in cols]
    assert LinMap.from_images(t2, images) == LinMap.from_rows(t2, rows)


def test_apply_is_column_lookup_on_basis():
    m2 = full_matrix(2)
    f = LinMap.from_rows(m2, [[1, 2, 3, 4], [5, 6, 7, 8],
                              [9, 10, 11, 12], [13, 14, 15, 16]])
    for j in range(4):
        assert f(m2.basis_element(j)).coords == f.column(j)


def test_apply_linearity():
    t3 = upper_triangular(3)
    rng = random.Random(4)
    f = LinMap.from_rows(
        t3, [[rng.randint(-5, 5) for _ in range(6)] for _ in range(6)]
    )
    a = t3.element([rng.randint(-5, 5) for _ in range(6)])
    b = t3.element([rng.randint(-5, 5) for _ in range(6)])
    assert f(a + b) == f(a) + f(b)
    assert f(a.scale(7)) == f(a).scale(7)


def test_mul_maps():
    t2 = upper_triangular(2)
    e11 = t2.basis_element(0)
    r = right_mul_map(e11)
    l = left_mul_map(e11)
    for x in (t2.element([1, 2, 3]), t2.basis_element(1)):
        assert r(x) == x * e11
        assert l(x) == e11 * x
    assert right_mul_map(t2.one()) == LinMap.identity(t2)
    # On a commutative algebra the two sides coincide.
    dual = truncated_poly(ring_as_algebra(QQ), 1)
    x = dual.basis_element(1)
    assert right_mul_map(x) == left_mul_map(x)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_tn_jordan_family_frozen_matrices():
    t = tn_jordan_family(2, [1, 2, 3], [4, 5])
    t2 = t.alg
    assert t.g == LinMap.from_rows(t2, [[1, 0, 0], [2, 3, 0], [0, 0, 3]])
    assert t.h == LinMap.from_rows(t2, [[4, 0, 0], [5, 3, 0], [0, 0, 3]])
    assert t.f == LinMap.from_rows(t2, [[5, 0, 0], [7, 6, 0], [0, 0, 6]])


def test_tn_jordan_family_is_right_multiplication():
    # Both maps are right multiplications by the matrices collecting the
    # parameters; the family construction must agree with that route.
    rng = random.Random(11)
    for n in (2, 3, 4):
        npos = len(triangle_positions(n))
        gp = [rng.randint(-9, 9) for _ in range(npos)]
        hp = [rng.randint(-9, 9) for _ in range(npos, npos + n)]
        t = tn_jordan_family(n, gp, hp[:n])
        one = t.alg.one()
        assert t.g == right_mul_map(t.g(one))
        assert t.h == right_mul_map(t.h(one))
        assert t.f == t.g + t.h


def test_tn_left_family_frozen_matrix():
    t = tn_left_family(2, [1, 0], [0, 1])
    t2 = t.alg
    assert t.f == LinMap.from_rows(t2, [[1, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert t.g == LinMap.from_rows(t2, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert t.h == LinMap.from_rows(t2, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    # Everything outside the e11 column dies.
    for j in (1, 2):
        assert not any(t.f.column(j))


def test_family_parameter_counts():
    with pytest.raises(BadParameterCount):
        tn_jordan_family(2, [1, 2], [3, 4])
    with pytest.raises(BadParameterCount):
        tn_jordan_family(2, [1, 2, 3], [4])
    with pytest.raises(BadParameterCount):
        tn_left_family(3, [1, 2], [3, 4, 5])
    with pytest.raises(BadParameterCount):
        mn_jordan_family(2, upper_triangular(2).one())
    with pytest.raises(BadParameterCount):
        quat_jordan_family(full_matrix(3).one())


def test_mn_jordan_family_frozen_matrices():
    m2 = full_matrix(2)
    t = mn_jordan_family(2, m2.element([1, 2, 3, 4]))
    assert t.g == LinMap.from_rows(
        m2, [[1, 3, 0, 0], [2, 4, 0, 0], [0, 0, 1, 3], [0, 0, 2, 4]]
    )
    assert t.f == t.g.scale(2)
    assert t.h == t.g


def test_quat_jordan_family_columns():
    q = quaternions()
    t = quat_jordan_family(q.element([1, 2, 3, 4]))
    # Columns are the products (basis vector) * (1+2i+3j+4k), by hand.
    assert t.g.column(0) == q.element([1, 2, 3, 4]).coords
    assert t.g.column(1) == q.element([-2, 1, -4, 3]).coords
    assert t.g.column(2) == q.element([-3, 4, 1, -2]).coords
    assert t.g.column(3) == q.element([-4, -3, 2, 1]).coords


def test_families_over_z5():
    t = tn_jordan_family(2, [1, 2, 3], [4, 5], ring=Zmod(5))
    assert t.alg.ring == Zmod(5)
    assert t.f.mat[0][0] == 0  # 5 reduces away


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def test_poly_lift_acts_degreewise():
    t2 = upper_triangular(2)
    f = right_mul_map(t2.element([1, 2, 3]))
    lifted = poly_lift(f, 2)
    p = lifted.alg
    d = t2.dim
    for t in range(3):
        for i in range(d):
            img = lifted(p.basis_element(t * d + i))
            expect = [0] * p.dim
            for m, v in enumerate(f.column(i)):
                expect[t * d + m] = v
            assert img.coords == tuple(expect)


def test_tensor_extend_and_coordinates_round_trip():
    t2 = upper_triangular(2)
    s = truncated_poly(ring_as_algebra(QQ), 1)
    f = right_mul_map(t2.element([1, 2, 3]))
    ext = tensor_extend(f, s)
    assert ext.alg.dim == t2.dim * s.dim
    # Extension acts as f on the first slot and preserves the second.
    for i in range(t2.dim):
        for j in range(s.dim):
            img = ext(ext.alg.basis_element(i * s.dim + j))
            for m in range(t2.dim):
                assert img.coords[m * s.dim + j] == f.column(i)[m]
    coords = tensor_coordinates(ext)
    assert coords[0] == f
    assert coords[1].is_zero()


def test_tensor_coordinates_requires_tensor_algebra():
    f = LinMap.identity(upper_triangular(2))
    with pytest.raises(NotATensorAlgebra):
        tensor_coordinates(f)


# ---------------------------------------------------------------------------
# triples and serialization
# ---------------------------------------------------------------------------


def test_triple_plumbing():
    t2 = upper_triangular(2)
    z = MapTriple.zero(t2)
    assert z.f.is_zero() and z.g.is_zero() and z.h.is_zero()
    t = tn_jordan_family(2, [1, 0, 0], [0, 0])
    assert (t + z).f == t.f
    assert t.scale(3).g == t.g.scale(3)
    with pytest.raises(AlgebraMismatch):
        MapTriple(LinMap.identity(t2), LinMap.identity(full_matrix(2)),
                  LinMap.identity(t2))


def test_map_doc_round_trip():
    t2 = upper_triangular(2)
    f = LinMap.from_rows(t2, [["1/2", 0, 0], [0, "-3", 0], [0, 0, 7]])
    again = map_from_doc(map_to_doc(f))
    assert again == f and again.alg == t2


def test_triple_doc_round_trip_with_spec_reference():
    t = tn_jordan_family(3, [1, 2, 3, 4, 5, 6], [7, 8, 9])
    doc = triple_to_doc(t, inline_algebra=False)
    doc["algebra"] = "tn3"
    again = triple_from_doc(doc)
    assert again.f == t.f and again.g == t.g and again.h == t.h


def test_triple_doc_bad_shape_rejected():
    doc = {"algebra": "tn2", "f": [[0]], "g": [[0]], "h": [[0]]}
    with pytest.raises(ValueError):
        triple_from_doc(doc)


coeff = st.integers(-9, 9)


@given(st.lists(coeff, min_size=3, max_size=3), st.lists(coeff, min_size=2, max_size=2))
def test_jordan_family_f_splits(gp, hp):
    t = tn_jordan_family(2, gp, hp)
    assert t.f == t.g + t.h

"""Linear maps, triples, the closed-form solution families, and transport.

The parametric families are frozen against matrices computed by hand.  The
T_n families are built as right multiplications, so they are also pinned
to a second route that shares no code with that: the paper's closed forms,
written per basis vector.  L_x == R_x, which decides whether x is central,
is pinned to x e_i == e_i x for every i.  Transport maps (polynomial lift,
tensor extension) are checked columnwise.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ghderiv.ring import QQ, Zmod
from ghderiv.algebra import (
    AlgebraMismatch,
    from_spec,
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
    left_mul_map,
    map_from_doc,
    map_to_doc,
    mn_jordan_family,
    poly_lift_triple,
    quat_jordan_family,
    right_mul_map,
    tensor_extend_triple,
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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["tn3", "mn2", "quat", "poly(ring,1)"]), st.booleans(), st.data())
def test_left_equals_right_multiplication_iff_central(spec, scalar, data):
    alg = from_spec(spec)
    if scalar:  # a multiple of 1: central in every algebra
        x = alg.one().scale(data.draw(st.integers(-3, 3)))
    else:
        x = alg.element(data.draw(st.lists(st.integers(-2, 2), min_size=alg.dim,
                                           max_size=alg.dim)))
    commutes = all(x * e == e * x for e in map(alg.basis_element, range(alg.dim)))
    assert (left_mul_map(x) == right_mul_map(x)) == commutes
    assert commutes or not scalar


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


def _closed_form_jordan(alg, n, gp, hp):
    """(f, g, h) from the paper's formulas, basis vector by basis vector:
    g(e_ab) = sum_{j >= b} g[(b, j)] e_aj, h = g except h(e_11) = sum_j h[j] e_1j,
    and f = g + h."""
    pos = triangle_positions(n)
    index = {p: k for k, p in enumerate(pos)}
    gcols = []
    for a, b in pos:
        col = [0] * len(pos)
        for j in range(b, n):
            col[index[(a, j)]] = gp[index[(b, j)]]
        gcols.append(col)
    first = [0] * len(pos)
    for j in range(n):
        first[index[(0, j)]] = hp[j]
    hcols = [first] + gcols[1:]
    fcols = [[x + y for x, y in zip(gc, hc)] for gc, hc in zip(gcols, hcols)]
    return MapTriple(*(LinMap.from_columns(alg, cols) for cols in (fcols, gcols, hcols)))


def _closed_form_left(alg, n, gp, hp):
    """(f, g, h) with g(e_11) = sum_j g[j] e_1j, h(e_11) = sum_j h[j] e_1j,
    both zero on every other basis vector, and f = g + h."""
    pos = triangle_positions(n)
    index = {p: k for k, p in enumerate(pos)}

    def single_column(params):
        cols = [[0] * len(pos) for _ in pos]
        for j in range(n):
            cols[0][index[(0, j)]] = params[j]
        return LinMap.from_columns(alg, cols)

    g, h = single_column(gp), single_column(hp)
    return MapTriple(single_column([x + y for x, y in zip(gp, hp)]), g, h)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.sampled_from([QQ, Zmod(5)]), st.data())
def test_tn_families_match_the_closed_forms(n, ring, data):
    if ring == QQ:
        scalar = st.fractions(-9, 9, max_denominator=6)
    else:
        scalar = st.integers(-9, 9)
    d = n * (n + 1) // 2
    gp = data.draw(st.lists(scalar, min_size=d, max_size=d))
    hp = data.draw(st.lists(scalar, min_size=n, max_size=n))
    alg = upper_triangular(n, ring)
    assert tn_jordan_family(n, gp, hp, alg=alg) == _closed_form_jordan(alg, n, gp, hp)
    assert tn_left_family(n, gp[:n], hp, alg=alg) == _closed_form_left(alg, n, gp[:n], hp)


def test_tn_left_family_frozen_matrix():
    t = tn_left_family(2, [1, 0], [0, 1])
    t2 = t.alg
    assert t.f == LinMap.from_rows(t2, [[1, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert t.g == LinMap.from_rows(t2, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert t.h == LinMap.from_rows(t2, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    # Everything outside the e11 column dies.
    for j in (1, 2):
        assert not any(t.f.column(j))


def test_tn_families_build_on_the_callers_algebra():
    t3 = upper_triangular(3, Zmod(5))
    gp, hp = [1, 2, 3, 4, 5, 6], [7, 8, 9]
    for family, g in ((tn_jordan_family, gp), (tn_left_family, hp)):
        t = family(3, g, hp, alg=t3)
        assert t.alg is t3
        assert t == family(3, g, hp, alg=upper_triangular(3, Zmod(5)))
        with pytest.raises(ValueError, match="dimension 3 is not T3"):
            family(3, g, hp, alg=upper_triangular(2))


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


def test_family_parameters_must_be_arrays():
    # Strings used to be read as their characters: "123" gave g from (1, 2, 3).
    with pytest.raises(ValueError, match=r"^need an array of 3 g parameters$"):
        tn_jordan_family(2, "123", "45")
    with pytest.raises(ValueError, match=r"^need an array of 2 h parameters$"):
        tn_jordan_family(2, [1, 2, 3], "45")
    with pytest.raises(ValueError, match=r"^need an array of 2 g parameters$"):
        tn_left_family(2, "10", [0, 1])
    with pytest.raises(ValueError, match=r"^need an array of 2 h parameters$"):
        tn_left_family(2, [1, 0], "01")
    assert tn_jordan_family(2, (1, 2, 3), (4, 5)) == tn_jordan_family(2, [1, 2, 3], [4, 5])


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
    t = tn_jordan_family(2, [1, 2, 3], [4, 5], alg=upper_triangular(2, Zmod(5)))
    assert t.alg.ring == Zmod(5)
    assert t.f.mat[0][0] == 0  # 5 reduces away


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def test_poly_lift_acts_degreewise():
    t2 = upper_triangular(2)
    f = right_mul_map(t2.element([1, 2, 3]))
    lifted = poly_lift_triple(MapTriple(f, f, f), 2).f
    p = lifted.alg
    d = t2.dim
    for t in range(3):
        for i in range(d):
            img = lifted(p.basis_element(t * d + i))
            expect = [0] * p.dim
            for m, v in enumerate(f.column(i)):
                expect[t * d + m] = v
            assert img.coords == tuple(expect)


def test_tensor_extend_acts_as_f_on_the_first_factor():
    t2 = upper_triangular(2)
    s = truncated_poly(ring_as_algebra(QQ), 1)
    f = right_mul_map(t2.element([1, 2, 3]))
    ext = tensor_extend_triple(MapTriple(f, f, f), s).f
    assert ext.alg.dim == t2.dim * s.dim
    # Extension acts as f on the first slot and preserves the second.
    for i in range(t2.dim):
        for j in range(s.dim):
            img = ext(ext.alg.basis_element(i * s.dim + j))
            for m in range(t2.dim):
                assert img.coords[m * s.dim + j] == f.column(i)[m]


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
    doc = triple_to_doc(t)
    doc["algebra"] = "tn3"
    again = triple_from_doc(doc)
    assert again.f == t.f and again.g == t.g and again.h == t.h


def test_triple_doc_bad_shape_rejected():
    doc = {"algebra": "tn2", "f": [[0]], "g": [[0]], "h": [[0]]}
    with pytest.raises(ValueError):
        triple_from_doc(doc)


@pytest.mark.parametrize("matrix", [
    ["100", "010", "001"],                                   # rows as strings
    "abc",                                                   # the matrix as a string
    [[1, 0, 0], [0, 1, 0], [0, 0, 1, 0]],                    # a long row
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],            # an extra row
    [[1, 0], [0, 1, 0], [0, 0, 1]],                          # a short row
    [1, 2, 3],
], ids=["string-rows", "string", "long-row", "extra-row", "short-row", "numbers"])
def test_map_rows_must_hold_exactly_dim_values(matrix):
    t2 = upper_triangular(2)
    with pytest.raises(ValueError, match=r"^matrix must be 3 x 3$"):
        map_from_doc({"matrix": matrix, "algebra": "tn2"})
    with pytest.raises(ValueError, match=r"^matrix must be 3 x 3$"):
        LinMap.from_columns(t2, matrix)


coeff = st.integers(-9, 9)


@given(st.lists(coeff, min_size=3, max_size=3), st.lists(coeff, min_size=2, max_size=2))
def test_jordan_family_f_splits(gp, hp):
    t = tn_jordan_family(2, gp, hp)
    assert t.f == t.g + t.h

"""Identity checkers against hand-computed oracles.

The worked counterexample triples are rebuilt here (or pulled from the
bundled catalog) and every frozen value was computed by hand on paper
before being asserted: which identities hold, where the lexicographically
first failure sits, and both sides of the failing instance.
"""

import pytest
from hypothesis import given, strategies as st

from ghderiv.ring import QQ, Zmod
from ghderiv.algebra import (
    full_matrix,
    jordan_product,
    quaternions,
    ring_as_algebra,
    truncated_poly,
    upper_triangular,
)
from ghderiv.linmap import (
    LinMap,
    MapTriple,
    left_mul_map,
    mn_jordan_family,
    quat_jordan_family,
    right_mul_map,
    tn_jordan_family,
    tn_left_family,
)
from ghderiv.identities import (
    IDENTITIES,
    IdentityKind,
    PreconditionFailed,
    audit_doubled_substitution,
    check,
    decompose_left_gh,
    identity_sides,
    templates_at,
)
from ghderiv.catalog import worked_cases

JLGH = IdentityKind.JORDAN_LEFT_GH
LGH = IdentityKind.LEFT_GH
GH = IdentityKind.GH_DERIVATION
LEFT_CENT = IdentityKind.LEFT_CENTRALIZER
RIGHT_CENT = IdentityKind.RIGHT_CENTRALIZER


@pytest.fixture(scope="module")
def cases():
    return worked_cases()


def first_failure(kind, t):
    """Re-scan pairs lexicographically; return (i, j, lhs, rhs) of the first
    failing template instance.  Used to confirm the checker's counterexample
    really is the earliest one.  The templates at (i, j) are the kind's
    own, or, on the diagonal of the square identity, the product rule: the
    derivation template at (e_i, e_i)."""
    alg = t.alg
    for i in range(alg.dim):
        for j in range(alg.dim):
            templates = templates_at(kind, i, j)
            if not templates:
                continue
            at = kind if templates == IDENTITIES[kind] else IdentityKind.DERIVATION
            assert templates == IDENTITIES[at]
            a, b = alg.basis_element(i), alg.basis_element(j)
            for lhs, rhs in identity_sides(at, t, a, b):
                if lhs.coords != rhs.coords:
                    return i, j, lhs, rhs
    return None


# ---------------------------------------------------------------------------
# the scalar doubling map over Z/4Z
# ---------------------------------------------------------------------------


def test_z4_doubling_two_sided_but_not_one_sided():
    a = ring_as_algebra(Zmod(4))
    f = LinMap.from_rows(a, [[2]])
    t = MapTriple(f, f, f)
    assert check(JLGH, t).holds
    rep = check(LGH, t)
    assert not rep.holds
    ce = rep.counterexample
    assert (ce.i, ce.j) == (0, 0)
    # f(1*1) = 2, while 1*f(1) + 1*f(1) = 4 = 0 in Z/4Z.
    assert ce.to_doc()["lhs"][0] == "2 mod 4"
    assert ce.to_doc()["rhs"][0] == "0 mod 4"


def test_z4_doubling_not_fixable_by_halving():
    # The two-sided identity carries an explicit factor 2; over Z/4Z there
    # is no way to divide it out, which is exactly why the doubling map
    # separates the two notions there.
    assert not Zmod(4).two_torsion_free()
    assert Zmod(5).two_torsion_free()


# ---------------------------------------------------------------------------
# triangular 2x2 separations
# ---------------------------------------------------------------------------


def test_one_sided_without_two_sided(cases):
    t2 = upper_triangular(2)
    e12 = t2.basis_element(1)
    t = cases["case-t2-left-not-two-sided"]
    assert t.g == right_mul_map(t2.basis_element(0))
    assert check(LGH, t).holds
    rep = check(GH, t)
    assert not rep.holds
    assert (rep.counterexample.i, rep.counterexample.j) == (0, 1)
    assert rep.counterexample.lhs.is_zero()
    assert rep.counterexample.rhs == e12


def test_left_multiplication_variant_fails_both_forms():
    # Swapping the 2x2 case's g for left multiplication by e11 keeps the
    # two-sided failure (now at (e12, e22), same witness value e12) but
    # breaks the one-sided identity as well, at (e11, e12).
    t2 = upper_triangular(2)
    e12 = t2.basis_element(1)
    g = left_mul_map(t2.basis_element(0))
    t = MapTriple(LinMap.zero(t2), g, -g)
    rep = check(GH, t)
    assert not rep.holds
    assert (rep.counterexample.i, rep.counterexample.j) == (1, 2)
    assert rep.counterexample.lhs.is_zero()
    assert rep.counterexample.rhs == e12
    rep1 = check(LGH, t)
    assert not rep1.holds
    assert (rep1.counterexample.i, rep1.counterexample.j) == (0, 1)
    assert rep1.counterexample.rhs == e12


def test_two_sided_without_one_sided(cases):
    t2 = upper_triangular(2)
    t = cases["case-t2-two-sided-not-left"]
    assert check(GH, t).holds
    assert not check(LGH, t).holds
    # Direct evaluation at (e11, e22): lhs f(0) = 0, rhs comes out to e12.
    lhs, rhs = identity_sides(
        IdentityKind.LEFT_GH, t, t2.basis_element(0), t2.basis_element(2)
    )[0]
    assert lhs.is_zero()
    assert rhs == t2.basis_element(1)


def test_jordan_family_not_one_sided(cases):
    t = cases["case-t2-jordan-not-left"]
    t2 = t.alg
    assert check(JLGH, t).holds
    rep = check(LGH, t)
    assert not rep.holds
    # Lexicographically first failure: (e11, e12), f(e12) = 6e12 against
    # e11 g(e12) + e12 h(e11) = 3e12.
    ce = rep.counterexample
    assert (ce.i, ce.j) == (0, 1)
    assert [str(c) for c in ce.lhs.coords] == ["0", "6", "0"]
    assert [str(c) for c in ce.rhs.coords] == ["0", "3", "0"]
    # The stated witness pair (e12, e11) separates as well, with rhs 3e12.
    e11, e12 = t2.basis_element(0), t2.basis_element(1)
    lhs, rhs = identity_sides(IdentityKind.LEFT_GH, t, e12, e11)[0]
    assert lhs.is_zero()
    assert rhs == e12.scale(3)
    # Symmetrizing the outputs instead does not rescue it: 6e12 vs 7e12.
    lhs2 = t.f(jordan_product(e12, e11))
    rhs2 = jordan_product(t.g(e12), e11) + jordan_product(e12, t.h(e11))
    assert lhs2 == e12.scale(6)
    assert rhs2 == e12.scale(7)


def test_nonzero_one_sided_solution(cases):
    t = cases["case-t2-left-nonzero"]
    t2 = t.alg
    assert not t.f.is_zero()
    assert check(LGH, t).holds
    assert not check(GH, t).holds
    # The two-sided form breaks at (e11, e11 + e12): e11+e12 vs e11+2e12.
    e11, e12 = t2.basis_element(0), t2.basis_element(1)
    b = e11 + e12
    lhs, rhs = identity_sides(IdentityKind.GH_DERIVATION, t, e11, b)[0]
    assert lhs == b
    assert rhs == e11 + e12.scale(2)


def test_jordan_solution_maps_need_not_be_centralizers(cases):
    t = cases["case-t2-jordan-not-centralizer"]
    t2 = t.alg
    assert check(JLGH, t).holds
    A = t2.element([1, 2, 3])
    B = t2.element([4, 5, 6])
    for m in (t.f, t.g, t.h):
        assert not check(LEFT_CENT, MapTriple(m, m, m)).holds
        assert m(A * B) != m(A) * B


# ---------------------------------------------------------------------------
# full matrix and quaternion separations
# ---------------------------------------------------------------------------


def test_m2_family_not_one_sided(cases):
    t = cases["case-m2-jordan-not-left"]
    m2 = t.alg
    assert check(JLGH, t).holds
    assert not check(LGH, t).holds
    e11, e12 = m2.basis_element(0), m2.basis_element(1)
    lhs, rhs = identity_sides(IdentityKind.LEFT_GH, t, e12, e11)[0]
    assert lhs.is_zero()
    assert rhs == e11.scale(3) + e12.scale(4)


def test_m2_right_multiplication_not_left_centralizer(cases):
    t = cases["case-m2-jordan-not-centralizer"]
    m2 = t.alg
    assert check(JLGH, t).holds
    assert t.g == right_mul_map(m2.element([1, -1, -1, 0]))
    assert check(RIGHT_CENT, MapTriple(t.g, t.g, t.g)).holds
    assert not check(LEFT_CENT, MapTriple(t.g, t.g, t.g)).holds
    A = m2.element([1, 2, 3, 4])
    B = m2.element([5, 6, 7, 8])
    assert t.g(A * B) != t.g(A) * B


def test_quat_doubling(cases):
    t = cases["case-quat-doubling"]
    q = t.alg
    assert t.f == LinMap.identity(q).scale(2)
    assert check(JLGH, t).holds
    rep = check(LGH, t)
    assert not rep.holds
    # First failure at (i, j): f(ij) = 2k but i*g(j) + j*g(i) = ij + ji = 0.
    ce = rep.counterexample
    assert (ce.i, ce.j) == (1, 2)
    assert ce.lhs == q.basis_element(3).scale(2)
    assert ce.rhs.is_zero()


def test_quat_right_multiplication_centralizer_sides(cases):
    t = cases["case-quat-right-not-left-centralizer"]
    q = t.alg
    assert check(JLGH, t).holds
    assert check(RIGHT_CENT, MapTriple(t.g, t.g, t.g)).holds
    assert not check(LEFT_CENT, MapTriple(t.g, t.g, t.g)).holds
    p = q.element([5, 6, 7, 8])
    r = q.element([9, 10, 11, 12])
    assert t.g(p * r) != t.g(p) * r


def test_every_failing_counterexample_is_lex_first(cases):
    kinds = (
        IdentityKind.DERIVATION,
        IdentityKind.JORDAN_DERIVATION,
        IdentityKind.LEFT_DERIVATION,
        IdentityKind.GH_DERIVATION,
        IdentityKind.LEFT_GH,
        IdentityKind.JORDAN_LEFT_GH,
        IdentityKind.LEFT_CENTRALIZER,
        IdentityKind.RIGHT_CENTRALIZER,
    )
    for t in cases.values():
        for kind in kinds:
            rep = check(kind, t)
            if rep.holds:
                assert first_failure(kind, t) is None
            else:
                ce = rep.counterexample
                i, j, lhs, rhs = first_failure(kind, t)
                assert (i, j) == (ce.i, ce.j)
                assert lhs.coords == ce.lhs.coords
                assert rhs.coords == ce.rhs.coords


# ---------------------------------------------------------------------------
# plain derivation checkers
# ---------------------------------------------------------------------------


def test_inner_derivation_is_derivation():
    t3 = upper_triangular(3)
    a = t3.element([1, 2, 3, 4, 5, 6])
    d = left_mul_map(a) - right_mul_map(a)
    assert check(IdentityKind.DERIVATION, MapTriple(d, d, d)).holds
    assert check(IdentityKind.JORDAN_DERIVATION, MapTriple(d, d, d)).holds


def test_euler_operator_on_dual_numbers():
    # On Q[x]/(x^2) the map 1 -> 0, x -> x is a derivation, and since the
    # algebra is commutative it is a left derivation too.
    dual = truncated_poly(ring_as_algebra(QQ), 1)
    e = LinMap.from_rows(dual, [[0, 0], [0, 1]])
    assert check(IdentityKind.DERIVATION, MapTriple(e, e, e)).holds
    assert check(IdentityKind.LEFT_DERIVATION, MapTriple(e, e, e)).holds


def test_left_derivation_differs_from_derivation():
    t2 = upper_triangular(2)
    a = t2.element([1, 1, 1])
    d = left_mul_map(a) - right_mul_map(a)
    assert check(IdentityKind.DERIVATION, MapTriple(d, d, d)).holds
    assert not check(IdentityKind.LEFT_DERIVATION, MapTriple(d, d, d)).holds


def test_identity_map_centralizer_status():
    m2 = full_matrix(2)
    one = LinMap.identity(m2)
    assert check(LEFT_CENT, MapTriple(one, one, one)).holds
    assert check(RIGHT_CENT, MapTriple(one, one, one)).holds
    r = right_mul_map(m2.basis_element(1))
    assert check(LEFT_CENT, MapTriple(r, r, r)).holds is False


def test_single_map_kinds_read_only_f(cases):
    # For the single-map identity classes a triple is judged by f alone.
    t = cases["case-t2-two-sided-not-left"]
    only_f = MapTriple(t.f, t.f, t.f)
    assert check(LEFT_CENT, t).holds == \
        check(LEFT_CENT, only_f).holds
    garbage = MapTriple(t.f, LinMap.zero(t.alg), LinMap.identity(t.alg))
    assert check(RIGHT_CENT, garbage).holds == \
        check(RIGHT_CENT, only_f).holds


# ---------------------------------------------------------------------------
# square identity conventions
# ---------------------------------------------------------------------------


def test_square_identity_pair_conventions():
    jd = IdentityKind.JORDAN_DERIVATION
    # The square form on the diagonal, the polarized form for i < j only.
    assert len(templates_at(jd, 1, 1)) == 1
    assert templates_at(jd, 1, 1) == IDENTITIES[IdentityKind.DERIVATION]
    assert len(templates_at(jd, 0, 2)) == 1
    assert templates_at(jd, 0, 2) == IDENTITIES[jd]
    assert templates_at(jd, 2, 0) == ()
    # Everything else evaluates on all ordered pairs.
    assert len(templates_at(IdentityKind.LEFT_GH, 2, 0)) == 2
    assert len(templates_at(IdentityKind.JORDAN_LEFT_GH, 2, 0)) == 1


def test_polarized_form_matches_square_expansion():
    # The pairwise form used off the diagonal is forced by expanding the
    # square identity at a+b; spot-check the bookkeeping on random maps.
    import random

    t3 = upper_triangular(3)
    rng = random.Random(6)
    f = LinMap.from_rows(
        t3, [[rng.randint(-4, 4) for _ in range(6)] for _ in range(6)]
    )
    t = MapTriple(f, f, f)
    for i in range(6):
        for j in range(i + 1, 6):
            a, b = t3.basis_element(i), t3.basis_element(j)
            assert templates_at(IdentityKind.JORDAN_DERIVATION, i, j) == \
                IDENTITIES[IdentityKind.JORDAN_DERIVATION]
            (lhs, rhs), = identity_sides(IdentityKind.JORDAN_DERIVATION, t, a, b)
            assert lhs == f(a * b + b * a)
            assert rhs == f(a) * b + a * f(b) + f(b) * a + b * f(a)


# ---------------------------------------------------------------------------
# idempotent evaluation rule
# ---------------------------------------------------------------------------


def test_idempotent_rule_over_q():
    # Over a 2-torsion-free ring any two-sided solution satisfies
    # f(e) = e(g(e) + h(e)) at every idempotent e.
    t = tn_jordan_family(2, [3, -1, 2], [0, 7])
    assert check(JLGH, t).holds
    t2 = t.alg
    for e in (t2.basis_element(0), t2.basis_element(2),
              t2.one(), t2.element([1, 5, 0])):
        assert e * e == e
        assert t.f(e) == e * (t.g(e) + t.h(e))


def test_idempotent_rule_fails_with_2_torsion():
    # Same statement over Z/4Z is false: doubling at e = 1 gives 2 vs 0.
    a = ring_as_algebra(Zmod(4))
    f = LinMap.from_rows(a, [[2]])
    t = MapTriple(f, f, f)
    e = a.one()
    assert check(JLGH, t).holds
    assert t.f(e) != e * (t.g(e) + t.h(e))
    # The doubled form of the rule still holds, as it must.
    assert t.f(e).scale(2) == (e * (t.g(e) + t.h(e))).scale(2)


# ---------------------------------------------------------------------------
# decomposition around the unity
# ---------------------------------------------------------------------------


def test_decompose_one_sided_solution(cases):
    t = cases["case-t2-left-nonzero"]
    t2 = t.alg
    dec = decompose_left_gh(t)
    assert dec.lam == t2.element([1, 1, 0])
    assert not dec.lam_central
    assert dec.d == LinMap.from_rows(t2, [[0, 0, 0], [1, -1, -1], [0, 0, 0]])
    assert not dec.d_is_left_derivation
    # The split itself is exact regardless of the two findings.
    assert left_mul_map(dec.lam) + dec.d == t.f


def test_decompose_scaling_triple():
    a = ring_as_algebra(QQ)
    six = LinMap.from_rows(a, [[6]])
    three = LinMap.from_rows(a, [[3]])
    dec = decompose_left_gh(MapTriple(six, three, three))
    assert str(dec.lam.coords[0]) == "6"
    assert dec.lam_central
    assert dec.d.is_zero()
    assert dec.d_is_left_derivation


def test_decompose_zero_triple():
    dec = decompose_left_gh(MapTriple.zero(upper_triangular(3)))
    assert dec.lam.is_zero()
    assert dec.lam_central
    assert dec.d.is_zero()
    assert dec.d_is_left_derivation


def test_decompose_requires_one_sided_identity(cases):
    with pytest.raises(PreconditionFailed):
        decompose_left_gh(cases["case-t2-jordan-not-left"])


# ---------------------------------------------------------------------------
# the doubled-substitution audit
# ---------------------------------------------------------------------------


def test_audit_doubled_substitution(cases):
    # Collapsing g, h to their sum and reusing them in the one-sided shape
    # is not a valid inference; the audit reports exactly that.
    rep = audit_doubled_substitution(cases["case-t2-jordan-not-left"])
    assert not rep.holds
    assert audit_doubled_substitution(MapTriple.zero(upper_triangular(2))).holds
    with pytest.raises(PreconditionFailed):
        audit_doubled_substitution(
            MapTriple(*( [LinMap.identity(upper_triangular(2))] * 3 ))
        )


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_check_report_serialization(cases):
    good = check(JLGH, cases["case-quat-doubling"])
    assert bool(good) and good.to_doc() == {"holds": True}
    bad = check(LGH, cases["case-quat-doubling"])
    doc = bad.to_doc()
    assert doc["holds"] is False
    assert doc["counterexample"]["i"] == 1
    assert doc["counterexample"]["j"] == 2
    assert doc["counterexample"]["lhs"] == ["0", "0", "0", "2"]
    assert doc["counterexample"]["rhs"] == ["0", "0", "0", "0"]


def test_kind_names_round_trip():
    for kind in IdentityKind:
        assert IdentityKind.from_name(kind.value) is kind
    with pytest.raises(ValueError):
        IdentityKind.from_name("biderivation")


# ---------------------------------------------------------------------------
# family properties
# ---------------------------------------------------------------------------

coeff = st.integers(-6, 6)


@given(st.lists(coeff, min_size=3, max_size=3),
       st.lists(coeff, min_size=2, max_size=2))
def test_triangular_jordan_family_always_two_sided(gp, hp):
    assert check(JLGH, tn_jordan_family(2, gp, hp)).holds


@given(st.lists(coeff, min_size=2, max_size=2),
       st.lists(coeff, min_size=2, max_size=2))
def test_triangular_left_family_always_one_sided(gp, hp):
    assert check(LGH, tn_left_family(2, gp, hp)).holds


@given(st.lists(coeff, min_size=4, max_size=4))
def test_matrix_and_quaternion_families_always_two_sided(co):
    m2 = full_matrix(2)
    assert check(JLGH, mn_jordan_family(2, m2.element(co))).holds
    q = quaternions()
    assert check(JLGH, quat_jordan_family(q.element(co))).holds

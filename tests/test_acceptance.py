"""End-to-end acceptance gate: nine numbered criteria.

Each test covers one criterion and prints a single ``criterion N: PASS``
summary line on success (run with ``-s`` to see them).  Every comparison
below is exact; nothing is checked up to tolerance.
"""

import random

import ghderiv as G
from ghderiv import IdentityKind

JLGH = IdentityKind.JORDAN_LEFT_GH
LGH = IdentityKind.LEFT_GH
GH = IdentityKind.GH_DERIVATION
LEFT_CENT = IdentityKind.LEFT_CENTRALIZER
RIGHT_CENT = IdentityKind.RIGHT_CENTRALIZER

ALL_SPECS = ("tn2", "tn3", "tn4", "mn2", "mn3", "quat", "ring", "poly(ring,1)")


def test_criterion_1_dimension_counts(solved):
    tri_jordan = tuple(solved(f"tn{n}", JLGH).dim for n in (2, 3, 4))
    tri_left = tuple(solved(f"tn{n}", LGH).dim for n in (2, 3, 4))
    full_jordan = tuple(solved(f"mn{n}", JLGH).dim for n in (2, 3))
    quat_jordan = solved("quat", JLGH).dim
    assert tri_jordan == (5, 9, 14)
    assert tri_left == (4, 6, 8)
    assert full_jordan == (4, 9)
    assert quat_jordan == 4
    # the frozen numbers agree with the closed forms
    assert tri_jordan == tuple(n * (n + 3) // 2 for n in (2, 3, 4))
    assert tri_left == tuple(2 * n for n in (2, 3, 4))
    assert full_jordan == tuple(n * n for n in (2, 3))
    print(
        "criterion 1: PASS - dimensions: triangular two-sided (5, 9, 14), "
        "triangular one-sided (4, 6, 8), full-matrix two-sided (4, 9), "
        "quaternion two-sided 4"
    )


def test_criterion_2_vanishing(solved):
    pinched = G.Constraints(force_g_eq_h=True)
    for spec in ("mn2", "mn3", "quat"):
        sp = solved(spec, LGH, pinched)
        assert sp.dim == 0 and sp.basis == ()
    for spec in ("mn2", "quat"):
        sp = solved(spec, LGH)
        assert sp.dim == 0 and sp.basis == ()
    print(
        "criterion 2: PASS - one-sided spaces vanish: with g = h over "
        "mn2/mn3/quat, and unconstrained over mn2/quat"
    )


def test_criterion_3_collapse_and_determination(solved):
    for spec in ("mn2", "mn3", "quat"):
        assert G.gh_collapse(solved(spec, JLGH))
    for spec in ("tn2", "tn3", "tn4", "mn2", "mn3", "quat"):
        assert G.project_gh_injectivity(solved(spec, JLGH))
    print(
        "criterion 3: PASS - g = h on every two-sided solution over "
        "mn2/mn3/quat; (g, h) determines f on all six two-sided spaces"
    )


def test_criterion_4_right_centralizer_family(solved):
    total = 0
    for spec in ("tn2", "tn3", "tn4", "mn2", "mn3", "quat"):
        for t in solved(spec, JLGH).basis:
            for m in (t.f, t.g, t.h):
                assert G.check(RIGHT_CENT, G.MapTriple(m, m, m)).holds
                total += 1
    assert total == 3 * (5 + 9 + 14 + 4 + 9 + 4)
    print(
        f"criterion 4: PASS - all {total} component maps of the two-sided "
        "basis triples are right centralizers"
    )


def test_criterion_5_worked_cases():
    cases = G.worked_cases()
    assert set(cases) == {
        "case-z4-doubling",
        "case-t2-left-not-two-sided",
        "case-t2-two-sided-not-left",
        "case-t2-jordan-not-left",
        "case-t2-left-nonzero",
        "case-t2-jordan-not-centralizer",
        "case-m2-jordan-not-left",
        "case-m2-jordan-not-centralizer",
        "case-quat-doubling",
        "case-quat-right-not-left-centralizer",
    }

    # doubling on Z/4Z: two-sided holds, one-sided fails, 2 vs 4 = 0
    t = cases["case-z4-doubling"]
    alg = t.alg
    assert G.check(JLGH, t).holds
    rep = G.check(LGH, t)
    assert not rep.holds
    ce = rep.counterexample
    assert (ce.i, ce.j) == (0, 0)
    assert ce.lhs == alg.element([2])
    assert ce.rhs == alg.element([4]) == alg.element([0])

    # zero map with g = right mult by e11: one-sided holds, two-sided fails
    # at (e11, e12) with value e12; the left-mult variant fails the
    # two-sided form at (e12, e22) with the same value but is not a
    # one-sided solution either
    t = cases["case-t2-left-not-two-sided"]
    t2 = t.alg
    e11, e12 = t2.basis_element(0), t2.basis_element(1)
    assert t.g == G.right_mul_map(e11)
    assert G.check(LGH, t).holds
    rep = G.check(GH, t)
    assert not rep.holds
    ce = rep.counterexample
    assert (ce.i, ce.j) == (0, 1)
    assert ce.lhs.is_zero() and ce.rhs == e12
    gl = G.left_mul_map(e11)
    tl = G.MapTriple(G.LinMap.zero(t2), gl, -gl)
    repl = G.check(GH, tl)
    assert not repl.holds
    cel = repl.counterexample
    assert (cel.i, cel.j) == (1, 2)
    assert cel.lhs.is_zero() and cel.rhs == e12
    assert not G.check(LGH, tl).holds

    # x + (ax - xa) with a = (1,1;0,1): two-sided holds, one-sided fails
    # at (e11, e22) with right side e12
    t = cases["case-t2-two-sided-not-left"]
    t2 = t.alg
    e11, e12, e22 = (t2.basis_element(k) for k in range(3))
    assert G.check(GH, t).holds
    assert not G.check(LGH, t).holds
    lhs, rhs = G.identity_sides(LGH, t, e11, e22)[0]
    assert lhs.is_zero() and rhs == e12

    # triangular family (1,2,3; 4,5): two-sided holds, one-sided fails at
    # the stated pair (e12, e11) with right side 3 e12
    t = cases["case-t2-jordan-not-left"]
    t2 = t.alg
    e11, e12 = t2.basis_element(0), t2.basis_element(1)
    assert G.check(JLGH, t).holds
    assert not G.check(LGH, t).holds
    lhs, rhs = G.identity_sides(LGH, t, e12, e11)[0]
    assert lhs.is_zero() and rhs == e12.scale(3)

    # nonzero one-sided solution; the two-sided form fails at
    # (e11, e11 + e12): e11 + e12 vs e11 + 2 e12
    t = cases["case-t2-left-nonzero"]
    t2 = t.alg
    e11, e12 = t2.basis_element(0), t2.basis_element(1)
    assert not t.f.is_zero()
    assert G.check(LGH, t).holds
    assert not G.check(GH, t).holds
    b = e11 + e12
    lhs, rhs = G.identity_sides(GH, t, e11, b)[0]
    assert lhs == b
    assert rhs == e11 + e12.scale(2)

    # two-sided solution on tn2 whose f, g, h all fail f(AB) = f(A)B
    t = cases["case-t2-jordan-not-centralizer"]
    t2 = t.alg
    assert G.check(JLGH, t).holds
    A, B = t2.element([1, 2, 3]), t2.element([4, 5, 6])
    for m in (t.f, t.g, t.h):
        assert not G.check(LEFT_CENT, G.MapTriple(m, m, m)).holds
        assert m(A * B) != m(A) * B

    # full-matrix family at (1,2;3,4): one-sided fails at the stated pair
    # (e12, e11) with right side 3 e11 + 4 e12
    t = cases["case-m2-jordan-not-left"]
    m2 = t.alg
    e11, e12 = m2.basis_element(0), m2.basis_element(1)
    assert G.check(JLGH, t).holds
    assert not G.check(LGH, t).holds
    lhs, rhs = G.identity_sides(LGH, t, e12, e11)[0]
    assert lhs.is_zero()
    assert rhs == e11.scale(3) + e12.scale(4)

    # g = right mult by e11 - e12 - e21: a right centralizer but not a
    # left one, and f = 2g is not one either
    t = cases["case-m2-jordan-not-centralizer"]
    m2 = t.alg
    assert G.check(JLGH, t).holds
    assert t.g == G.right_mul_map(m2.element([1, -1, -1, 0]))
    assert G.check(RIGHT_CENT, G.MapTriple(t.g, t.g, t.g)).holds
    assert not G.check(LEFT_CENT, G.MapTriple(t.g, t.g, t.g)).holds
    assert not G.check(LEFT_CENT, G.MapTriple(t.f, t.f, t.f)).holds

    # doubling on the quaternions: two-sided holds, one-sided fails at
    # (i, j) where f(k) = 2k while the right side is 0
    t = cases["case-quat-doubling"]
    q = t.alg
    assert t.f == G.LinMap.identity(q).scale(2)
    assert G.check(JLGH, t).holds
    rep = G.check(LGH, t)
    assert not rep.holds
    ce = rep.counterexample
    assert (ce.i, ce.j) == (1, 2)
    assert ce.lhs == q.basis_element(3).scale(2)
    assert ce.rhs.is_zero()

    # right mult by 1 + 2i + 3j + 4k: right centralizer, not left
    t = cases["case-quat-right-not-left-centralizer"]
    q = t.alg
    assert G.check(JLGH, t).holds
    assert t.g == G.right_mul_map(q.element([1, 2, 3, 4]))
    assert G.check(RIGHT_CENT, G.MapTriple(t.g, t.g, t.g)).holds
    assert not G.check(LEFT_CENT, G.MapTriple(t.g, t.g, t.g)).holds
    p, r = q.element([5, 6, 7, 8]), q.element([9, 10, 11, 12])
    assert t.g(p * r) != t.g(p) * r

    print(
        "criterion 5: PASS - all ten bundled counterexample triples replay "
        "with their frozen witness pairs and values"
    )


def test_criterion_6_quaternion_pinning(solved):
    pin = G.Constraints(f_zero_basis=(1, 2, 3))
    free = solved("quat", LGH)
    pinned = solved("quat", LGH, pin)
    assert G.space_equal(free, pinned)
    assert free.dim == 0 == pinned.dim
    jordan_free = solved("quat", JLGH)
    jordan_pinned = solved("quat", JLGH, pin)
    assert jordan_free.dim == 4
    assert jordan_pinned.dim == 0 and jordan_pinned.basis == ()
    print(
        "criterion 6: PASS - pinning f on i, j, k leaves the one-sided "
        "quaternion space unchanged (both sides are zero) and cuts the "
        "two-sided space from 4 to 0"
    )


def test_criterion_7_lift_closure(solved):
    lifted = 0
    for spec in ("tn2", "mn2", "quat"):
        for kind in (JLGH, LGH):
            sp = solved(spec, kind)
            rng = random.Random(f"acceptance:{spec}:{kind.value}")
            for _ in range(50):
                t = sp.combination([rng.randint(-9, 9) for _ in range(sp.dim)])
                assert G.check(kind, G.poly_lift_triple(t, 3)).holds
                lifted += 1
    assert lifted == 300

    dual = "poly(ring,1)"
    for base in ("ring", dual):
        assert G.is_commutative(G.from_spec(base))
        assert G.space_equal(solved(base, JLGH), solved(base, LGH))
        prod = f"tensor({base},{dual})"
        assert G.space_equal(solved(prod, JLGH), solved(prod, LGH))
    print(
        "criterion 7: PASS - 300 random solutions stay solutions after "
        "lifting to the degree-3 truncation; two-sided = one-sided on both "
        "commutative bases and on their products with the dual numbers"
    )


def test_criterion_8_mod_five(solved):
    five = G.Zmod(5)
    assert solved("tn2", JLGH, ring=five).dim == 5
    assert solved("tn2", LGH, ring=five).dim == 4
    assert solved("tn3", JLGH, ring=five).dim == 9
    assert solved("tn3", LGH, ring=five).dim == 6
    assert solved("mn2", JLGH, ring=five).dim == 4
    print(
        "criterion 8: PASS - dimensions over Z/5Z match the rational ones "
        "for tn2 (5, 4), tn3 (9, 6) and mn2 (4)"
    )


def test_criterion_9_property_suites(solved):
    for spec in ALL_SPECS:
        assert G.space_contains(solved(spec, JLGH), solved(spec, LGH))
    for spec in ("ring", "poly(ring,1)"):
        a = G.from_spec(spec)
        assert G.is_commutative(a) and a.ring.two_torsion_free()
        assert G.space_equal(solved(spec, JLGH), solved(spec, LGH))
    certified = 0
    substituted = 0
    for sp in list(solved.cache.values()):
        assert G.verify_space(sp)
        assert sp.dim == 3 * sp.alg.dim**2 - sp.rank
        for t in sp.basis:
            assert G.check(sp.kind, t).holds
            substituted += 1
        certified += 1
    assert certified >= 16
    print(
        "criterion 9: PASS - one-sided inside two-sided on all 8 algebras, "
        "the two spaces coincide on the commutative ones, and "
        f"{certified} solved spaces passed rank-nullity plus substitution "
        f"on {substituted} basis triples"
    )

"""Exact solver: frozen dimensions, certificates, and space predicates.

All dimensions here were computed independently before being frozen in;
the closed-form counts for the triangular and full matrix algebras follow
the patterns n(n+3)/2, 2n and n^2 over Q.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from ghderiv.ring import (
    QQ,
    CompositeModulusUnsupported,
    RingMismatch,
    Zmod,
)
from ghderiv.algebra import upper_triangular
from ghderiv.linmap import LinMap, MapTriple, tn_jordan_family, tn_left_family
from ghderiv.identities import IdentityKind, check
from ghderiv.solver import (
    Constraints,
    build_system,
    canonical_span,
    gh_collapse,
    nullspace,
    project_gh_injectivity,
    solve,
    space_contains,
    space_equal,
    space_member,
    triple_to_vec,
    vec_to_triple,
    verify_space,
)

JLGH = IdentityKind.JORDAN_LEFT_GH
LGH = IdentityKind.LEFT_GH


# ---------------------------------------------------------------------------
# frozen dimensions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,want", [(2, 5), (3, 9), (4, 14)])
def test_triangular_two_sided_dimension(solved, n, want):
    sp = solved(f"tn{n}", JLGH)
    assert sp.dim == want == n * (n + 3) // 2


@pytest.mark.parametrize("n,want", [(2, 4), (3, 6), (4, 8)])
def test_triangular_one_sided_dimension(solved, n, want):
    sp = solved(f"tn{n}", LGH)
    assert sp.dim == want == 2 * n


@pytest.mark.parametrize("n,want", [(2, 4), (3, 9)])
def test_full_matrix_two_sided_dimension(solved, n, want):
    assert solved(f"mn{n}", JLGH).dim == want == n * n


def test_quaternion_two_sided_dimension(solved):
    assert solved("quat", JLGH).dim == 4


@pytest.mark.parametrize("spec", ["mn2", "mn3", "quat"])
def test_one_sided_g_eq_h_vanishes(solved, spec):
    sp = solved(spec, LGH, Constraints(force_g_eq_h=True))
    assert sp.dim == 0
    assert sp.canonical == ()


@pytest.mark.parametrize("spec", ["mn2", "quat"])
def test_one_sided_vanishes_unconstrained(solved, spec):
    assert solved(spec, LGH).dim == 0


def test_dimensions_recomputed_mod_five(solved):
    five = Zmod(5)
    assert solved("tn2", JLGH, ring=five).dim == 5
    assert solved("tn2", LGH, ring=five).dim == 4
    assert solved("tn3", JLGH, ring=five).dim == 9
    assert solved("tn3", LGH, ring=five).dim == 6
    assert solved("mn2", JLGH, ring=five).dim == 4


def test_left_centralizers_of_full_matrices(solved):
    # f(ab) = f(a)b forces f(x) = f(1)x, so the f block contributes exactly
    # dim(A); the single-map system leaves the g and h blocks entirely free.
    sp = solved("mn2", IdentityKind.LEFT_CENTRALIZER)
    assert sp.dim == 4 + 2 * 16
    assert not project_gh_injectivity(sp)


# ---------------------------------------------------------------------------
# determinism and certificates
# ---------------------------------------------------------------------------


def test_solve_is_deterministic():
    t2 = upper_triangular(2)
    s1 = solve(t2, JLGH)
    s2 = solve(t2, JLGH)
    assert s1.canonical == s2.canonical
    assert s1.basis == s2.basis
    assert s1.rank == s2.rank


def test_rank_nullity_bookkeeping(solved):
    for spec in ("tn2", "tn3", "mn2", "quat", "ring"):
        for kind in (JLGH, LGH):
            sp = solved(spec, kind)
            assert sp.dim == 3 * sp.alg.dim ** 2 - sp.rank


def test_verify_space_accepts_honest_spaces(solved):
    assert verify_space(solved("tn2", JLGH))
    assert verify_space(solved("quat", LGH))


def test_verify_space_rejects_tampering(solved):
    sp = solved("tn2", JLGH)
    t2 = sp.alg
    # A planted non-solution basis vector must trip the substitution check.
    fake = dataclasses.replace(
        sp, basis=sp.basis[:-1] + (MapTriple(*[LinMap.identity(t2)] * 3),)
    )
    assert not verify_space(fake)
    # A wrong dimension must trip rank-nullity.
    assert not verify_space(dataclasses.replace(sp, dim=sp.dim + 1,
                                                basis=sp.basis + (sp.basis[0],)))
    assert not verify_space(dataclasses.replace(sp, rank=sp.rank - 1))


def test_solution_basis_passes_checker(solved):
    sp = solved("tn3", JLGH)
    for t in sp.basis:
        assert check(JLGH, t).holds


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------


def test_constraint_rows_are_honored(solved):
    sp = solved("tn2", LGH, Constraints(force_g_eq_h=True))
    for t in sp.basis:
        assert t.g == t.h
    spz = solved("tn2", LGH, Constraints(force_f_zero=True))
    for t in spz.basis:
        assert t.f.is_zero()
    assert space_contains(solved("tn2", LGH), spz)


def test_partial_f_zero_constraint(solved):
    sp = solved("tn2", LGH, Constraints(f_zero_basis=(1,)))
    for t in sp.basis:
        assert not any(t.f.column(1))


def test_quaternion_imaginary_constraints(solved):
    # Killing f on i, j, k changes nothing for the one-sided space but
    # collapses the two-sided one to zero.
    free = solved("quat", LGH)
    pinned = solved("quat", LGH, Constraints(f_zero_basis=(1, 2, 3)))
    assert space_equal(free, pinned)
    assert solved("quat", JLGH, Constraints(f_zero_basis=(1, 2, 3))).dim == 0


def test_bad_constraint_index_rejected():
    t2 = upper_triangular(2)
    with pytest.raises(ValueError):
        build_system(t2, LGH, Constraints(f_zero_basis=(7,)))
    with pytest.raises(ValueError):
        build_system(t2, LGH, Constraints(f_zero_basis=(-1,)))


def test_constraints_description():
    assert Constraints().is_trivial()
    assert Constraints().describe() == "none"
    c = Constraints(force_g_eq_h=True, f_zero_basis=(0, 2))
    assert not c.is_trivial()
    assert c.describe() == "g = h, f zero on basis [0, 2]"


# ---------------------------------------------------------------------------
# vector layout
# ---------------------------------------------------------------------------


def test_triple_vector_layout():
    t2 = upper_triangular(2)
    d = t2.dim
    g = LinMap.from_rows(t2, [[0, 0, 0], [0, 0, 7], [0, 0, 0]])
    t = MapTriple(g, g, LinMap.zero(t2))
    vec = triple_to_vec(t)
    # Entry (row 1, column 2) sits at offset 2*d + 1 inside its block.
    hot = 2 * d + 1
    assert str(vec[hot]) == "7"
    assert str(vec[d * d + hot]) == "7"
    assert not any(v for k, v in enumerate(vec)
                   if k not in (hot, d * d + hot))


def test_triple_vector_round_trip():
    t3 = upper_triangular(3)
    rng = random.Random(2)
    t = MapTriple(*(
        LinMap.from_rows(t3, [[rng.randint(-9, 9) for _ in range(6)]
                              for _ in range(6)])
        for _ in range(3)
    ))
    back = vec_to_triple(t3, triple_to_vec(t))
    assert back.f == t.f and back.g == t.g and back.h == t.h


# ---------------------------------------------------------------------------
# space predicates
# ---------------------------------------------------------------------------


def test_left_solutions_sit_inside_jordan_solutions(solved):
    for spec in ("tn2", "tn3", "mn2", "quat", "ring"):
        big = solved(spec, JLGH)
        small = solved(spec, LGH)
        assert space_contains(big, small)
        if small.dim < big.dim:
            assert not space_contains(small, big)
            assert not space_equal(big, small)


def test_space_membership(solved):
    sp = solved("tn2", JLGH)
    for t in sp.basis:
        assert space_member(sp, t)
    assert space_member(sp, sp.combination([3, -1, 2, 0, 5]))
    assert space_member(sp, tn_jordan_family(2, [1, 2, 3], [4, 5]))
    t2 = sp.alg
    assert not space_member(sp, MapTriple(*[LinMap.identity(t2)] * 3))
    assert space_member(sp, MapTriple.zero(t2))


def test_space_membership_mismatches(solved):
    sp = solved("tn2", JLGH)
    with pytest.raises(RingMismatch):
        space_member(sp, MapTriple.zero(upper_triangular(2, ring=Zmod(5))))
    with pytest.raises(ValueError):
        space_member(sp, MapTriple.zero(upper_triangular(3)))


def test_canonical_span_reproduces_solved_space(solved):
    sp = solved("tn2", LGH)
    assert canonical_span(sp.alg, sp.basis) == sp.canonical
    # The closed-form family spans the same space.
    t2 = sp.alg
    gens = [tn_left_family(2, [1, 0], [0, 0]), tn_left_family(2, [0, 1], [0, 0]),
            tn_left_family(2, [0, 0], [1, 0]), tn_left_family(2, [0, 0], [0, 1])]
    assert canonical_span(t2, gens) == sp.canonical
    # Spans ignore duplicates and zero rows.
    assert canonical_span(t2, list(sp.basis) + [MapTriple.zero(t2)]
                          + list(sp.basis)) == sp.canonical


def test_combination_coefficient_count(solved):
    sp = solved("tn2", LGH)
    with pytest.raises(ValueError):
        sp.combination([1, 2, 3])


def test_gh_collapse(solved):
    assert gh_collapse(solved("mn2", JLGH))
    assert gh_collapse(solved("mn3", JLGH))
    assert gh_collapse(solved("quat", JLGH))
    # The triangular spaces genuinely separate g from h.
    assert not gh_collapse(solved("tn2", JLGH))


def test_projection_injectivity(solved):
    for spec in ("tn2", "tn3", "tn4", "mn2", "mn3", "quat"):
        assert project_gh_injectivity(solved(spec, JLGH))
        assert project_gh_injectivity(solved(spec, LGH))


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


def test_system_shape_and_doc():
    t2 = upper_triangular(2)
    sys = build_system(t2, LGH)
    # Two templates, one row per (i, j, coordinate).
    assert sys.ncols == 27
    assert sys.nrows == 2 * 3 * 3 * 3
    doc = sys.to_doc()
    assert doc["kind"] == "left-gh"
    assert doc["constraints"] == "none"
    assert doc["ncols"] == 27
    assert len(doc["rows"]) == sys.nrows
    assert all(len(r) == 27 for r in doc["rows"])


def _random_triple(alg, rng):
    def rand_map():
        return LinMap.from_rows(
            alg, [[rng.randint(-3, 3) for _ in range(alg.dim)] for _ in range(alg.dim)]
        )
    return MapTriple(rand_map(), rand_map(), rand_map())


def test_system_evaluate(solved):
    """The compiled rows and the checker read one identity table, so for
    every kind they agree on solutions and on random triples that fail."""
    sp = solved("tn2", LGH)
    sys = build_system(sp.alg, LGH)
    for t in sp.basis:
        assert sys.evaluate(t)
    assert not sys.evaluate(MapTriple(*[LinMap.identity(sp.alg)] * 3))
    rng = random.Random(2024)
    for kind in IdentityKind:
        failing = 0
        for spec, ring in (("tn2", QQ), ("mn2", QQ), ("quat", QQ), ("ring", Zmod(5)),
                           ("poly(ring,1)", QQ)):
            sp = solved(spec, kind, ring=ring)
            sys = build_system(sp.alg, kind)
            holding = list(sp.basis)
            if sp.dim:
                holding.append(sp.combination([rng.randint(-5, 5) for _ in range(sp.dim)]))
            for t in holding:
                assert sys.evaluate(t) and check(kind, t).holds, (spec, kind)
            for _ in range(4):
                t = _random_triple(sp.alg, rng)
                holds = check(kind, t).holds
                assert sys.evaluate(t) == holds, (spec, kind)
                failing += not holds
        assert failing, f"no random triple fails {kind.value}"


def test_square_identity_system_row_count():
    t2 = upper_triangular(2)
    sys = build_system(t2, IdentityKind.JORDAN_DERIVATION)
    # Diagonal pairs plus i < j pairs, one row per output coordinate.
    assert sys.nrows == (3 + 3) * 3


def test_composite_modulus_rejected():
    for m in (4, 6, 12):
        a = upper_triangular(2, ring=Zmod(m))
        with pytest.raises(CompositeModulusUnsupported):
            solve(a, LGH)


def test_prime_modulus_accepted():
    sp = solve(upper_triangular(2, ring=Zmod(7)), JLGH)
    assert sp.dim == 5
    assert verify_space(sp)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

coeffs5 = st.lists(st.integers(-9, 9), min_size=5, max_size=5)


@settings(max_examples=25, deadline=None)
@given(coeffs5)
def test_random_combinations_satisfy_identity(solved, cs):
    sp = solved("tn2", JLGH)
    t = sp.combination(cs)
    assert check(JLGH, t).holds
    assert space_member(sp, t)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_random_one_sided_combinations(solved, cs):
    sp = solved("mn3", LGH, Constraints(force_g_eq_h=True))
    assert sp.dim == 0
    jp = solved("tn2", LGH)
    t = jp.combination(cs)
    assert check(LGH, t).holds

"""Exact solver: frozen dimensions, certificates, and space predicates.

All dimensions here were computed independently before being frozen in;
the closed-form counts for the triangular and full matrix algebras follow
the patterns n(n+3)/2, 2n and n^2 over Q.
"""

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ghderiv import _linalg
from ghderiv.ring import (
    QQ,
    CompositeModulusUnsupported,
    RingMismatch,
    Zmod,
)
from ghderiv.algebra import StructureAlgebra, from_spec, upper_triangular, validate
from ghderiv.linmap import (
    LinMap,
    MapTriple,
    tn_jordan_family,
    tn_left_family,
    triple_to_doc,
)
from ghderiv.identities import IdentityKind, check
from ghderiv.solver import (
    Constraints,
    SolutionSpace,
    build_system,
    canonical_span,
    gh_collapse,
    nullspace,
    project_gh_injectivity,
    solve,
    space_contains,
    space_equal,
    space_member,
    row_to_triple,
    triple_to_row,
    verify_space,
)
from test_linalg import dense_gauss_jordan

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


def twist_base(d, seed=1):
    """The base change of ``twisted`` on d coordinates: (P, Pinv).

    P is the identity with d entries from {-2, 2, 3} set at seeded places
    above the diagonal, and P[d-1][d-1] = 2: det P = 2, a unit over Q and
    mod 5.  Entries are Fractions.
    """
    rng = random.Random(seed)
    P = [[Fraction(int(i == k)) for k in range(d)] for i in range(d)]
    above = [(i, k) for i in range(d) for k in range(i + 1, d)]
    for i, k in rng.sample(above, d):
        P[i][k] = Fraction(rng.choice((-2, 2, 3)))
    P[d - 1][d - 1] = Fraction(2)
    # P is upper triangular: back substitution, column by column.
    Pinv = [[Fraction(0)] * d for _ in range(d)]
    for c in range(d):
        for r in reversed(range(d)):
            rest = sum(P[r][k] * Pinv[k][c] for k in range(r + 1, d))
            Pinv[r][c] = (int(r == c) - rest) / P[r][r]
    return P, Pinv


def in_ring(x, ring):
    """The Fraction ``x`` as a raw value of ``ring``."""
    return x if ring.m is None else x.numerator * pow(x.denominator, -1, ring.m) % ring.m


def twisted(alg, seed=1):
    """``alg`` in the basis u_i = sum_k P[i][k] e_k, P from ``twist_base``.

    Then u_i u_j = sum P[i][k] P[j][l] sc[k][l][m] e_m and
    e_m = sum Pinv[m][n] u_n, and the unity is unity . Pinv.  Computed
    from ``sc`` by hand, not through the algebra's products.
    """
    d = alg.dim
    P, Pinv = twist_base(d, seed)

    def to_basis(e):  # coordinates on e -> coordinates on u, in the ring
        return [in_ring(sum(e[k] * Pinv[k][n] for k in range(d)), alg.ring) for n in range(d)]

    sc = [[to_basis([sum(P[i][k] * P[j][l] * alg.sc[k][l][n]
                         for k in range(d) if P[i][k] for l in range(d) if P[j][l])
                     for n in range(d)])
           for j in range(d)] for i in range(d)]
    return StructureAlgebra(ring=alg.ring, dim=d, labels=tuple(f"u{i}" for i in range(d)),
                            sc=sc, unity=to_basis(alg.unity))


@pytest.mark.parametrize("spec, ring", [
    ("tn2", QQ), ("tn3", QQ), ("mn2", QQ), ("quat", QQ),
    ("tn2", Zmod(5)), ("tn3", Zmod(5)), ("mn2", Zmod(5)),
], ids=str)
def test_twisted_algebras_keep_every_dimension(spec, ring):
    # Dimension is an isomorphism invariant, and a twisted table has what no
    # built-in has: constants other than +-1, and products of several terms.
    alg = from_spec(spec, ring)
    tw = twisted(alg)
    cells = [cell for row in tw.sc for cell in row]
    assert {c for cell in cells for c in cell} - {0, 1, ring.reduce(-1)}
    assert any(sum(map(bool, cell)) > 1 for cell in cells)
    dims = {kind.value: (solve(tw, kind).dim, solve(alg, kind).dim) for kind in IdentityKind}
    assert {k: dim for k, dim in dims.items() if dim[0] != dim[1]} == {}
    assert validate(tw)


@pytest.mark.parametrize("kind", [JLGH, LGH], ids=lambda k: k.value)
@pytest.mark.parametrize("spec, ring", [
    ("tn2", QQ), ("tn3", QQ), ("mn2", QQ), ("quat", QQ), ("mn3", QQ), ("tn4", QQ),
    ("tn2", Zmod(5)), ("tn3", Zmod(5)), ("mn2", Zmod(5)),
], ids=str)
def test_twisted_space_is_the_space_carried_through_the_isomorphism(spec, ring, kind):
    # u_i has e-coordinates row i of P, so with Phi = P^T a map M on the
    # built-in is Phi^-1 M Phi on the twisted copy, and Phi^-1 = Pinv^T.
    alg = from_spec(spec, ring)
    tw = twisted(alg)
    P, Pinv = twist_base(alg.dim)
    idx = range(alg.dim)

    def carry(m):
        rows = [[in_ring(sum(Pinv[r][i] * m.mat[r][c] * P[j][c]
                             for r in idx if Pinv[r][i] for c in idx if P[j][c]), ring)
                 for j in idx] for i in idx]
        return LinMap.from_rows(tw, rows)

    carried = [MapTriple(carry(t.f), carry(t.g), carry(t.h)) for t in solve(alg, kind).basis]
    assert canonical_span(tw, carried) == solve(tw, kind).canonical


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
            echelon, _ = _linalg.rref(build_system(sp.alg, kind).rows, sp.alg.ring)
            assert sp.rank == len(echelon)


def test_verify_space_accepts_honest_spaces(solved):
    assert verify_space(solved("tn2", JLGH))
    assert verify_space(solved("quat", LGH))


def _passes_substitution_and_rank(sp):
    """Certificates 1 and 2 of verify_space alone: every basis triple passes
    the checker, and dim is 3d^2 minus the rebuilt system's rank."""
    system = build_system(sp.alg, sp.kind, sp.constraints)
    rank = len(_linalg.rref(system.rows, sp.alg.ring)[0])
    return sp.rank == rank and all(check(sp.kind, t).holds for t in sp.basis)


def test_verify_space_rejects_tampering(solved):
    sp = solved("tn2", JLGH)
    t2 = sp.alg
    # A planted non-solution basis vector must trip the substitution check.
    planted = MapTriple(*[LinMap.identity(t2)] * 3)
    vec = triple_to_row(planted)
    assert not verify_space(dataclasses.replace(sp, canonical=sp.canonical[:-1] + (vec,)))
    row, last = sp.canonical[0], 3 * t2.dim ** 2 - 1
    perturbed = {**row, last: row.get(last, 0) + 1}
    assert not verify_space(dataclasses.replace(sp, canonical=(perturbed,) + sp.canonical[1:]))
    # A wrong dimension must trip rank-nullity.
    assert not verify_space(dataclasses.replace(
        sp, canonical=sp.canonical + (sp.canonical[0],)))
    # A space that lacks one solution passes substitution; rank-nullity
    # must reject it.
    assert not verify_space(dataclasses.replace(sp, canonical=sp.canonical[:-1]))
    # Each space below spans a subspace of the right dimension whose rows
    # are all solutions, so it passes substitution and rank-nullity; only
    # the scan of the stored nonzeros can reject it, one clause each.
    first, second = sp.canonical[:2]
    summed = {c: v for c in first.keys() | second.keys()
              if (v := first.get(c, 0) + second.get(c, 0))}
    p2 = min(second)
    scaled = {c: 2 * v for c, v in first.items()}
    pivots = {min(r) for r in sp.canonical}
    unused = min(set(range(last + 1)) - row.keys() - pivots)
    tampered = {
        # The right space, but not reduced: row 0 holds row 1's pivot.
        "summed rows": (summed,) + sp.canonical[1:],
        # Pivots must strictly ascend.
        "two rows swapped": (second, first) + sp.canonical[2:],
        # A pivot must hold 1.
        "pivot holds 2": (scaled,) + sp.canonical[1:],
        # Every row has a pivot: an empty row stands for none.
        "empty row": sp.canonical[:-1] + ({},),
        # A stored zero, off every pivot column, spans the same space but
        # breaks equality of canonical tuples, which space_equal relies on.
        "stored zero": ({**row, unused: 0},) + sp.canonical[1:],
    }
    assert summed[p2] and scaled[min(first)] == 2
    zeroed = dataclasses.replace(sp, canonical=tampered["stored zero"])
    assert zeroed.basis == sp.basis and zeroed.dim == sp.dim
    z5 = solved("poly(ring,2)", LGH, ring=Zmod(5))
    k, c = next((k, c) for k, r in enumerate(z5.canonical) for c, v in r.items() if v == 2)
    unreduced = z5.canonical[:k] + ({**z5.canonical[k], c: 7},) + z5.canonical[k + 1:]
    for name, canonical in tampered.items():
        bad = dataclasses.replace(sp, canonical=canonical)
        assert _passes_substitution_and_rank(bad), name
        assert not verify_space(bad), name
    # A residue must be stored in [0, 5): 7 stands for 2.
    bad = dataclasses.replace(z5, canonical=unreduced)
    assert _passes_substitution_and_rank(bad)
    assert not verify_space(bad)


def _tamper(data, sp):
    """One random change to the stored rows of ``sp``.  It may leave them
    as they are (a row swapped with itself); the caller skips those."""
    ring, rows, ncols = sp.alg.ring, list(sp.canonical), 3 * sp.alg.dim ** 2
    nonzero = (st.sampled_from([2, 3, 4]) if ring.m else
               st.fractions(-3, 3).filter(lambda x: x not in (0, 1)))
    pick = lambda: data.draw(st.integers(0, len(rows) - 1))
    how = data.draw(st.sampled_from(
        ["swap", "scale", "drop", "repeat", "empty", "zero", "add", "entry"]
        + (["unreduced"] if ring.m else [])))
    if how == "swap":
        i, j = pick(), pick()
        rows[i], rows[j] = rows[j], rows[i]
    elif how == "scale":
        i, x = pick(), data.draw(nonzero)
        rows[i] = {c: ring.reduce(x * v) for c, v in rows[i].items()}
    elif how == "drop":
        del rows[pick()]
    elif how == "repeat":
        rows.insert(pick(), rows[pick()])
    elif how == "empty":
        rows[pick()] = {}
    elif how == "zero":
        i = pick()
        free = sorted(set(range(ncols)) - rows[i].keys())
        rows[i] = {**rows[i], data.draw(st.sampled_from(free)): 0}
    elif how == "add":
        i, j, x = pick(), pick(), data.draw(nonzero)
        row = dict(rows[i])
        for c, v in rows[j].items():
            row[c] = ring.reduce(row.get(c, 0) + x * v)
        rows[i] = {c: v for c, v in row.items() if v}
    elif how == "entry":
        i, c, x = pick(), data.draw(st.integers(0, ncols - 1)), data.draw(nonzero)
        row = {**rows[i], c: ring.reduce(rows[i].get(c, 0) + x)}
        rows[i] = {c: v for c, v in row.items() if v}
    else:
        i = pick()
        c = data.draw(st.sampled_from(sorted(rows[i])))
        rows[i] = {**rows[i], c: rows[i][c] + 5 * data.draw(st.integers(1, 3))}
    return tuple(rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_space_rejects_any_tamper(solved, data):
    spec = data.draw(st.sampled_from(["tn2", "mn2", "tn3"]))
    kind = data.draw(st.sampled_from([LGH, JLGH]))
    ring = data.draw(st.sampled_from([QQ, Zmod(5)]))
    sp = solved(spec, kind, ring=ring)
    assume(sp.dim > 0)
    canonical = _tamper(data, sp)
    assume(canonical != sp.canonical)
    assert not verify_space(dataclasses.replace(sp, canonical=canonical))


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
    assert Constraints().describe() == "none"
    c = Constraints(force_g_eq_h=True, f_zero_basis=(0, 2))
    assert c.describe() == "g = h, f zero on basis [0, 2]"


# ---------------------------------------------------------------------------
# vector layout
# ---------------------------------------------------------------------------


def test_triple_vector_layout():
    t2 = upper_triangular(2)
    d = t2.dim
    g = LinMap.from_rows(t2, [[0, 0, 0], [0, 0, 7], [0, 0, 0]])
    t = MapTriple(g, g, LinMap.zero(t2))
    row = triple_to_row(t)
    # Entry (row 1, column 2) sits at offset 2*d + 1 inside its block.
    hot = 2 * d + 1
    assert str(row[hot]) == "7"
    assert str(row[d * d + hot]) == "7"
    assert row.keys() == {hot, d * d + hot}


def test_triple_vector_round_trip():
    t3 = upper_triangular(3)
    rng = random.Random(2)
    t = MapTriple(*(
        LinMap.from_rows(t3, [[rng.randint(-9, 9) for _ in range(6)]
                              for _ in range(6)])
        for _ in range(3)
    ))
    back = row_to_triple(t3, triple_to_row(t))
    assert back.f == t.f and back.g == t.g and back.h == t.h


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_triple_row_is_the_flattened_triple(data):
    """Over Q and Z/5, on dense and sparse triples: ``triple_to_row`` is
    the hand-written flatten, key order included, and ``row_to_triple``
    inverts it."""
    ring = data.draw(st.sampled_from([QQ, Zmod(5)]))
    alg = upper_triangular(data.draw(st.integers(1, 3)), ring=ring)
    d = alg.dim
    values = (st.sampled_from([1, -2, Fraction(1, 2), Fraction(-5, 3)]) if ring == QQ
              else st.integers(1, 4))
    dense = data.draw(st.booleans())
    mats = [[[data.draw(values) if dense or data.draw(st.integers(0, 4)) == 0 else 0
              for _ in range(d)] for _ in range(d)] for _ in range(3)]
    t = MapTriple(*(LinMap.from_rows(alg, m) for m in mats))
    want = {}
    for b, m in enumerate((t.f, t.g, t.h)):
        for j in range(d):
            for i in range(d):
                if m.mat[i][j]:
                    want[b * d * d + j * d + i] = m.mat[i][j]
    row = triple_to_row(t)
    assert list(row.items()) == list(want.items())
    assert row_to_triple(alg, row) == t


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


@st.composite
def spans_and_triple(draw):
    """Generator rows of two spaces of tn2 triples over Q or Z/5, and the row
    of one triple.  The second space and the triple combine the first
    space's generators, some of them plus a stray row, so containment and
    membership go both ways."""
    ring = draw(st.sampled_from([QQ, Zmod(5)]))
    alg = upper_triangular(2, ring=ring)
    ncols = 3 * alg.dim ** 2
    if ring.m is None:
        values = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    else:
        values = st.integers(1, 4)
    row = st.dictionaries(st.integers(0, ncols - 1),
                          values.filter(bool).map(ring.coerce), max_size=4)
    gens = draw(st.lists(row, max_size=4))

    def combined():
        acc = draw(row) if draw(st.booleans()) else {}
        for gen in gens:
            k = draw(st.integers(-2, 2))
            for c, v in gen.items():
                acc[c] = acc.get(c, 0) + k * v
        return {c: r for c, v in acc.items() if (r := ring.reduce(v))}

    others = [combined() for _ in range(draw(st.integers(0, 3)))]
    return alg, gens, others, combined()


@settings(max_examples=200, deadline=None)
@given(spans_and_triple())
def test_space_predicates_match_dense_rank(case):
    alg, gens, others, trow = case
    ncols = 3 * alg.dim ** 2

    def rank(rows):
        return len(dense_gauss_jordan(rows, ncols, alg.ring))

    def space(rows):
        canonical = canonical_span(alg, [row_to_triple(alg, r) for r in rows])
        return SolutionSpace(alg, JLGH, Constraints(), canonical)

    s1, s2 = space(gens), space(others)
    assert space_contains(s1, s2) == (rank(gens + others) == rank(gens))
    assert space_member(s1, row_to_triple(alg, trow)) == (rank(gens + [trow]) == rank(gens))


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


@pytest.mark.parametrize("spec, ring", [("tn3", QQ), ("mn2", QQ), ("tn3", Zmod(5))],
                         ids=["tn3-Q", "mn2-Q", "tn3-Z/5"])
@pytest.mark.parametrize("kind", [JLGH, LGH], ids=lambda k: k.value)
def test_combination_is_the_sum_of_scaled_basis_triples(solved, spec, ring, kind):
    sp = solved(spec, kind, ring=ring)
    rng = random.Random(f"{spec}:{ring.name}:{kind.value}")
    for _ in range(10):
        if ring == QQ:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(sp.dim)]
        else:
            coeffs = [rng.randint(-9, 9) for _ in range(sp.dim)]
        want = MapTriple.zero(sp.alg)
        for c, b in zip(coeffs, sp.basis):
            want = want + b.scale(c)
        got = sp.combination(coeffs)
        assert got == want
        for m, w in ((got.f, want.f), (got.g, want.g), (got.h, want.h)):
            assert [[type(v) for v in r] for r in m.mat] == [[type(v) for v in r] for r in w.mat]


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


@pytest.mark.parametrize("spec, kind, ring, constraints", [
    ("tn3", LGH, QQ, None),
    ("tn3", JLGH, Zmod(5), None),
    ("mn2", LGH, QQ, None),
    ("poly(tn2,1)", JLGH, QQ, None),
    ("tensor(tn2,tn2)", LGH, QQ, None),
    ("tn2", LGH, QQ, Constraints(force_g_eq_h=True)),
], ids=["tn3-left-gh", "tn3-jordan-left-gh-Z/5", "mn2-left-gh", "poly-tn2-1",
        "tensor-tn2-tn2", "tn2-g-eq-h"])
def test_space_doc_matches_triple_docs(solved, spec, kind, ring, constraints):
    """The document reshapes the formatted canonical rows into the basis;
    it must be, byte for byte, the one built from the basis triples."""
    sp = solved(spec, kind, constraints, ring=ring)
    fmt, ncols = ring.format, 3 * sp.alg.dim ** 2
    want = {
        "algebra_dim": sp.alg.dim,
        "ring": ring.to_doc(),
        "kind": kind.value,
        "constraints": sp.constraints.describe(),
        "dim": sp.dim,
        "basis": [{k: v for k, v in triple_to_doc(t).items() if k != "algebra"}
                  for t in sp.basis],
        "canonical": [[fmt(row.get(c, 0)) for c in range(ncols)] for row in sp.canonical],
    }
    assert json.dumps(sp.to_doc(), indent=2) == json.dumps(want, indent=2)


def _random_triple(alg, rng):
    def rand_map():
        return LinMap.from_rows(
            alg, [[rng.randint(-3, 3) for _ in range(alg.dim)] for _ in range(alg.dim)]
        )
    return MapTriple(rand_map(), rand_map(), rand_map())


def test_system_evaluate(solved):
    """The compiled rows and the checker read one identity table, so for
    every kind a solved space holds exactly the triples the checker
    passes, solutions and random triples that fail alike; a constrained
    space also honours its constraint rows."""
    sp = solved("tn2", LGH)
    for t in sp.basis:
        assert space_member(sp, t)
    assert not space_member(sp, MapTriple(*[LinMap.identity(sp.alg)] * 3))
    rng = random.Random(2024)
    for kind in IdentityKind:
        failing = 0
        for spec, ring in (("tn2", QQ), ("mn2", QQ), ("quat", QQ), ("ring", Zmod(5)),
                           ("poly(ring,1)", QQ)):
            sp = solved(spec, kind, ring=ring)
            constrained = solved(spec, kind, Constraints(force_f_zero=True), ring=ring)
            holding = list(sp.basis)
            if sp.dim:
                holding.append(sp.combination([rng.randint(-5, 5) for _ in range(sp.dim)]))
            for t in holding:
                assert space_member(sp, t) and check(kind, t).holds, (spec, kind)
                assert space_member(constrained, t) is t.f.is_zero(), (spec, kind)
            for _ in range(4):
                t = _random_triple(sp.alg, rng)
                report = check(kind, t)
                assert space_member(sp, t) == report.holds, (spec, kind)
                assert not space_member(constrained, t) or report.holds, (spec, kind)
                failing += not report.holds
        assert failing, f"no random triple fails {kind.value}"


def test_check_ignores_constraint_rows(solved):
    """An unconstrained space answers for the identity alone; a
    constrained one also honours the constraint rows."""
    sp = solved("tn2", LGH)
    t = next(t for t in sp.basis if not t.f.is_zero())
    assert check(LGH, t).holds
    assert space_member(sp, t)
    assert not space_member(solved("tn2", LGH, Constraints(force_f_zero=True)), t)


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

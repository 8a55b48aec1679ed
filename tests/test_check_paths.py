"""The identity evaluator and the row compiler, pinned to brute force.

Evaluating every identity, written out below by hand, at every ordered
basis pair gives the reference report.  ``identities.check`` interprets
the identity table at every basis pair on sparse coordinates and must
give that report: the same verdict, and the same lex-first counterexample
with both sides.  Over a field, the solved space of the compiled rows
must hold the triple (``space_member``) exactly when the verdict is
"holds".  The cases run up to dimension 12, on dense triples and on
sparse ones (basis triples of solved spaces, single-column maps).
``identities.identity_sides`` must give the hand-written sides at any two
elements, not only basis vectors.  The rows ``solver.build_system`` emits
must be the ones the same hand-written identities give on maps whose
entries are unknowns, over Q, Z/5 and Z/4, and they must be the
interpreter's own Jacobian, row for row and position for position, on
built-in and twisted algebras: the premise ``solver.verify_space``'s rank
certificate rests on.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ghderiv.algebra import AlgebraMismatch, from_spec
from ghderiv.identities import IdentityKind, _evaluate, check, identity_sides, templates_at
from ghderiv.linmap import LinMap, MapTriple
from ghderiv.ring import QQ, Zmod
from ghderiv.cli import main
from ghderiv.solver import Constraints, build_system, space_member
from test_solver import twisted

K = IdentityKind


def _sum(*vs):
    return [sum(cs) for cs in zip(*vs)]


def _twice(v):
    return [2 * c for c in v]


# kind -> (f, g, h, a, b, mul) -> [(lhs, rhs), ...], one pair per equation,
# in the order the identities are stated; dense coordinate lists.
BRUTE = {
    K.DERIVATION: lambda f, g, h, a, b, m: [
        (f(m(a, b)), _sum(m(f(a), b), m(a, f(b))))],
    K.LEFT_DERIVATION: lambda f, g, h, a, b, m: [
        (f(m(a, b)), _sum(m(a, f(b)), m(b, f(a))))],
    K.GH_DERIVATION: lambda f, g, h, a, b, m: [
        (f(m(a, b)), _sum(m(g(a), b), m(a, h(b)))),
        (f(m(a, b)), _sum(m(h(a), b), m(a, g(b))))],
    K.LEFT_GH: lambda f, g, h, a, b, m: [
        (f(m(a, b)), _sum(m(a, g(b)), m(b, h(a)))),
        (f(m(a, b)), _sum(m(a, h(b)), m(b, g(a))))],
    K.JORDAN_LEFT_GH: lambda f, g, h, a, b, m: [
        (_sum(f(m(a, b)), f(m(b, a))), _twice(_sum(m(a, g(b)), m(b, h(a)))))],
    K.LEFT_CENTRALIZER: lambda f, g, h, a, b, m: [(f(m(a, b)), m(f(a), b))],
    K.RIGHT_CENTRALIZER: lambda f, g, h, a, b, m: [(f(m(a, b)), m(a, f(b)))],
}


def _jordan_derivation(i, j):
    # D(a^2) = D(a)a + aD(a) on basis squares, its polarization for i < j.
    if i == j:
        return lambda f, g, h, a, b, m: [(f(m(a, a)), _sum(m(f(a), a), m(a, f(a))))]
    if i < j:
        return lambda f, g, h, a, b, m: [(
            _sum(f(m(a, b)), f(m(b, a))),
            _sum(m(f(a), b), m(a, f(b)), m(f(b), a), m(b, f(a))))]
    return lambda *_: []


def brute_ops(t):
    """f, g, h and the product on dense coordinate lists, read off the dense
    matrices and table; zero arguments are skipped, nothing else is."""
    alg = t.alg
    d = alg.dim

    def mul(a, b):
        out = [0] * d
        for p in range(d):
            for q in range(d):
                if a[p] and b[q]:
                    for k, c in enumerate(alg.sc[p][q]):
                        out[k] += a[p] * b[q] * c
        return out

    def apply(m):
        return lambda v: [sum(m.mat[r][c] * v[c] for c in range(d)) for r in range(d)]

    return apply(t.f), apply(t.g), apply(t.h), mul


def brute_force_doc(kind, t):
    """Evaluate the identity at every ordered basis pair in lex order."""
    alg = t.alg
    d, ring = alg.dim, alg.ring
    f, g, h, mul = brute_ops(t)
    for i in range(d):
        for j in range(d):
            a = [int(k == i) for k in range(d)]
            b = [int(k == j) for k in range(d)]
            sides = (_jordan_derivation(i, j) if kind is K.JORDAN_DERIVATION
                     else BRUTE[kind])(f, g, h, a, b, mul)
            for lhs, rhs in sides:
                lhs, rhs = [ring.reduce(v) for v in lhs], [ring.reduce(v) for v in rhs]
                if lhs != rhs:
                    return {"holds": False, "counterexample": {
                        "i": i, "j": j,
                        "lhs": [ring.format(v) for v in lhs],
                        "rhs": [ring.format(v) for v in rhs]}}
    return {"holds": True}


SPECS = {
    QQ: ("tn2", "tn3", "mn2", "quat", "poly(ring,1)", "poly(tn2,1)", "tn4", "poly(mn2,2)"),
    Zmod(4): ("tn2", "mn2", "poly(ring,2)"),
    Zmod(5): ("tn2", "tn3", "mn2", "tn4"),
}


@st.composite
def kind_and_triple(draw, solved):
    ring = draw(st.sampled_from(list(SPECS)))
    spec = draw(st.sampled_from(SPECS[ring]))
    kind = draw(st.sampled_from(list(IdentityKind)))
    alg = from_spec(spec, ring)
    d = alg.dim
    values = (st.integers(-3, 3) if ring.m is None else st.integers(0, ring.m - 1))
    base = draw(st.sampled_from(["zero", "identity", "solution", "basis", "column"]))
    if base in ("solution", "basis") and ring.is_field():
        sp = solved(spec, kind, ring=ring)
        if base == "solution" or not sp.dim:
            sol = sp.combination([draw(values) for _ in range(sp.dim)])
        else:
            sol = sp.basis[draw(st.integers(0, sp.dim - 1))]
        mats = [list(map(list, m.mat)) for m in (sol.f, sol.g, sol.h)]
    elif base == "identity":
        mats = [[[int(r == c) for c in range(d)] for r in range(d)] for _ in range(3)]
    elif base == "column":
        # Each map is nonzero on one basis vector at most.
        cols = [draw(st.integers(0, d - 1)) for _ in range(3)]
        mats = [[[draw(values) if c == col else 0 for c in range(d)] for _ in range(d)]
                for col in cols]
    else:
        mats = [[[0] * d for _ in range(d)] for _ in range(3)]
    if draw(st.booleans()):
        # Dense: every entry drawn; such triples nearly always fail early.
        mats = [[[draw(values) for _ in range(d)] for _ in range(d)] for _ in range(3)]
    else:
        # Sparse: a few entries changed, so failures can sit at any pair.
        for _ in range(draw(st.integers(0, 3))):
            m, r, c = draw(st.integers(0, 2)), draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
            mats[m][r][c] = draw(values)
    return spec, kind, MapTriple(*(LinMap.from_rows(alg, m) for m in mats))


@pytest.fixture(scope="module")
def draw_case(solved):
    return kind_and_triple(solved)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_compiled_check_and_interpreter_match_brute_force(solved, draw_case, data):
    spec, kind, t = data.draw(draw_case)
    want = brute_force_doc(kind, t)
    report = check(kind, t)
    assert report.to_doc() == want
    assert bool(report) is want["holds"]
    ring = t.alg.ring
    if ring.is_field():
        assert space_member(solved(spec, kind, ring=ring), t) is want["holds"]


ELEMENT_SPECS = {
    QQ: ("tn3", "mn2", "quat", "poly(tn2,1)", "tn4"),
    Zmod(5): ("tn3", "mn2", "poly(tn2,1)", "tn4"),
}


# Whole numbers and fractions over Q; st.fractions builds a strategy per
# draw, far too slow for hundreds of entries an example.
Q_VALUES = st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3)])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_identity_sides_match_brute_force(data):
    """At any two elements, each template's sides are the hand-written ones."""
    ring = data.draw(st.sampled_from(list(ELEMENT_SPECS)))
    alg = from_spec(data.draw(st.sampled_from(ELEMENT_SPECS[ring])), ring)
    kind = data.draw(st.sampled_from(list(IdentityKind)))
    d = alg.dim
    n = 3 * d * d + 2 * d
    values = Q_VALUES if ring.m is None else st.integers(0, ring.m - 1)
    entries = data.draw(st.lists(values, min_size=n, max_size=n))
    t = MapTriple(*(LinMap.from_rows(alg, [entries[(m * d + r) * d:(m * d + r + 1) * d]
                                           for r in range(d)]) for m in range(3)))
    a, b = alg.element(entries[-2 * d:-d]), alg.element(entries[-d:])
    # The two-argument form of the square identity is its polarization.
    brute = _jordan_derivation(0, 1) if kind is K.JORDAN_DERIVATION else BRUTE[kind]
    f, g, h, mul = brute_ops(t)
    want = [tuple(tuple(ring.reduce(v) for v in side) for side in sides)
            for sides in brute(f, g, h, list(a.coords), list(b.coords), mul)]
    got = [(lhs.coords, rhs.coords) for lhs, rhs in identity_sides(kind, t, a, b)]
    assert got == want


def test_identity_sides_reject_another_algebra():
    # poly(ring,2) has the dimension of tn2 but another product.
    t = MapTriple(*[LinMap.identity(from_spec("tn2"))] * 3)
    for other in (from_spec("poly(ring,2)"), from_spec("tn2", Zmod(5)), from_spec("mn2")):
        x, y = other.one(), t.alg.one()
        for a, b in ((x, y), (y, x), (x, x)):
            with pytest.raises(AlgebraMismatch):
                identity_sides(K.LEFT_GH, t, a, b)
    assert identity_sides(K.LEFT_GH, t, from_spec("tn2").one(), t.alg.one())


class Form(dict):
    """A linear form in the solver's unknowns: {column: coefficient}."""

    def __add__(self, other):
        if not isinstance(other, Form):
            assert other == 0
            return self
        out = Form(self)
        for col, v in other.items():
            out[col] = out.get(col, 0) + v
        return out

    __radd__ = __add__

    def __mul__(self, c):
        return Form({col: c * v for col, v in self.items()})

    __rmul__ = __mul__


def dense_rows(alg, kind):
    """The identity rows compiled from ``alg.sc`` by brute force.

    The maps f, g and h take the unknown matrices: entry (r, c) of the
    k-th map is column k d^2 + c d + r (f, g, h blocks, column-major).
    Every hand-written identity side is then a vector of linear forms,
    and each coordinate of lhs - rhs is one row, in (i, j, coordinate,
    equation) order, empty rows included.
    """
    d, ring, sc = alg.dim, alg.ring, alg.sc

    def mul(a, b):
        out = [0] * d
        for p in range(d):
            for q in range(d):
                if a[p] and b[q]:
                    for k in range(d):
                        if sc[p][q][k]:
                            out[k] = out[k] + a[p] * b[q] * sc[p][q][k]
        return out

    def unknown(block):
        return lambda v: [Form({block * d * d + c * d + r: v[c] for c in range(d) if v[c]})
                          for r in range(d)]

    f, g, h = unknown(0), unknown(1), unknown(2)
    rows = []
    for i in range(d):
        for j in range(d):
            a = [int(k == i) for k in range(d)]
            b = [int(k == j) for k in range(d)]
            sides = (_jordan_derivation(i, j) if kind is K.JORDAN_DERIVATION
                     else BRUTE[kind])(f, g, h, a, b, mul)
            for m in range(d):
                for lhs, rhs in sides:
                    diff = Form() + lhs[m] + (-1) * (Form() + rhs[m])
                    rows.append({col: r for col, v in diff.items() if (r := ring.reduce(v))})
    return rows


@pytest.mark.parametrize("spec,ring", [
    ("tn3", QQ), ("mn2", QQ), ("quat", QQ), ("poly(tn2,1)", QQ),
    ("tensor(tn2,tn2)", QQ), ("tn3", Zmod(5)), ("tn2", Zmod(4)), ("mn2", Zmod(4)),
    ("poly(ring,2)", Zmod(4)), ("tn4", QQ),
], ids=str)
def test_emitted_rows_match_dense_compile(spec, ring):
    alg = from_spec(spec, ring)
    for kind in IdentityKind:
        system, rows = build_system(alg, kind), dense_rows(alg, kind)
        # Only the nonempty rows are stored, each at its place in the layout.
        assert dict(zip(system.positions, system.rows)) == {
            p: row for p, row in enumerate(rows) if row}, kind
        assert list(system.positions) == sorted(system.positions), kind
        assert system.nrows == len(rows), kind
        assert system.to_doc()["rows"] == [
            [ring.format(row.get(c, 0)) for c in range(system.ncols)] for row in rows
        ], kind


def jacobian_rows(alg, kind):
    """{layout position: row} of the identity rows, read off the interpreter.

    The interpreter is linear in the triple, so evaluated on the unit triple
    whose one nonzero entry is entry (r, k) of block b, column b d^2 + k d + r
    of the system, it gives that column of every row: lhs - rhs at
    coordinate m of template t of pair (i, j) is the entry of the row at
    position start(i, j) + m T + t, with T templates at the pair.
    """
    d, reduce = alg.dim, alg.ring.reduce
    rows, start = {}, 0
    for i in range(d):
        for j in range(d):
            templates = templates_at(kind, i, j)
            n = len(templates)
            for b, name in enumerate("fgh"):
                for k in range(d):
                    for r in range(d):
                        cols = {m: [{}] * d for m in "fgh"}
                        cols[name] = [{r: 1} if c == k else {} for c in range(d)]
                        sides = _evaluate(templates, cols, alg, ((i, j, 1),))
                        for t, (lhs, rhs) in enumerate(sides):
                            for m in lhs.keys() | rhs.keys():
                                if v := reduce(lhs.get(m, 0) - rhs.get(m, 0)):
                                    row = rows.setdefault(start + m * n + t, {})
                                    row[b * d * d + k * d + r] = v
            start += d * n
    return rows


@pytest.mark.parametrize("spec,ring,twist", [
    (spec, ring, twist) for spec, ring in [
        ("tn2", QQ), ("tn3", QQ), ("mn2", QQ), ("quat", QQ),
        ("tn2", Zmod(5)), ("tn3", Zmod(5)), ("mn2", Zmod(5))]
    for twist in (False, True)
] + [
    # twisted's base change has determinant 2, no unit mod 4, and needs d >= 3.
    ("tn2", Zmod(4), False), ("mn2", Zmod(4), False), ("poly(ring,2)", Zmod(4), False),
], ids=str)
def test_compiled_rows_are_the_interpreters_jacobian(spec, ring, twist):
    alg = from_spec(spec, ring)
    if twist:
        alg = twisted(alg)
    for kind in IdentityKind:
        system = build_system(alg, kind)
        assert dict(zip(system.positions, system.rows)) == jacobian_rows(alg, kind), kind


def test_constraint_rows_follow_the_identity_rows(solved):
    """With every constraint at once: the solved space honours the
    constraint rows, which the unconstrained system lacks, and the
    document prints them last."""
    alg = from_spec("tn2")
    d, ring = alg.dim, alg.ring
    cons = Constraints(force_g_eq_h=True, force_f_zero=True, f_zero_basis=(1,))
    system, rows = build_system(alg, K.LEFT_GH, cons), dense_rows(alg, K.LEFT_GH)
    tail = ([{d * d + c: 1, 2 * d * d + c: ring.reduce(-1)} for c in range(d * d)]
            + [{c: 1} for c in range(d * d)] + [{d + m: 1} for m in range(d)])
    assert system.nrows == len(rows) + len(tail)
    assert dict(zip(system.positions, system.rows)) == {
        p: row for p, row in enumerate(rows + tail) if row}
    lines = system.to_doc()["rows"]
    assert lines[len(rows):] == [
        [ring.format(row.get(c, 0)) for c in range(system.ncols)] for row in tail]
    # A solution of the identity alone with f != 0 breaks f = 0; the
    # identity triple breaks the identity itself.
    free, constrained = solved("tn2", K.LEFT_GH), solved("tn2", K.LEFT_GH, cons)
    holding = next(t for t in free.basis if not t.f.is_zero())
    assert check(K.LEFT_GH, holding).to_doc() == {"holds": True}
    assert not space_member(constrained, holding)
    assert space_member(free, holding)
    failing = MapTriple(*[LinMap.identity(alg)] * 3)
    assert not check(K.LEFT_GH, failing).holds
    assert not space_member(constrained, failing)
    assert not space_member(free, failing)
    # Over the CLI the document prints the constraint rows after the rest.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", "--algebra", "tn2", "--kind", "left-gh", "--g-eq-h",
                     "--f-zero", "--f-zero-on", "1", "--emit-system"]) == 0
    assert json.loads(out.getvalue())["system"]["rows"] == lines

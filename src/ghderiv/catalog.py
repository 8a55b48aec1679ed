"""The built-in verification catalog.

Each entry packages one self-contained mathematical claim about the
identity classes handled by this package (a dimension formula, a worked
counterexample, a transfer property) together with a procedure that checks
it from scratch using exact arithmetic.  Entries carry an ``origin`` tag
saying how the expected value was fixed:

* ``formula``     a stated closed form or dimension count,
* ``elementary``  direct arithmetic small enough to confirm by hand,
* ``recomputed``  derived here and cross-checked by independent certificates.

Entries with status ``note`` are findings for inspection; they never fail
the suite.  Everything else must pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .ring import QQ, CompositeModulusUnsupported, RingSpec, Zmod
from . import algebra as alg_mod
from .algebra import (
    AlgElement,
    StructureAlgebra,
    from_spec,
    is_commutative,
    ring_as_algebra,
    tensor_product,
    truncated_poly,
)
from .linmap import (
    LinMap,
    MapTriple,
    left_mul_map,
    mn_jordan_family,
    poly_lift_triple,
    quat_jordan_family,
    right_mul_map,
    tensor_extend_triple,
    tn_jordan_family,
    tn_left_family,
    triple_to_doc,
)
from . import identities as ident
from .identities import IdentityKind
from . import solver
from .solver import Constraints

import random

__all__ = [
    "CatalogEntry",
    "EntryResult",
    "RunReport",
    "entries",
    "run_catalog",
    "worked_cases",
    "traceability_table",
]

JLGH = IdentityKind.JORDAN_LEFT_GH
LGH = IdentityKind.LEFT_GH


class CheckFailed(AssertionError):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    title: str
    claim: str
    origin: str  # "formula" | "elementary" | "recomputed"
    run: object  # callable(Context) -> (status, detail)
    note_only: bool = False


@dataclass(frozen=True)
class EntryResult:
    id: str
    title: str
    origin: str
    status: str  # "pass" | "fail" | "note"
    detail: str
    seconds: float

    def to_doc(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "origin": self.origin,
            "status": self.status,
            "detail": self.detail,
            "seconds": round(self.seconds, 4),
        }


@dataclass
class RunReport:
    results: list

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for r in self.results:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def to_doc(self) -> dict:
        return {
            "ok": self.ok,
            "counts": self.counts(),
            "entries": [r.to_doc() for r in self.results],
        }


class Context:
    """Memoizes algebras and verified solution spaces across entries.

    ``spaces`` maps (algebra, kind, constraints) to a solved space that
    passed ``verify_space``; algebras key by structure, so equal copies
    share one entry.
    """

    def __init__(self):
        self._algebras: dict = {}
        self.spaces: dict = {}

    def alg(self, spec: str, ring: RingSpec = QQ) -> StructureAlgebra:
        key = (spec, ring)
        if key not in self._algebras:
            self._algebras[key] = from_spec(spec, ring)
        return self._algebras[key]

    def space(self, a: StructureAlgebra, kind: IdentityKind,
              constraints: Constraints | None = None):
        key = (a, kind, constraints or Constraints())
        if key not in self.spaces:
            sp = solver.solve(a, kind, constraints)
            require(
                solver.verify_space(sp),
                f"certificates failed for {kind.value} space on {a}",
            )
            self.spaces[key] = sp
        return self.spaces[key]


# ---------------------------------------------------------------------------
# small shared builders
# ---------------------------------------------------------------------------


def q_pair_algebra() -> StructureAlgebra:
    """Q x Q with basis (u, v), u^2 = u, v^2 = v, uv = vu = 0, unity u + v."""
    sc = (((1, 0), (0, 0)), ((0, 0), (0, 1)))
    return StructureAlgebra(ring=QQ, dim=2, labels=("u", "v"), sc=sc, unity=(1, 1))


def _family_span_matches(space, triples) -> bool:
    return solver.canonical_span(space.alg, triples) == space.canonical


def _tri_jordan_generators(n: int, ring=QQ):
    npos = n * (n + 1) // 2
    out = []
    for k in range(npos):
        gp = [1 if t == k else 0 for t in range(npos)]
        out.append(tn_jordan_family(n, gp, [0] * n, ring))
    for k in range(n):
        hp = [1 if t == k else 0 for t in range(n)]
        out.append(tn_jordan_family(n, [0] * npos, hp, ring))
    return out

def _tri_left_generators(n: int, ring=QQ):
    out = []
    for k in range(n):
        e = [1 if t == k else 0 for t in range(n)]
        out.append(tn_left_family(n, e, [0] * n, ring))
        out.append(tn_left_family(n, [0] * n, e, ring))
    return out


def _mn_jordan_generators(n: int, a: StructureAlgebra):
    return [mn_jordan_family(n, a.basis_element(k)) for k in range(a.dim)]


def _quat_jordan_generators(q: StructureAlgebra):
    return [quat_jordan_family(q.basis_element(k)) for k in range(4)]


# ---------------------------------------------------------------------------
# the worked cases (exact counterexamples with frozen witnesses)
# ---------------------------------------------------------------------------


def _case_z4():
    a = ring_as_algebra(Zmod(4))
    f = LinMap.from_rows(a, [[2]])
    return a, MapTriple(f, f, f)


def _case_t2_left_not_two_sided(ctx):
    # The coherent variant: g = right multiplication by e11.  Left
    # multiplication by e11 fails the one-sided identity as well, which the
    # run function checks explicitly.
    t2 = ctx.alg("tn2")
    g = right_mul_map(t2.basis_element(0))
    return t2, MapTriple(LinMap.zero(t2), g, -g)


def _case_t2_two_sided_not_left(ctx):
    t2 = ctx.alg("tn2")
    a = t2.element([1, 1, 1])
    g = left_mul_map(a) - right_mul_map(a)
    f = LinMap.identity(t2) + g
    return t2, MapTriple(f, f, g)


def _case_t2_jordan_not_left():
    return tn_jordan_family(2, [1, 2, 3], [4, 5])


def _case_t2_left_nonzero():
    return tn_left_family(2, [1, 0], [0, 1])


def _case_t2_jordan_not_centralizer(ctx):
    t2 = ctx.alg("tn2")
    g = LinMap.from_rows(t2, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    h = LinMap.from_rows(t2, [[-1, 0, 0], [1, -1, 0], [0, 0, -1]])
    return t2, MapTriple(g + h, g, h)


def _case_m2_jordan_not_left(ctx):
    m2 = ctx.alg("mn2")
    return m2, mn_jordan_family(2, m2.element([1, 2, 3, 4]))


def _case_m2_jordan_not_centralizer(ctx):
    m2 = ctx.alg("mn2")
    g = LinMap.from_rows(
        m2,
        [[1, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 1, -1], [0, 0, -1, 0]],
    )
    return m2, MapTriple(g.scale(2), g, g)


def _case_quat_doubling(ctx):
    q = ctx.alg("quat")
    return q, quat_jordan_family(q.one())


def _case_quat_not_left_centralizer(ctx):
    q = ctx.alg("quat")
    return q, quat_jordan_family(q.element([1, 2, 3, 4]))


def worked_cases(ctx: Context | None = None) -> dict:
    """The ten worked counterexample triples, keyed by catalog entry id."""
    ctx = ctx or Context()
    return {
        "case-z4-doubling": _case_z4()[1],
        "case-t2-left-not-two-sided": _case_t2_left_not_two_sided(ctx)[1],
        "case-t2-two-sided-not-left": _case_t2_two_sided_not_left(ctx)[1],
        "case-t2-jordan-not-left": _case_t2_jordan_not_left(),
        "case-t2-left-nonzero": _case_t2_left_nonzero(),
        "case-t2-jordan-not-centralizer": _case_t2_jordan_not_centralizer(ctx)[1],
        "case-m2-jordan-not-left": _case_m2_jordan_not_left(ctx)[1],
        "case-m2-jordan-not-centralizer": _case_m2_jordan_not_centralizer(ctx)[1],
        "case-quat-doubling": _case_quat_doubling(ctx)[1],
        "case-quat-right-not-left-centralizer": _case_quat_not_left_centralizer(ctx)[1],
    }


def _sides(kind, t, a, b, template=0):
    return ident.identity_sides(kind, t, a, b)[template]


def _run_case_z4(ctx):
    a, t = _case_z4()
    require(ident.is_jordan_left_gh_derivation(t).holds, "two-sided identity fails")
    rep = ident.is_left_gh_derivation(t)
    require(not rep.holds, "one-sided identity unexpectedly holds")
    ce = rep.counterexample
    require((ce.i, ce.j) == (0, 0), f"counterexample pair {(ce.i, ce.j)}")
    doc = ce.to_doc()
    require(doc["lhs"][0] == "2 mod 4", f"lhs {doc['lhs']}")
    require(doc["rhs"][0] == "0 mod 4", f"rhs {doc['rhs']}")
    require(not a.ring.two_torsion_free(), "Z/4Z reported 2-torsion free")
    try:
        solver.solve(a, JLGH)
    except CompositeModulusUnsupported:
        pass
    else:
        raise CheckFailed("solver accepted a composite modulus")
    return "pass", "doubling passes two-sided, fails one-sided at (1,1): 2 vs 4=0; solver refuses Z/4Z"


def _run_case_t2_left_not_two_sided(ctx):
    t2, t = _case_t2_left_not_two_sided(ctx)
    e11, e12 = t2.basis_element(0), t2.basis_element(1)
    # Right-multiplication variant: the separation works.
    require(ident.is_left_gh_derivation(t).holds, "one-sided identity fails")
    rep = ident.is_gh_derivation(t)
    require(not rep.holds, "two-sided form unexpectedly holds")
    ce = rep.counterexample
    require((ce.i, ce.j) == (0, 1), f"counterexample pair {(ce.i, ce.j)}")
    require(ce.rhs == e12 and ce.lhs.is_zero(), "witness value is not e12 vs 0")
    # Left-multiplication variant: same witness value on the two-sided side,
    # but the one-sided identity fails too, at (e11, e12).
    gl = left_mul_map(e11)
    tl = MapTriple(LinMap.zero(t2), gl, -gl)
    repl = ident.is_gh_derivation(tl)
    require(not repl.holds, "left-mult two-sided form unexpectedly holds")
    cel = repl.counterexample
    require((cel.i, cel.j) == (1, 2), f"left-mult counterexample {(cel.i, cel.j)}")
    require(cel.rhs == e12 and cel.lhs.is_zero(), "left-mult witness is not e12 vs 0")
    repll = ident.is_left_gh_derivation(tl)
    require(not repll.holds, "left-mult one-sided identity unexpectedly holds")
    cell = repll.counterexample
    require((cell.i, cell.j) == (0, 1), f"one-sided failure at {(cell.i, cell.j)}")
    require(cell.rhs == e12, f"one-sided failure value {cell.rhs}")
    return "pass", (
        "zero map with (g, -g), g = right mult by e11: one-sided holds, "
        "two-sided fails at (e11, e12) with value e12; the left-mult variant "
        "fails the two-sided form at (e12, e22) with the same value but is "
        "not a one-sided solution either (fails at (e11, e12))"
    )


def _run_case_t2_two_sided_not_left(ctx):
    t2, t = _case_t2_two_sided_not_left(ctx)
    require(ident.is_gh_derivation(t).holds, "two-sided form fails")
    rep = ident.is_left_gh_derivation(t)
    require(not rep.holds, "one-sided identity unexpectedly holds")
    lhs, rhs = _sides(LGH, t, t2.basis_element(0), t2.basis_element(2))
    require(lhs.is_zero(), f"lhs {lhs}")
    require(rhs == t2.basis_element(1), f"rhs {rhs}")
    return "pass", "x + (ax - xa): two-sided holds, one-sided fails at (e11, e22) with rhs e12"


def _run_case_t2_jordan_not_left(ctx):
    t = _case_t2_jordan_not_left()
    t2 = t.alg
    want_f = LinMap.from_rows(t2, [[5, 0, 0], [7, 6, 0], [0, 0, 6]])
    want_g = LinMap.from_rows(t2, [[1, 0, 0], [2, 3, 0], [0, 0, 3]])
    want_h = LinMap.from_rows(t2, [[4, 0, 0], [5, 3, 0], [0, 0, 3]])
    require(
        t.f == want_f and t.g == want_g and t.h == want_h,
        "family output differs from the frozen matrices",
    )
    require(ident.is_jordan_left_gh_derivation(t).holds, "two-sided identity fails")
    require(not ident.is_left_gh_derivation(t).holds, "one-sided unexpectedly holds")
    e11, e12 = t2.basis_element(0), t2.basis_element(1)
    lhs, rhs = _sides(LGH, t, e12, e11)
    require(lhs.is_zero(), f"lhs {lhs}")
    require(rhs == e12.scale(3), f"rhs {rhs}")
    # The two-sided symmetrized-output form fails here too: 6e12 vs 7e12.
    lhs2 = t.f(alg_mod.jordan_product(e12, e11))
    rhs2 = alg_mod.jordan_product(t.g(e12), e11) + alg_mod.jordan_product(
        e12, t.h(e11)
    )
    require(lhs2 == e12.scale(6) and rhs2 == e12.scale(7), "6e12 vs 7e12 check failed")
    return "pass", "family(1,2,3;4,5): two-sided holds, one-sided fails at (e12, e11) with rhs 3e12"


def _run_case_t2_left_nonzero(ctx):
    t = _case_t2_left_nonzero()
    t2 = t.alg
    want_f = LinMap.from_rows(t2, [[1, 0, 0], [1, 0, 0], [0, 0, 0]])
    require(t.f == want_f, "family output differs from the frozen matrix")
    require(ident.is_left_gh_derivation(t).holds, "one-sided identity fails")
    require(not ident.is_gh_derivation(t).holds, "two-sided form unexpectedly holds")
    e11, e12 = t2.basis_element(0), t2.basis_element(1)
    b = e11 + e12
    lhs, rhs = _sides(IdentityKind.GH_DERIVATION, t, e11, b)
    require(lhs == b, f"lhs {lhs}")
    require(rhs == e11 + e12.scale(2), f"rhs {rhs}")
    return "pass", "nonzero one-sided solution; two-sided fails at (e11, e11+e12): e11+e12 vs e11+2e12"


def _run_case_t2_jordan_not_centralizer(ctx):
    t2, t = _case_t2_jordan_not_centralizer(ctx)
    require(ident.is_jordan_left_gh_derivation(t).holds, "two-sided identity fails")
    want_f = LinMap.from_rows(t2, [[0, 0, 0], [1, -2, 0], [0, 0, -2]])
    require(t.f == want_f, "f differs from the frozen matrix")
    A = t2.element([1, 2, 3])
    B = t2.element([4, 5, 6])
    for m in (t.g, t.h, t.f):
        require(not ident.is_left_centralizer(m).holds, "map is a left centralizer")
        require(m(A * B) != m(A) * B, "witness pair fails to separate")
    return "pass", "two-sided solution whose f, g, h all fail f(AB) = f(A)B at A=(1,2;0,3), B=(4,5;0,6)"


def _run_case_m2_jordan_not_left(ctx):
    m2, t = _case_m2_jordan_not_left(ctx)
    want_f = LinMap.from_rows(
        m2, [[2, 6, 0, 0], [4, 8, 0, 0], [0, 0, 2, 6], [0, 0, 4, 8]]
    )
    want_g = LinMap.from_rows(
        m2, [[1, 3, 0, 0], [2, 4, 0, 0], [0, 0, 1, 3], [0, 0, 2, 4]]
    )
    require(t.f == want_f and t.g == want_g, "family differs from the frozen matrices")
    require(ident.is_jordan_left_gh_derivation(t).holds, "two-sided identity fails")
    require(not ident.is_left_gh_derivation(t).holds, "one-sided unexpectedly holds")
    e11, e12 = m2.basis_element(0), m2.basis_element(1)
    lhs, rhs = _sides(LGH, t, e12, e11)
    require(lhs.is_zero(), f"lhs {lhs}")
    require(rhs == e11.scale(3) + e12.scale(4), f"rhs {rhs}")
    return "pass", "right-multiplication family at (1,2;3,4): one-sided fails at (e12, e11) with rhs 3e11+4e12"


def _run_case_m2_jordan_not_centralizer(ctx):
    m2, t = _case_m2_jordan_not_centralizer(ctx)
    require(ident.is_jordan_left_gh_derivation(t).holds, "two-sided identity fails")
    alpha = t.g(m2.one())
    require(
        alpha == m2.element([1, -1, -1, 0]),
        f"recovered right factor {alpha}",
    )
    require(right_mul_map(alpha) == t.g, "g is not right multiplication by g(1)")
    A = m2.element([1, 2, 3, 4])
    B = m2.element([5, 6, 7, 8])
    for m in (t.g, t.f):
        require(not ident.is_left_centralizer(m).holds, "map is a left centralizer")
        require(m(A * B) != m(A) * B, "witness pair fails to separate")
    require(ident.is_right_centralizer(t.g).holds, "g is not a right centralizer")
    return "pass", "g = right mult by e11-e12-e21 (recovered by solving); not a left centralizer at A=(1,2;3,4), B=(5,6;7,8)"


def _run_case_quat_doubling(ctx):
    q, t = _case_quat_doubling(ctx)
    require(t.f == LinMap.identity(q).scale(2), "f is not doubling")
    require(t.g == LinMap.identity(q), "g is not the identity")
    require(ident.is_jordan_left_gh_derivation(t).holds, "two-sided identity fails")
    rep = ident.is_left_gh_derivation(t)
    require(not rep.holds, "one-sided identity unexpectedly holds")
    ce = rep.counterexample
    require((ce.i, ce.j) == (1, 2), f"counterexample pair {(ce.i, ce.j)}")
    require(ce.lhs == q.basis_element(3).scale(2), f"lhs {ce.lhs}")
    require(ce.rhs.is_zero(), f"rhs {ce.rhs}")
    return "pass", "doubling on the quaternions: two-sided holds, one-sided fails at (i, j): f(k)=2k vs ig(j)+jg(i)=0"


def _run_case_quat_not_left_centralizer(ctx):
    q, t = _case_quat_not_left_centralizer(ctx)
    # Frozen columns of right multiplication by 1+2i+3j+4k.
    want_g = LinMap.from_columns(
        q,
        [[1, 2, 3, 4], [-2, 1, -4, 3], [-3, 4, 1, -2], [-4, -3, 2, 1]],
    )
    require(t.g == want_g, "g differs from the frozen matrix")
    require(ident.is_jordan_left_gh_derivation(t).holds, "two-sided identity fails")
    require(ident.is_right_centralizer(t.g).holds, "g is not a right centralizer")
    require(not ident.is_left_centralizer(t.g).holds, "g is a left centralizer")
    p = q.element([5, 6, 7, 8])
    r = q.element([9, 10, 11, 12])
    require(t.g(p * r) != t.g(p) * r, "g witness pair fails to separate")
    require(t.f(p * r) != t.f(p) * r, "f witness pair fails to separate")
    return "pass", "right mult by 1+2i+3j+4k: right centralizer, not left; separated at p=5+6i+7j+8k, q=9+10i+11j+12k"


# ---------------------------------------------------------------------------
# dimension and structure entries
# ---------------------------------------------------------------------------


def _run_dim_tri_jordan(n, want):
    def run(ctx):
        sp = ctx.space(ctx.alg(f"tn{n}"), JLGH)
        require(sp.dim == want, f"dim {sp.dim}, expected {want}")
        require(
            _family_span_matches(sp, _tri_jordan_generators(n)),
            "family span differs from the solved space",
        )
        return "pass", f"dim = {want} = n(n+3)/2; family span matches; certificates ok"
    return run


def _run_dim_tri_left(n, want):
    def run(ctx):
        sp = ctx.space(ctx.alg(f"tn{n}"), LGH)
        require(sp.dim == want, f"dim {sp.dim}, expected {want}")
        require(
            _family_span_matches(sp, _tri_left_generators(n)),
            "family span differs from the solved space",
        )
        return "pass", f"dim = {want} = 2n; family span matches; certificates ok"
    return run


def _run_dim_full_jordan(n, want):
    def run(ctx):
        a = ctx.alg(f"mn{n}")
        sp = ctx.space(a, JLGH)
        require(sp.dim == want, f"dim {sp.dim}, expected {want}")
        require(
            _family_span_matches(sp, _mn_jordan_generators(n, a)),
            "family span differs from the solved space",
        )
        return "pass", f"dim = {want} = n^2; family span matches; certificates ok"
    return run


def _run_dim_quat_jordan(ctx):
    q = ctx.alg("quat")
    sp = ctx.space(q, JLGH)
    require(sp.dim == 4, f"dim {sp.dim}, expected 4")
    require(
        _family_span_matches(sp, _quat_jordan_generators(q)),
        "family span differs from the solved space",
    )
    return "pass", "dim = 4; equals the right-multiplication family; certificates ok"


def _run_vanish(spec, kind, constraints, what):
    def run(ctx):
        sp = ctx.space(ctx.alg(spec), kind, constraints)
        require(sp.dim == 0, f"dim {sp.dim}, expected 0")
        return "pass", f"only the zero solution for {what}"
    return run


def _run_collapse(spec):
    def run(ctx):
        sp = ctx.space(ctx.alg(spec), JLGH)
        require(solver.gh_collapse(sp), "space contains a solution with g != h")
        return "pass", "g = h on the whole two-sided solution space"
    return run


def _run_determined(ctx):
    checked = []
    for spec in ("tn2", "tn3", "tn4", "mn2", "mn3", "quat"):
        for kind in (JLGH, LGH):
            sp = ctx.space(ctx.alg(spec), kind)
            require(
                solver.project_gh_injectivity(sp),
                f"(g, h) does not determine f on {spec}/{kind.value}",
            )
            checked.append(f"{spec}/{kind.value}")
    return "pass", f"(g, h) determines f on {len(checked)} spaces"


def _run_rightcent(specs):
    def run(ctx):
        total = 0
        for spec in specs:
            sp = ctx.space(ctx.alg(spec), JLGH)
            for t in sp.basis:
                for m in (t.f, t.g, t.h):
                    require(
                        ident.is_right_centralizer(m).holds,
                        f"basis map on {spec} is not a right centralizer",
                    )
                    total += 1
        return "pass", f"{total} basis maps, all satisfy f(ab) = af(b)"
    return run


def _run_quat_left_imaginary(ctx):
    q = ctx.alg("quat")
    free = ctx.space(q, LGH)
    constrained = ctx.space(q, LGH, Constraints(f_zero_basis=(1, 2, 3)))
    require(
        solver.space_equal(free, constrained),
        "killing f on i, j, k changed the one-sided space",
    )
    return "pass", "one-sided space already satisfies f(i) = f(j) = f(k) = 0"


def _run_quat_jordan_imaginary(ctx):
    q = ctx.alg("quat")
    sp = ctx.space(q, JLGH, Constraints(f_zero_basis=(1, 2, 3)))
    require(sp.dim == 0, f"dim {sp.dim}, expected 0")
    return "pass", "two-sided solutions with f(i) = f(j) = f(k) = 0 are zero"


# ---------------------------------------------------------------------------
# transfer entries
# ---------------------------------------------------------------------------


def _base_algebra(ctx, name):
    if name == "line":
        return ctx.alg("ring")
    if name == "dual":
        return ctx.alg("poly(ring,1)")
    if name == "split":
        return q_pair_algebra()
    raise ValueError(name)


def _run_tensor_transfer(aname, sname):
    def run(ctx):
        a = _base_algebra(ctx, aname)
        s = _base_algebra(ctx, sname)
        require(is_commutative(a), "base algebra is not commutative")
        ja, la = ctx.space(a, JLGH), ctx.space(a, LGH)
        require(solver.space_equal(ja, la), "base spaces differ")
        prod = tensor_product(a, s)
        jp, lp = ctx.space(prod, JLGH), ctx.space(prod, LGH)
        require(solver.space_equal(jp, lp), "tensor spaces differ")
        for t in ja.basis:
            ext = tensor_extend_triple(t, s)
            require(
                ident.is_jordan_left_gh_derivation(ext).holds,
                "extended triple fails the two-sided identity",
            )
            require(solver.space_member(jp, ext), "extended triple left the space")
        return (
            "pass",
            f"two-sided = one-sided on both factors and on the product "
            f"(dims {ja.dim} and {jp.dim}); extension stays inside",
        )
    return run


def _run_polylift(spec, kind, want):
    """Lift the solutions drawn 50 times at random, each distinct one once;
    ``want`` is the number of distinct solutions the claim names."""
    def run(ctx):
        sp = ctx.space(ctx.alg(spec), kind)
        rng = random.Random(f"{spec}:{kind.value}")
        draws = {tuple(rng.randint(-9, 9) for _ in range(sp.dim)): None for _ in range(50)}
        require(len(draws) == want, f"{len(draws)} distinct solutions, expected {want}")
        for coeffs in draws:
            lifted = poly_lift_triple(sp.combination(coeffs), 3)
            require(
                ident.check(kind, lifted).holds,
                f"lift of a random solution fails {kind.value}",
            )
        checked = (
            "1 triple checked: the space is 0, so the zero triple is its only solution"
            if sp.dim == 0 else f"{len(draws)} distinct seeded random solutions"
        )
        return "pass", f"{checked}; lifted to degree 3, they stay solutions"
    return run


# ---------------------------------------------------------------------------
# cross-ring and property entries
# ---------------------------------------------------------------------------


def _run_modfive(spec, jordan_want, left_want):
    def run(ctx):
        a = ctx.alg(spec, Zmod(5))
        jd = ctx.space(a, JLGH).dim
        require(jd == jordan_want, f"two-sided dim {jd}, expected {jordan_want}")
        detail = f"two-sided dim {jd}"
        if left_want is not None:
            ld = ctx.space(a, LGH).dim
            require(ld == left_want, f"one-sided dim {ld}, expected {left_want}")
            detail += f", one-sided dim {ld}"
        return "pass", detail + " over Z/5Z, matching the rational dimensions"
    return run


def _run_containment(ctx):
    dims = []
    for spec in ("tn2", "tn3", "tn4", "mn2", "mn3", "quat", "ring", "poly(ring,1)"):
        a = ctx.alg(spec)
        jsp, lsp = ctx.space(a, JLGH), ctx.space(a, LGH)
        require(
            solver.space_contains(jsp, lsp),
            f"one-sided space is not inside the two-sided one on {spec}",
        )
        dims.append(f"{spec}: {lsp.dim} <= {jsp.dim}")
    return "pass", "; ".join(dims)


def _run_commutative_coincide(ctx):
    for spec in ("ring", "poly(ring,1)"):
        a = ctx.alg(spec)
        require(is_commutative(a), f"{spec} is not commutative")
        require(
            solver.space_equal(ctx.space(a, JLGH), ctx.space(a, LGH)),
            f"spaces differ on commutative {spec}",
        )
    return "pass", "two-sided and one-sided spaces coincide on the commutative bases"


# ---------------------------------------------------------------------------
# findings
# ---------------------------------------------------------------------------


def _run_note_doubled_substitution(ctx):
    t = _case_t2_jordan_not_left()
    rep = ident.audit_doubled_substitution(t)
    t2 = t.alg
    e11, e12 = t2.basis_element(0), t2.basis_element(1)
    s = t.g + t.h
    lhs, rhs = _sides(LGH, MapTriple(t.f, s, s), e12, e11)
    z = ident.audit_doubled_substitution(MapTriple.zero(t2))
    return (
        "note",
        f"(f, g+h, g+h) one-sided outcome on the triangular case: {rep.holds}; "
        f"at (e12, e11) the sides are {lhs} vs {rhs}; "
        f"zero triple outcome: {z.holds}",
    )


def _run_decompose_t2(ctx):
    t = _case_t2_left_nonzero()
    dec = ident.decompose_left_gh(t)
    t2 = t.alg
    require(dec.lam == t2.element([1, 1, 0]), f"lambda {dec.lam}")
    require(not dec.lam_central, "lambda reported central")
    want_d = LinMap.from_rows(t2, [[0, 0, 0], [1, -1, -1], [0, 0, 0]])
    require(dec.d == want_d, "remainder differs from the frozen matrix")
    require(not dec.d_is_left_derivation, "remainder reported as a left derivation")
    return "pass", "lambda = e11+e12 (not central), remainder is not a left derivation"


def _run_decompose_line(ctx):
    a = ctx.alg("ring")
    ident_map = LinMap.identity(a)
    t = MapTriple(ident_map.scale(6), ident_map.scale(3), ident_map.scale(3))
    dec = ident.decompose_left_gh(t)
    require(dec.lam == a.element([6]), f"lambda {dec.lam}")
    require(dec.lam_central, "lambda not central on a commutative algebra")
    require(dec.d.is_zero(), "remainder nonzero")
    require(dec.d_is_left_derivation, "zero map not a left derivation")
    return "pass", "f = 6x splits as lambda = 6 central with zero remainder"


def _run_decompose_zero(ctx):
    t2 = ctx.alg("tn2")
    dec = ident.decompose_left_gh(MapTriple.zero(t2))
    require(dec.lam.is_zero() and dec.d.is_zero(), "zero triple decomposes nontrivially")
    require(dec.lam_central and dec.d_is_left_derivation, "zero flags wrong")
    return "pass", "zero triple: lambda = 0 central, zero remainder"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def entries() -> list[CatalogEntry]:
    e = []

    def add(id_, title, claim, origin, run, note_only=False):
        e.append(CatalogEntry(id_, title, claim, origin, run, note_only))

    # worked cases -------------------------------------------------------
    add(
        "case-z4-doubling",
        "doubling on Z/4Z",
        "On Z/4Z as a rank-1 algebra, f(x) = 2x satisfies the two-sided identity "
        "f(ab+ba) = 2(af(b) + bf(a)) but not the one-sided f(ab) = af(b) + bf(a): "
        "at a = b = 1 the sides are 2 and 4 = 0.  The ring has 2-torsion and the "
        "solver refuses its composite modulus; the checkers still decide both identities.",
        "elementary",
        _run_case_z4,
    )
    add(
        "case-t2-left-not-two-sided",
        "zero map with (g, -g) on T2",
        "On 2x2 upper triangular matrices with g(x) = x*e11, the zero map satisfies "
        "the one-sided identity with pair (g, -g) but not the two-sided "
        "f(ab) = g(a)b + ah(b), which fails with value e12.  The variant with "
        "g(x) = e11*x fails the two-sided form at (e12, e22) with the same value "
        "e12, but it fails the one-sided identity as well, so only the "
        "right-multiplication reading separates the two notions.",
        "elementary",
        _run_case_t2_left_not_two_sided,
    )
    add(
        "case-t2-two-sided-not-left",
        "x + (ax - xa) on T2",
        "With a = e11+e12+e22 on 2x2 upper triangular matrices, f(x) = x + (ax - xa) "
        "satisfies f(xy) = f(x)y + xg(y) = g(x)y + xf(y) for g(x) = ax - xa, but the "
        "one-sided identity fails at (e11, e22) where the right side is e12, not 0.",
        "elementary",
        _run_case_t2_two_sided_not_left,
    )
    add(
        "case-t2-jordan-not-left",
        "triangular family member (1,2,3; 4,5)",
        "The parametric triple with g-coefficients (1,2,3) and h-coefficients (4,5) "
        "on 2x2 upper triangular matrices satisfies the two-sided identity but not "
        "the one-sided one: at (e12, e11) the right side is 3e12 while f(e12 e11) = 0. "
        "Its symmetrized-output variant also fails: 6e12 vs 7e12.",
        "formula",
        _run_case_t2_jordan_not_left,
    )
    add(
        "case-t2-left-nonzero",
        "nonzero one-sided solution on T2",
        "The one-sided family member with coefficients (1,0; 0,1) is a nonzero triple "
        "satisfying f(ab) = ag(b) + bh(a) = ah(b) + bg(a); the two-sided form fails "
        "at (e11, e11+e12) where the sides are e11+e12 and e11+2e12.",
        "formula",
        _run_case_t2_left_nonzero,
    )
    add(
        "case-t2-jordan-not-centralizer",
        "two-sided solution, no left centralizer, on T2",
        "There is a two-sided solution triple on 2x2 upper triangular matrices none "
        "of whose maps is a left centralizer: f, g, h all violate f(AB) = f(A)B at "
        "A = e11+2e12+3e22, B = 4e11+5e12+6e22.",
        "elementary",
        _run_case_t2_jordan_not_centralizer,
    )
    add(
        "case-m2-jordan-not-left",
        "right-multiplication family on M2",
        "On 2x2 full matrices, the triple (2R, R, R) with R = right multiplication by "
        "(1,2; 3,4) satisfies the two-sided identity but not the one-sided one: at "
        "(e12, e11) the right side is 3e11 + 4e12 while f(e12 e11) = 0.",
        "formula",
        _run_case_m2_jordan_not_left,
    )
    add(
        "case-m2-jordan-not-centralizer",
        "two-sided solution, no left centralizer, on M2",
        "The map g(A) = (a11-a12, -a11; a21-a22, -a21) on 2x2 matrices is right "
        "multiplication by e11-e12-e21 (the factor is recovered by evaluating at 1) "
        "and (2g, g, g) solves the two-sided identity, yet neither g nor 2g is a "
        "left centralizer: both violate f(AB) = f(A)B at A = (1,2; 3,4), B = (5,6; 7,8).",
        "recomputed",
        _run_case_m2_jordan_not_centralizer,
    )
    add(
        "case-quat-doubling",
        "doubling on the quaternions",
        "On the rational quaternions, (2x, x, x) satisfies the two-sided identity "
        "but not the one-sided one: f(ij) = 2k while ig(j) + jg(i) = ij + ji = 0.",
        "elementary",
        _run_case_quat_doubling,
    )
    add(
        "case-quat-right-not-left-centralizer",
        "right multiplication by 1+2i+3j+4k",
        "Right multiplication by 1+2i+3j+4k on the quaternions gives a two-sided "
        "solution (2g, g, g); g is a right centralizer but not a left one, separated "
        "exactly at p = 5+6i+7j+8k, q = 9+10i+11j+12k.",
        "formula",
        _run_case_quat_not_left_centralizer,
    )

    # dimensions ---------------------------------------------------------
    for n, want in ((2, 5), (3, 9), (4, 14)):
        add(
            f"dim-tri-jordan-{n}",
            f"two-sided solution space of T{n}",
            f"Over Q, the solution triples of f(ab+ba) = 2(ag(b) + bh(a)) on {n}x{n} "
            f"upper triangular matrices form a space of dimension n(n+3)/2 = {want}, "
            "spanned by the closed-form right-multiplication family.",
            "formula",
            _run_dim_tri_jordan(n, want),
        )
    for n, want in ((2, 4), (3, 6), (4, 8)):
        add(
            f"dim-tri-left-{n}",
            f"one-sided solution space of T{n}",
            f"Over Q, the solution triples of the one-sided identity on {n}x{n} upper "
            f"triangular matrices form a space of dimension 2n = {want}: both maps "
            "are supported on e11 and land in the first row, with f = g + h.",
            "formula",
            _run_dim_tri_left(n, want),
        )
    for n, want in ((2, 4), (3, 9)):
        add(
            f"dim-full-jordan-{n}",
            f"two-sided solution space of M{n}",
            f"Over Q, the two-sided solution triples on {n}x{n} full matrices are "
            f"exactly (2R, R, R) for right multiplications R, a space of dimension "
            f"n^2 = {want}.",
            "formula",
            _run_dim_full_jordan(n, want),
        )
    add(
        "dim-quat-jordan",
        "two-sided solution space of the quaternions",
        "Over Q, the two-sided solution triples on the quaternions are exactly "
        "(2R, R, R) for right multiplications R, a space of dimension 4.",
        "formula",
        _run_dim_quat_jordan,
    )
    for n in (2, 3):
        add(
            f"vanish-full-left-gg-{n}",
            f"one-sided solutions with g = h vanish on M{n}",
            f"Over Q, the only triple (f, g, g) satisfying the one-sided identity on "
            f"{n}x{n} full matrices is zero.",
            "formula",
            _run_vanish(f"mn{n}", LGH, Constraints(force_g_eq_h=True), "g = h"),
        )
    add(
        "vanish-quat-left-gg",
        "one-sided solutions with g = h vanish on the quaternions",
        "Over Q, the only triple (f, g, g) satisfying the one-sided identity on the "
        "quaternions is zero.",
        "formula",
        _run_vanish("quat", LGH, Constraints(force_g_eq_h=True), "g = h"),
    )
    add(
        "vanish-full-left-2",
        "all one-sided solutions vanish on M2",
        "Over Q, the full one-sided solution space on 2x2 matrices is zero, with no "
        "constraint imposed; this is forced by combining the two-sided collapse g = h "
        "with the g = h vanishing statement.",
        "recomputed",
        _run_vanish("mn2", LGH, None, "the unconstrained system"),
    )
    add(
        "vanish-quat-left",
        "all one-sided solutions vanish on the quaternions",
        "Over Q, the full one-sided solution space on the quaternions is zero, with "
        "no constraint imposed.",
        "recomputed",
        _run_vanish("quat", LGH, None, "the unconstrained system"),
    )

    # structure ----------------------------------------------------------
    for spec in ("mn2", "mn3", "quat"):
        nice = {"mn2": "M2", "mn3": "M3", "quat": "the quaternions"}[spec]
        add(
            f"collapse-{spec}",
            f"g = h collapse on {nice}",
            f"Every two-sided solution triple on {nice} has g = h.",
            "formula",
            _run_collapse(spec),
        )
    add(
        "determined-all",
        "(g, h) determines f",
        "On every built-in solution space (both identities, T2-T4, M2-M3, "
        "quaternions), no nonzero solution has g = h = 0 with f nonzero, so the "
        "pair (g, h) determines f.",
        "formula",
        _run_determined,
    )
    add(
        "rightcent-tri",
        "two-sided solutions right-centralize on T2-T4",
        "Every basis triple of the two-sided solution space on upper triangular "
        "matrices (n = 2, 3, 4) consists of right centralizers: f, g and h all "
        "satisfy m(ab) = a m(b).",
        "formula",
        _run_rightcent(("tn2", "tn3", "tn4")),
    )
    add(
        "rightcent-full",
        "two-sided solutions right-centralize on M2-M3",
        "Every basis triple of the two-sided solution space on full matrix algebras "
        "(n = 2, 3) consists of right centralizers.",
        "formula",
        _run_rightcent(("mn2", "mn3")),
    )
    add(
        "rightcent-quat",
        "two-sided solutions right-centralize on the quaternions",
        "Every basis triple of the two-sided solution space on the quaternions "
        "consists of right centralizers.",
        "formula",
        _run_rightcent(("quat",)),
    )
    add(
        "quat-left-imaginary-constraint",
        "one-sided quaternion solutions kill i, j, k",
        "Intersecting the one-sided solution space on the quaternions with "
        "f(i) = f(j) = f(k) = 0 changes nothing: the spaces are equal.",
        "formula",
        _run_quat_left_imaginary,
    )
    add(
        "quat-jordan-imaginary-constraint",
        "two-sided quaternion solutions with f(i) = f(j) = f(k) = 0",
        "The two-sided solution space on the quaternions meets "
        "{f(i) = f(j) = f(k) = 0} only in zero: f = 2R forces the right factor to 0.",
        "recomputed",
        _run_quat_jordan_imaginary,
    )

    # transfer -----------------------------------------------------------
    for aname in ("line", "dual"):
        for sname in ("dual", "split"):
            pretty_a = {"line": "Q", "dual": "Q[x]/(x^2)"}[aname]
            pretty_s = {"dual": "Q[x]/(x^2)", "split": "Q x Q"}[sname]
            add(
                f"tensor-transfer-{aname}-{sname}",
                f"tensoring {pretty_a} with {pretty_s}",
                f"For the commutative algebra A = {pretty_a} over Q, the two-sided "
                f"and one-sided solution spaces coincide, and they still coincide on "
                f"A (x) {pretty_s}; extending a solution by the identity on the "
                "second factor lands inside the product's solution space.",
                "formula",
                _run_tensor_transfer(aname, sname),
            )
    for spec, nice in (("tn2", "T2"), ("mn2", "M2"), ("quat", "the quaternions")):
        for kind, kname in ((JLGH, "two-sided"), (LGH, "one-sided")):
            # The one-sided spaces on M2 and the quaternions are 0 (vanish-*).
            zero = kind is LGH and spec != "tn2"
            checked = ("the zero triple, the only solution (1 triple)" if zero
                       else "50 distinct seeded random solutions")
            add(
                f"polylift-{spec}-{kind.value}",
                f"{kname} solutions on {nice} lift to truncated polynomials",
                f"Lifting a solution of the {kname} identity on {nice} degreewise to "
                "polynomials truncated above degree 3 yields a solution of the same "
                f"identity there; checked on {checked}.",
                "formula",
                _run_polylift(spec, kind, 1 if zero else 50),
            )

    # cross-ring ---------------------------------------------------------
    add(
        "modfive-tri-2",
        "T2 dimensions over Z/5Z",
        "Over the field Z/5Z the solution space dimensions on 2x2 upper triangular "
        "matrices match the rational ones: 5 two-sided, 4 one-sided.",
        "recomputed",
        _run_modfive("tn2", 5, 4),
    )
    add(
        "modfive-tri-3",
        "T3 dimensions over Z/5Z",
        "Over Z/5Z the solution space dimensions on 3x3 upper triangular matrices "
        "match the rational ones: 9 two-sided, 6 one-sided.",
        "recomputed",
        _run_modfive("tn3", 9, 6),
    )
    add(
        "modfive-full-2",
        "M2 dimension over Z/5Z",
        "Over Z/5Z the two-sided solution space on 2x2 full matrices has dimension "
        "4, matching the rational count.",
        "recomputed",
        _run_modfive("mn2", 4, None),
    )

    # properties ---------------------------------------------------------
    add(
        "contain-left-in-jordan",
        "one-sided solutions satisfy the two-sided identity",
        "On every built-in algebra, the one-sided solution space is contained in "
        "the two-sided one (multiply the one-sided identity instances out; no "
        "division by 2 is needed).",
        "elementary",
        _run_containment,
    )
    add(
        "commutative-coincide",
        "commutative algebras see no difference",
        "On the commutative built-ins over Q (the base ring and the dual numbers), "
        "the two-sided and one-sided solution spaces are equal.",
        "formula",
        _run_commutative_coincide,
    )

    # findings -----------------------------------------------------------
    add(
        "note-doubled-substitution",
        "substituting (g+h, g+h) into the one-sided identity",
        "Whether a two-sided solution (f, g, h) always yields a one-sided solution "
        "(f, g+h, g+h) is evaluated, not assumed.  The triangular case answers no; "
        "the zero triple answers yes.  Reported for inspection only.",
        "recomputed",
        _run_note_doubled_substitution,
        note_only=True,
    )
    add(
        "decompose-one-sided-t2",
        "unity decomposition of a triangular one-sided solution",
        "For the nonzero one-sided solution on T2, lambda = g(1) + h(1) = e11 + e12 "
        "is not central and the remainder f - (lambda * .) is not a left derivation; "
        "both facts are findings of the decomposition, not assumptions.",
        "recomputed",
        _run_decompose_t2,
    )
    add(
        "decompose-one-sided-line",
        "unity decomposition over the base ring",
        "For f(x) = 6x with g = h = 3x on Q itself, lambda = 6 is central and the "
        "remainder vanishes, hence is a left derivation.",
        "elementary",
        _run_decompose_line,
    )
    add(
        "decompose-zero",
        "unity decomposition of the zero triple",
        "The zero triple decomposes with lambda = 0 central and zero remainder.",
        "elementary",
        _run_decompose_zero,
    )

    return e


def run_catalog(filter_text: str | None = None) -> RunReport:
    """Run (a filtered subset of) the catalog and collect per-entry results."""
    ctx = Context()
    results = []
    for entry in sorted(entries(), key=lambda x: x.id):
        if filter_text and filter_text not in entry.id:
            continue
        start = time.perf_counter()
        try:
            status, detail = entry.run(ctx)
        except CheckFailed as exc:
            status, detail = "fail", str(exc)
        except Exception as exc:  # report, never crash the suite
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if entry.note_only and status == "fail":
            status = "note"
        results.append(
            EntryResult(entry.id, entry.title, entry.origin, status, detail, elapsed)
        )
    return RunReport(results)


def traceability_table(report: RunReport) -> str:
    """Markdown table mapping every entry to its claim and outcome."""
    by_id = {e.id: e for e in entries()}
    lines = [
        "| entry | claim | origin | status |",
        "|---|---|---|---|",
    ]
    for r in report.results:
        claim = by_id[r.id].claim.replace("|", "\\|")
        lines.append(f"| {r.id} | {claim} | {r.origin} | {r.status} |")
    return "\n".join(lines) + "\n"

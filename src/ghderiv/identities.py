"""The identity table, and the one checker that evaluates it on map triples.

Each identity kind is written once, as data, in ``IDENTITIES``: equation
templates relating f, g and h through products in the algebra.
``check(kind, t)`` evaluates the table on elements; ``solver.build_system``
compiles the same table into linear rows.  The single-map kinds
(derivations, left derivations, centralizers) read only f, so a map m is
checked as ``check(kind, MapTriple(m, m, m))``.

This element interpreter is the one evaluator: it says whether a triple
holds and where it first fails.  The CLI ``check`` command, the catalog
and the substitution certificate of ``solver.verify_space`` use it; the
compiled rows are only ever solved.

All templates are bilinear in the two element arguments, so an identity
holds on the whole algebra iff it holds on every ordered basis pair;
``check`` scans every pair in lexicographic order and reports the first
failure exactly as computed, never normalized.  It works on sparse coordinates: each map is read once as its
nonzero columns, each product off the algebra's ``_pair_table``, and
each side is a {coordinate: nonzero value} dict, turned into elements
only where they are returned or reported.  Arguments other than basis
vectors are expanded over the basis pairs of their supports.

The square identity D(a^2) = D(a)a + aD(a) is the one quadratic case; it
is checked on every basis vector together with its polarized form

    D(ab + ba) = D(a)b + aD(b) + D(b)a + bD(a)

on every pair i < j, which is exactly equivalent (expand D((a+b)^2)).
``templates_at`` holds that rule for the checker and the row compiler.
Nothing here divides by 2, so the checks are honest over rings with
2-torsion such as Z/4Z.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .algebra import AlgebraMismatch, AlgElement
from .linmap import LinMap, MapTriple, left_mul_map, right_mul_map

__all__ = [
    "IdentityKind",
    "IDENTITIES",
    "SHAPES",
    "templates_at",
    "CheckReport",
    "Counterexample",
    "PreconditionFailed",
    "check",
    "identity_sides",
    "LeftGHDecomposition",
    "decompose_left_gh",
    "audit_doubled_substitution",
]


class PreconditionFailed(ValueError):
    """The operation's precondition on its input triple does not hold."""


class IdentityKind(enum.Enum):
    """The supported identity classes; values double as CLI names."""

    DERIVATION = "derivation"
    JORDAN_DERIVATION = "jordan-derivation"
    LEFT_DERIVATION = "left-derivation"
    GH_DERIVATION = "gh-derivation"
    LEFT_GH = "left-gh"
    JORDAN_LEFT_GH = "jordan-left-gh"
    LEFT_CENTRALIZER = "left-centralizer"
    RIGHT_CENTRALIZER = "right-centralizer"

    @classmethod
    def from_name(cls, name: str) -> "IdentityKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown identity kind: {name!r}")


# ---------------------------------------------------------------------------
# the identity table
# ---------------------------------------------------------------------------
#
# A template is a pair (lhs terms, rhs terms) stating lhs = rhs.  A term is
# (coefficient, map, shape) with map one of "f", "g", "h"; the shape places
# the map M relative to the two arguments a and b.

# shape -> (where, arg, other), reading (x_0, x_1) = (a, b):
#   "apply":  M(x_arg x_other)
#   "left":   M(x_arg) x_other
#   "right":  x_other M(x_arg)
SHAPES = {
    "M(ab)": ("apply", 0, 1),
    "M(ba)": ("apply", 1, 0),
    "M(a)b": ("left", 0, 1),
    "M(b)a": ("left", 1, 0),
    "aM(b)": ("right", 1, 0),
    "bM(a)": ("right", 0, 1),
}

# Left sides shared by several kinds: f(ab) and f(ab + ba).
_F_AB = ((1, "f", "M(ab)"),)
_F_AB_BA = ((1, "f", "M(ab)"), (1, "f", "M(ba)"))
# D(ab) = D(a)b + aD(b); at a = b it is the square form D(a^2) = D(a)a + aD(a).
_PRODUCT_RULE = (_F_AB, ((1, "f", "M(a)b"), (1, "f", "aM(b)")))

IDENTITIES = {
    IdentityKind.DERIVATION: (_PRODUCT_RULE,),
    IdentityKind.JORDAN_DERIVATION: (
        (_F_AB_BA, ((1, "f", "M(a)b"), (1, "f", "aM(b)"),
                    (1, "f", "M(b)a"), (1, "f", "bM(a)"))),
    ),
    IdentityKind.LEFT_DERIVATION: ((_F_AB, ((1, "f", "aM(b)"), (1, "f", "bM(a)"))),),
    IdentityKind.GH_DERIVATION: (
        (_F_AB, ((1, "g", "M(a)b"), (1, "h", "aM(b)"))),
        (_F_AB, ((1, "h", "M(a)b"), (1, "g", "aM(b)"))),
    ),
    IdentityKind.LEFT_GH: (
        (_F_AB, ((1, "g", "aM(b)"), (1, "h", "bM(a)"))),
        (_F_AB, ((1, "h", "aM(b)"), (1, "g", "bM(a)"))),
    ),
    # The factor 2 stays explicit: no division happens anywhere.
    IdentityKind.JORDAN_LEFT_GH: ((_F_AB_BA, ((2, "g", "aM(b)"), (2, "h", "bM(a)"))),),
    IdentityKind.LEFT_CENTRALIZER: ((_F_AB, ((1, "f", "M(a)b"),)),),
    IdentityKind.RIGHT_CENTRALIZER: ((_F_AB, ((1, "f", "aM(b)"),)),),
}

# Quadratic kinds: the square form below on the diagonal, their polarized
# templates in IDENTITIES for i < j, and nothing for i > j.
SQUARE_FORMS = {IdentityKind.JORDAN_DERIVATION: _PRODUCT_RULE}


def templates_at(kind: IdentityKind, i: int, j: int) -> tuple:
    """The templates that hold at the ordered basis pair (i, j)."""
    square = SQUARE_FORMS.get(kind)
    if square is None or i < j:
        return IDENTITIES[kind]
    return (square,) if i == j else ()


@dataclass(frozen=True)
class Counterexample:
    """First failing ordered basis pair with both sides, exactly as computed."""

    i: int
    j: int
    lhs: AlgElement
    rhs: AlgElement

    def to_doc(self) -> dict:
        fmt = self.lhs.alg.ring.format
        return {
            "i": self.i,
            "j": self.j,
            "lhs": [fmt(c) for c in self.lhs.coords],
            "rhs": [fmt(c) for c in self.rhs.coords],
        }


@dataclass(frozen=True)
class CheckReport:
    holds: bool
    counterexample: Counterexample | None = None

    def __bool__(self) -> bool:
        return self.holds

    def to_doc(self) -> dict:
        doc = {"holds": self.holds}
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample.to_doc()
        return doc


def _columns(m: LinMap) -> list:
    """Column k of ``m``, the image of e_k, as {coordinate: nonzero value}."""
    return [{r: v for r, row in enumerate(m.mat) if (v := row[k])} for k in range(len(m.mat))]


def _evaluate(templates, cols: dict, alg, pairs) -> list:
    """(lhs, rhs) of each template: the sum over (p, q, s) in ``pairs`` of
    s times its value at (e_p, e_q).

    With ``pairs`` = ((i, j, 1),) that is its value at the basis pair
    (i, j); with (p, q, u_p w_q) over the nonzero coordinates of a and b,
    by bilinearity, its value at (a, b).  ``cols`` maps "f", "g" and "h"
    to their columns.  Each term is read off the pair table: M(e_p e_q)
    sums c times column k of M over the (k, c) of e_p e_q; M(e_p)e_q
    walks e_l e_q and e_q M(e_p) walks e_q e_l, for each nonzero
    coordinate l of M(e_p).  Each side is a {coordinate: nonzero reduced
    value} dict, so two sides are equal iff their dicts are.
    """
    table, reduce = alg._pair_table, alg.ring.reduce
    out = []
    for template in templates:
        sides = []
        for terms in template:
            acc: dict = {}
            for coef, name, shape in terms:
                where, arg, other = SHAPES[shape]
                col = cols[name]
                for x in pairs:
                    p, q, s = x[arg], x[other], coef * x[2]
                    if where == "apply":
                        for k, c in table[p][q]:
                            c *= s
                            for l, v in col[k].items():
                                acc[l] = acc.get(l, 0) + c * v
                        continue
                    for l, v in col[p].items():
                        v *= s
                        for k, c in table[l][q] if where == "left" else table[q][l]:
                            acc[k] = acc.get(k, 0) + v * c
            sides.append({k: r for k, v in acc.items() if (r := reduce(v))})
        out.append(tuple(sides))
    return out


def _triple_columns(t: MapTriple) -> dict:
    return {"f": _columns(t.f), "g": _columns(t.g), "h": _columns(t.h)}


def _dense(alg, sides: tuple) -> tuple:
    """Sparse (lhs, rhs) as a pair of elements."""
    return tuple(AlgElement(alg, tuple(side.get(k, 0) for k in range(alg.dim)))
                 for side in sides)


def identity_sides(
    kind: IdentityKind, t: MapTriple, a: AlgElement, b: AlgElement
) -> list[tuple[AlgElement, AlgElement]]:
    """All (lhs, rhs) instances of the identity at the ordered pair (a, b).

    One entry per equation template, in a fixed order.  For the square
    identity this is the polarized two-argument form; the checker applies
    the plain square form on the diagonal separately.
    """
    alg = t.alg
    if not a.alg == alg or not b.alg == alg:
        raise AlgebraMismatch("triple and elements live in different algebras")
    pairs = [(p, q, u * w) for p, u in enumerate(a.coords) if u
             for q, w in enumerate(b.coords) if w]
    return [_dense(alg, sides)
            for sides in _evaluate(IDENTITIES[kind], _triple_columns(t), alg, pairs)]


def check(kind: IdentityKind, t: MapTriple) -> CheckReport:
    """Scan all ordered basis pairs in lexicographic order; first failure wins.

    Every pair is evaluated, none skipped, and nothing is kept between
    pairs but the maps' columns; elements are built only for the reported
    counterexample.
    """
    alg = t.alg
    cols = _triple_columns(t)
    # The templates depend only on whether i <, = or > j.
    above, diagonal, below = (templates_at(kind, 0, 1), templates_at(kind, 0, 0),
                              templates_at(kind, 1, 0))
    for i in range(alg.dim):
        for j in range(alg.dim):
            templates = above if i < j else diagonal if i == j else below
            for sides in _evaluate(templates, cols, alg, ((i, j, 1),)):
                if sides[0] != sides[1]:
                    return CheckReport(False, Counterexample(i, j, *_dense(alg, sides)))
    return CheckReport(True)


# ---------------------------------------------------------------------------
# structure of one-sided solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeftGHDecomposition:
    """f split as x -> lam * x + d(x) with lam = g(1) + h(1), d = f - L_lam."""

    lam: AlgElement
    lam_central: bool
    d: LinMap
    d_is_left_derivation: bool


def decompose_left_gh(t: MapTriple) -> LeftGHDecomposition:
    """Split a one-sided solution around the unity: lam = g(1) + h(1).

    Requires that the triple actually satisfies the one-sided identity
    (PreconditionFailed otherwise).  Centrality of lam and the left
    derivation property of the remainder d are reported as findings, not
    assumed: both can genuinely fail.
    """
    if not check(IdentityKind.LEFT_GH, t).holds:
        raise PreconditionFailed("triple does not satisfy the one-sided identity")
    one = t.alg.one()
    lam = t.g(one) + t.h(one)
    l_lam = left_mul_map(lam)
    d = t.f - l_lam
    d_left = check(IdentityKind.LEFT_DERIVATION, MapTriple(d, d, d)).holds
    return LeftGHDecomposition(
        lam=lam,
        lam_central=l_lam == right_mul_map(lam),
        d=d,
        d_is_left_derivation=d_left,
    )


def audit_doubled_substitution(t: MapTriple) -> CheckReport:
    """Audit whether (f, g+h, g+h) satisfies the one-sided identity.

    The input must satisfy the two-sided identity (PreconditionFailed
    otherwise).  The substitution g, h -> g+h looks plausible but does
    not follow in general; this evaluates it and reports the outcome
    either way.  The result is a finding for inspection, never an
    assertion.
    """
    if not check(IdentityKind.JORDAN_LEFT_GH, t).holds:
        raise PreconditionFailed("triple does not satisfy the two-sided identity")
    s = t.g + t.h
    return check(IdentityKind.LEFT_GH, MapTriple(t.f, s, s))

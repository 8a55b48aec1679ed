"""The identity table, and checkers that evaluate it on map triples.

Each identity kind is written once, as data, in ``IDENTITIES``: equation
templates relating f, g and h through products in the algebra.  The
checkers here evaluate the table on elements; ``solver.build_system``
compiles the same table into linear rows.

All templates are bilinear in the two element arguments, so an identity
holds on the whole algebra iff it holds on every ordered basis pair;
checkers scan pairs in lexicographic order and report the first failure
exactly as computed, never normalized.

The square identity D(a^2) = D(a)a + aD(a) is the one quadratic case; it
is checked on every basis vector together with its polarized form

    D(ab + ba) = D(a)b + aD(b) + D(b)a + bD(a)

on every pair i < j, which is exactly equivalent (expand D((a+b)^2)).
``templates_at`` holds that rule for both interpreters.  Nothing here
divides by 2, so the checks are honest over rings with 2-torsion such as
Z/4Z.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .algebra import AlgElement
from .linmap import LinMap, MapTriple, left_mul_map

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
    "sides_at_pair",
    "is_derivation",
    "is_jordan_derivation",
    "is_left_derivation",
    "is_gh_derivation",
    "is_left_gh_derivation",
    "is_jordan_left_gh_derivation",
    "is_left_centralizer",
    "is_right_centralizer",
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


def _evaluate(templates, t: MapTriple, x: tuple, keys: tuple, memo: dict) -> list:
    """(lhs, rhs) of each template at the arguments x = (a, b).

    Each map is applied once to the sum of its product arguments, and each
    distinct coefficient scales its group of terms once.  Map images are
    cached in ``memo`` under ``keys``, names for a and b, so a scan over
    many basis pairs computes each of them once.
    """

    def cached(key, compute):
        value = memo.get(key)
        if value is None:
            value = memo[key] = compute()
        return value

    def image(name, arg):
        return cached((name, keys[arg]), lambda: getattr(t, name)(x[arg]))

    def applied(name, args):
        # The sum of products does not depend on their order.
        key = (name, tuple(sorted((keys[p], keys[q]) for p, q in args)))
        return cached(key, lambda: getattr(t, name)(_sum([x[p] * x[q] for p, q in args])))

    def side(terms):
        groups: dict = {}  # coefficient -> (map -> its product args, other terms)
        for coef, name, shape in terms:
            products, parts = groups.setdefault(coef, ({}, []))
            where, arg, other = SHAPES[shape]
            if where == "apply":
                products.setdefault(name, []).append((arg, other))
            elif where == "left":
                parts.append(image(name, arg) * x[other])
            else:
                parts.append(x[other] * image(name, arg))
        sums = []
        for coef, (products, parts) in groups.items():
            acc = _sum([applied(name, args) for name, args in products.items()] + parts)
            sums.append(acc if coef == 1 else acc.scale(coef))
        return _sum(sums)

    return [(side(lhs), side(rhs)) for lhs, rhs in templates]


def _sum(elements: list) -> AlgElement:
    return sum(elements[1:], elements[0])


def identity_sides(
    kind: IdentityKind, t: MapTriple, a: AlgElement, b: AlgElement
) -> list[tuple[AlgElement, AlgElement]]:
    """All (lhs, rhs) instances of the identity at the ordered pair (a, b).

    One entry per equation template, in a fixed order.  For the square
    identity this is the polarized two-argument form; the checker applies
    the plain square form on the diagonal separately.
    """
    return _evaluate(IDENTITIES[kind], t, (a, b), (0, 1), {})


def sides_at_pair(
    kind: IdentityKind, t: MapTriple, i: int, j: int
) -> list[tuple[AlgElement, AlgElement]]:
    """The instances the checker evaluates at basis pair (i, j).

    Mirrors ``check`` exactly, including the square-identity convention:
    the plain square form on the diagonal, the polarized form for i < j,
    nothing for i > j.
    """
    alg = t.alg
    x = (alg.basis_element(i), alg.basis_element(j))
    return _evaluate(templates_at(kind, i, j), t, x, (i, j), {})


def check(kind: IdentityKind, t: MapTriple) -> CheckReport:
    """Scan all ordered basis pairs in lexicographic order; first failure wins.

    One memo serves the whole scan, so each image of a basis vector, or of
    a sum of basis products, is computed once.
    """
    alg = t.alg
    basis: dict[int, AlgElement] = {}
    memo: dict = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in (i, j):
                if k not in basis:
                    basis[k] = alg.basis_element(k)
            x = (basis[i], basis[j])
            for lhs, rhs in _evaluate(templates_at(kind, i, j), t, x, (i, j), memo):
                if lhs.coords != rhs.coords:
                    return CheckReport(False, Counterexample(i, j, lhs, rhs))
    return CheckReport(True)


def _single(map_or_triple) -> MapTriple:
    if isinstance(map_or_triple, MapTriple):
        return map_or_triple
    if isinstance(map_or_triple, LinMap):
        return MapTriple(map_or_triple, map_or_triple, map_or_triple)
    raise TypeError(f"expected a map or triple, got {map_or_triple!r}")


def is_derivation(d: LinMap) -> CheckReport:
    """D(ab) = D(a)b + aD(b) on all ordered basis pairs."""
    return check(IdentityKind.DERIVATION, _single(d))


def is_jordan_derivation(d: LinMap) -> CheckReport:
    """D(a^2) = D(a)a + aD(a), via basis squares plus the polarized form."""
    return check(IdentityKind.JORDAN_DERIVATION, _single(d))


def is_left_derivation(d: LinMap) -> CheckReport:
    """D(ab) = aD(b) + bD(a) on all ordered basis pairs."""
    return check(IdentityKind.LEFT_DERIVATION, _single(d))


def is_gh_derivation(t: MapTriple) -> CheckReport:
    """f(ab) = g(a)b + ah(b) = h(a)b + ag(b), both equalities."""
    return check(IdentityKind.GH_DERIVATION, t)


def is_left_gh_derivation(t: MapTriple) -> CheckReport:
    """f(ab) = ag(b) + bh(a) = ah(b) + bg(a), both equalities."""
    return check(IdentityKind.LEFT_GH, t)


def is_jordan_left_gh_derivation(t: MapTriple) -> CheckReport:
    """f(ab + ba) = 2(ag(b) + bh(a)) with the factor 2 kept explicit."""
    return check(IdentityKind.JORDAN_LEFT_GH, t)


def is_left_centralizer(f: LinMap) -> CheckReport:
    """f(ab) = f(a)b on all ordered basis pairs."""
    return check(IdentityKind.LEFT_CENTRALIZER, _single(f))


def is_right_centralizer(f: LinMap) -> CheckReport:
    """f(ab) = af(b) on all ordered basis pairs."""
    return check(IdentityKind.RIGHT_CENTRALIZER, _single(f))


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

    def to_doc(self) -> dict:
        fmt = self.lam.alg.ring.format
        return {
            "lambda": [fmt(c) for c in self.lam.coords],
            "lambda_central": self.lam_central,
            "d": [[fmt(c) for c in row] for row in self.d.mat],
            "d_is_left_derivation": self.d_is_left_derivation,
        }


def _is_central(x: AlgElement) -> bool:
    alg = x.alg
    for i in range(alg.dim):
        if alg.mul_vec_basis(x.coords, i) != alg.mul_basis_vec(i, x.coords):
            return False
    return True


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
    d = t.f - left_mul_map(lam)
    return LeftGHDecomposition(
        lam=lam,
        lam_central=_is_central(lam),
        d=d,
        d_is_left_derivation=is_left_derivation(d).holds,
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

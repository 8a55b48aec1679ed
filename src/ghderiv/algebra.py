"""Finite-dimensional algebras presented by structure constants.

An algebra here is a free module of finite rank over a coefficient ring
(Q or Z/mZ) with a bilinear product recorded as a dense table
``sc[i][j][k]``, the coefficient of basis vector ``e_k`` in ``e_i * e_j``.
Structure constants and element coordinates are raw ring values (``int``
or ``Fraction`` over Q, ``int`` residues over Z/mZ; see ``ring``), coerced
once when an algebra or element is built from outside input.
Everything downstream (maps, identity checks, linear systems) reads the
product exclusively through this table, so checking a bilinear identity on
all ordered basis pairs checks it on the whole algebra.

Built-in constructors:

* ``full_matrix(n, ring)``       n x n matrices, basis e_ij row-major
* ``upper_triangular(n, ring)``  upper triangular n x n matrices
* ``quaternions()``              the rational quaternions, basis (1, i, j, k)
* ``ring_as_algebra(ring)``      the ring itself as a rank-1 algebra
* ``tensor_product(a, b)``       a (x) b over Q, basis e_i (x) f_j
* ``truncated_poly(a, d)``       a[x] with x^(d+1) = 0, basis e_i x^t
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .ring import QQ, RingMismatch, RingSpec
from . import _linalg

__all__ = [
    "StructureAlgebra",
    "AlgElement",
    "ValidationReport",
    "AlgebraMismatch",
    "NonFieldRing",
    "full_matrix",
    "upper_triangular",
    "quaternions",
    "ring_as_algebra",
    "tensor_product",
    "truncated_poly",
    "jordan_product",
    "validate",
    "is_commutative",
    "center_basis",
    "triangle_positions",
    "algebra_to_doc",
    "algebra_from_doc",
    "from_spec",
]


class AlgebraMismatch(ValueError):
    """Elements or maps attached to different algebras met in one operation."""


class NonFieldRing(ValueError):
    """The construction needs the rational field as coefficient ring."""


@dataclass(frozen=True, eq=False)
class StructureAlgebra:
    """A structure-constant algebra over an exact coefficient ring.

    ``sc[i][j][k]`` is the coefficient of ``e_k`` in ``e_i * e_j`` and
    ``unity`` holds the coordinates of the multiplicative identity; both
    are coerced into raw values of ``ring`` on construction.  Instances
    are immutable; equality is structural (ring, dimension, labels, table,
    unity) so separately built copies compare equal, and hash equal.
    """

    ring: RingSpec
    dim: int
    labels: tuple[str, ...]
    sc: tuple
    unity: tuple
    # Set by tensor_product so coordinate extraction can recover the factors.
    # Deliberately excluded from equality: a tensor algebra and a structurally
    # identical hand-built table are the same algebra.
    factors: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        coerce = self.ring.coerce
        object.__setattr__(self, "sc", tuple(
            tuple(tuple(map(coerce, cell)) for cell in row) for row in self.sc
        ))
        object.__setattr__(self, "unity", tuple(map(coerce, self.unity)))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, StructureAlgebra):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.dim == other.dim
            and self.labels == other.labels
            and self.sc == other.sc
            and self.unity == other.unity
        )

    def __hash__(self):
        return hash((self.ring, self.dim, self.labels))

    # -- cached product views ---------------------------------------------

    @cached_property
    def _pair_table(self):
        """pair_table[i][j] = tuple of (k, c) with c = sc[i][j][k] nonzero."""
        return tuple(
            tuple(
                tuple((k, c) for k, c in enumerate(self.sc[i][j]) if c)
                for j in range(self.dim)
            )
            for i in range(self.dim)
        )

    @cached_property
    def _left_action(self):
        """left_action[i][m] = tuple of (l, c) with c = sc[i][l][m] nonzero,
        i.e. the matrix of left multiplication by e_i."""
        d = self.dim
        out = []
        for i in range(d):
            rows = [[] for _ in range(d)]
            for l in range(d):
                for k, c in self._pair_table[i][l]:
                    rows[k].append((l, c))
            out.append(tuple(tuple(r) for r in rows))
        return tuple(out)

    @cached_property
    def _right_action(self):
        """right_action[j][m] = tuple of (l, c) with c = sc[l][j][m] nonzero."""
        d = self.dim
        out = []
        for j in range(d):
            rows = [[] for _ in range(d)]
            for l in range(d):
                for k, c in self._pair_table[l][j]:
                    rows[k].append((l, c))
            out.append(tuple(tuple(r) for r in rows))
        return tuple(out)

    # -- elements -----------------------------------------------------------

    def element(self, coords) -> "AlgElement":
        vals = tuple(map(self.ring.coerce, coords))
        if len(vals) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(vals)}")
        return AlgElement(self, vals)

    def basis_element(self, i: int) -> "AlgElement":
        return AlgElement(self, tuple(int(k == i) for k in range(self.dim)))

    def zero(self) -> "AlgElement":
        return AlgElement(self, (0,) * self.dim)

    def one(self) -> "AlgElement":
        return AlgElement(self, self.unity)

    # -- products on raw coordinate tuples ----------------------------------

    def mul_basis_vec(self, i: int, coords) -> tuple:
        """Coordinates of e_i * v for a coordinate vector v."""
        acc = [0] * self.dim
        for l, cl in enumerate(coords):
            if cl:
                for k, c in self._pair_table[i][l]:
                    acc[k] += cl * c
        return tuple(map(self.ring.reduce, acc))

    def mul_vec_basis(self, coords, j: int) -> tuple:
        """Coordinates of v * e_j for a coordinate vector v."""
        acc = [0] * self.dim
        for l, cl in enumerate(coords):
            if cl:
                for k, c in self._pair_table[l][j]:
                    acc[k] += cl * c
        return tuple(map(self.ring.reduce, acc))

    def mul_vec_vec(self, a, b) -> tuple:
        acc = [0] * self.dim
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self._pair_table[i]
            for j, bj in enumerate(b):
                if bj:
                    for k, c in row[j]:
                        acc[k] += ai * bj * c
        return tuple(map(self.ring.reduce, acc))

    def __str__(self) -> str:
        return f"<algebra dim {self.dim} over {self.ring}>"


def _same_algebra(a: StructureAlgebra, b: StructureAlgebra) -> bool:
    return a is b or a == b


@dataclass(frozen=True)
class AlgElement:
    """An element of a structure-constant algebra, stored by raw coordinates."""

    alg: StructureAlgebra
    coords: tuple

    def _check(self, other: "AlgElement") -> None:
        if not isinstance(other, AlgElement):
            raise TypeError(f"expected an algebra element, got {other!r}")
        if not _same_algebra(self.alg, other.alg):
            raise AlgebraMismatch("elements live in different algebras")

    def _make(self, raw) -> "AlgElement":
        return AlgElement(self.alg, tuple(map(self.alg.ring.reduce, raw)))

    def __add__(self, other):
        self._check(other)
        return self._make(x + y for x, y in zip(self.coords, other.coords))

    def __sub__(self, other):
        self._check(other)
        return self._make(x - y for x, y in zip(self.coords, other.coords))

    def __neg__(self):
        return self._make(-x for x in self.coords)

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            return AlgElement(self.alg, self.alg.mul_vec_vec(self.coords, other.coords))
        return self.scale(other)

    def __rmul__(self, other):
        # Scalars commute with elements, so left scaling reuses scale().
        if isinstance(other, AlgElement):
            return NotImplemented
        return self.scale(other)

    def scale(self, c) -> "AlgElement":
        s = self.alg.ring.coerce(c)
        return self._make(s * x for x in self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __str__(self) -> str:
        fmt = self.alg.ring.format
        parts = []
        for lab, c in zip(self.alg.labels, self.coords):
            if c:
                parts.append(f"({fmt(c)})*{lab}")
        return " + ".join(parts) if parts else "0"


def jordan_product(a: AlgElement, b: AlgElement) -> AlgElement:
    """The symmetrized product a*b + b*a (no division by 2 anywhere)."""
    return a * b + b * a


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _build(ring, labels, entries, unity, dim, factors=None) -> StructureAlgebra:
    """Assemble a dense sc table from a sparse {(i,j,k): value} dict."""
    sc = tuple(
        tuple(
            tuple(entries.get((i, j, k), 0) for k in range(dim))
            for j in range(dim)
        )
        for i in range(dim)
    )
    return StructureAlgebra(
        ring=ring,
        dim=dim,
        labels=tuple(labels),
        sc=sc,
        unity=tuple(unity),
        factors=factors,
    )


def full_matrix(n: int, ring: RingSpec = QQ) -> StructureAlgebra:
    """The algebra of n x n matrices; basis e_ij in row-major order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = n * n
    idx = lambda i, j: i * n + j
    entries = {}
    for a, b, c, d in itertools.product(range(n), repeat=4):
        if b == c:
            entries[(idx(a, b), idx(c, d), idx(a, d))] = 1
    labels = [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    unity = [int(i % (n + 1) == 0) for i in range(dim)]
    return _build(ring, labels, entries, unity, dim)


def triangle_positions(n: int) -> list[tuple[int, int]]:
    """Row-major list of the (i, j), i <= j, positions of the upper triangle,
    0-based; this fixes the basis order of ``upper_triangular``."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def upper_triangular(n: int, ring: RingSpec = QQ) -> StructureAlgebra:
    """The algebra of upper triangular n x n matrices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    positions = triangle_positions(n)
    pos_index = {p: k for k, p in enumerate(positions)}
    dim = len(positions)
    entries = {}
    for (a, b), (c, d) in itertools.product(positions, repeat=2):
        if b == c:
            entries[(pos_index[(a, b)], pos_index[(c, d)], pos_index[(a, d)])] = 1
    labels = [f"e{i + 1}{j + 1}" for i, j in positions]
    unity = [int(i == j) for i, j in positions]
    return _build(ring, labels, entries, unity, dim)


def quaternions() -> StructureAlgebra:
    """The rational quaternions with basis (1, i, j, k)."""
    # (index, sign) of each basis product, rows are 1, i, j, k.
    prod = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }
    entries = {(i, j, k): c for (i, j), (k, c) in prod.items()}
    return _build(QQ, ["1", "i", "j", "k"], entries, [1, 0, 0, 0], 4)


def ring_as_algebra(ring: RingSpec) -> StructureAlgebra:
    """The coefficient ring itself, viewed as a rank-1 algebra."""
    return _build(ring, ["1"], {(0, 0, 0): 1}, [1], 1)


def tensor_product(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """The tensor product a (x) b with basis e_i (x) f_j ordered by i, then j.

    Both factors must live over the rational field; the product of pure
    tensors multiplies factorwise.
    """
    if a.ring != b.ring:
        raise RingMismatch("tensor factors live over different rings")
    if a.ring != QQ:
        raise NonFieldRing("tensor products are built over Q only")
    db = b.dim
    dim = a.dim * db
    entries = {}
    for i in range(a.dim):
        for k in range(a.dim):
            ta = a._pair_table[i][k]
            if not ta:
                continue
            for j in range(db):
                for l in range(db):
                    tb = b._pair_table[j][l]
                    for m, ca in ta:
                        for n, cb in tb:
                            entries[(i * db + j, k * db + l, m * db + n)] = ca * cb
    labels = [f"{la}⊗{lb}" for la in a.labels for lb in b.labels]
    unity = [ua * ub for ua in a.unity for ub in b.unity]
    return _build(QQ, labels, entries, unity, dim, factors=(a, b))


def _poly_label(base: str, t: int) -> str:
    if t == 0:
        return base
    xs = "x" if t == 1 else f"x^{t}"
    return xs if base == "1" else f"{base}*{xs}"


def truncated_poly(a: StructureAlgebra, degree: int) -> StructureAlgebra:
    """Polynomials over ``a`` truncated above ``degree``: x^(degree+1) = 0.

    Basis e_i x^t ordered by degree t, then i; products whose degrees add
    past the bound vanish.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    d = a.dim
    dim = d * (degree + 1)
    entries = {}
    for s in range(degree + 1):
        for t in range(degree + 1):
            if s + t > degree:
                continue
            for i in range(d):
                for j in range(d):
                    for k, c in a._pair_table[i][j]:
                        entries[(s * d + i, t * d + j, (s + t) * d + k)] = c
    labels = [_poly_label(lab, t) for t in range(degree + 1) for lab in a.labels]
    unity = list(a.unity) + [0] * (dim - d)
    return _build(a.ring, labels, entries, unity, dim)


# ---------------------------------------------------------------------------
# predicates and diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    assoc_failure: tuple[int, int, int] | None = None
    unity_failure: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate(alg: StructureAlgebra) -> ValidationReport:
    """Check associativity on all basis triples and both unity laws.

    Returns the first failing triple (i, j, k) in lexicographic order, or
    the first basis index where 1 * e_i or e_i * 1 goes wrong.
    """
    d = alg.dim
    table = alg._pair_table
    for i in range(d):
        for j in range(d):
            left = table[i][j]
            for k in range(d):
                acc = [0] * d
                for m, c in left:
                    for t, c2 in table[m][k]:
                        acc[t] += c * c2
                for m, c in table[j][k]:
                    for t, c2 in table[i][m]:
                        acc[t] -= c * c2
                if any(map(alg.ring.reduce, acc)):
                    return ValidationReport(False, assoc_failure=(i, j, k))
    for i in range(d):
        lhs = alg.mul_vec_basis(alg.unity, i)
        rhs = alg.mul_basis_vec(i, alg.unity)
        want = alg.basis_element(i).coords
        if lhs != want or rhs != want:
            return ValidationReport(False, unity_failure=i)
    return ValidationReport(True)


def is_commutative(alg: StructureAlgebra) -> bool:
    """True iff e_i e_j = e_j e_i for all basis pairs."""
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            if alg.sc[i][j] != alg.sc[j][i]:
                return False
    return True


def center_basis(alg: StructureAlgebra) -> list[AlgElement]:
    """Canonical basis of the center {x : xe_i = e_ix for all i}.

    Needs a field-like ring (Q or prime modulus) for the elimination;
    composite moduli raise CompositeModulusUnsupported.
    """
    ring = alg.ring
    d = alg.dim
    rows = []
    for i in range(d):
        for m in range(d):
            row = {}
            for l, c in alg._right_action[i][m]:
                row[l] = row.get(l, 0) + c
            for l, c in alg._left_action[i][m]:
                row[l] = row.get(l, 0) - c
            row = {k: r for k, v in row.items() if (r := ring.reduce(v))}
            if row:
                rows.append(row)
    echelon, pivots = _linalg.rref(rows, ring)
    basis = _linalg.nullspace(echelon, pivots, d, ring)
    can, _ = _linalg.rref(basis, ring)
    out = []
    for row in can:
        coords = [0] * d
        for c, v in row.items():
            coords[c] = v
        out.append(AlgElement(alg, tuple(coords)))
    return out


# ---------------------------------------------------------------------------
# JSON documents and spec strings
# ---------------------------------------------------------------------------


def algebra_to_doc(alg: StructureAlgebra) -> dict:
    fmt = alg.ring.format
    return {
        "ring": alg.ring.to_doc(),
        "dim": alg.dim,
        "labels": list(alg.labels),
        "unity": [fmt(c) for c in alg.unity],
        "sc": [
            [[fmt(c) for c in alg.sc[i][j]] for j in range(alg.dim)]
            for i in range(alg.dim)
        ],
    }


def algebra_from_doc(doc: dict, strict: bool = True) -> StructureAlgebra:
    """Rebuild an algebra from its JSON document.

    With ``strict`` the table is validated (associativity, unity) and a
    ValueError is raised for corrupt input.
    """
    try:
        ring = RingSpec.from_doc(doc["ring"])
        dim = int(doc["dim"])
        labels = tuple(str(x) for x in doc["labels"])
        unity = tuple(ring.parse(str(x)) for x in doc["unity"])
        sc = tuple(
            tuple(
                tuple(ring.parse(str(doc["sc"][i][j][k])) for k in range(dim))
                for j in range(dim)
            )
            for i in range(dim)
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"bad algebra document: {exc}") from None
    if len(labels) != dim or len(unity) != dim:
        raise ValueError("algebra document has inconsistent dimensions")
    alg = StructureAlgebra(ring=ring, dim=dim, labels=labels, sc=sc, unity=unity)
    if strict:
        rep = validate(alg)
        if not rep.ok:
            raise ValueError(f"algebra document fails validation: {rep}")
    return alg


def _parse_spec(text: str, ring: RingSpec):
    t = text.strip()
    if t.startswith("poly(") and t.endswith(")"):
        inner = t[5:-1]
        base_text, _, deg = inner.rpartition(",")
        if not base_text:
            raise ValueError(f"poly(...) needs a base algebra and a degree: {text!r}")
        return truncated_poly(_parse_spec(base_text, ring), int(deg))
    if t.startswith("tensor(") and t.endswith(")"):
        inner = t[7:-1]
        depth = 0
        for pos, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                left, right = inner[:pos], inner[pos + 1 :]
                return tensor_product(
                    _parse_spec(left, ring), _parse_spec(right, ring)
                )
        raise ValueError(f"tensor(...) needs two algebras: {text!r}")
    if ":" in t:
        # Colon shorthand for non-nested forms: poly:BASE:D, tensor:A:B.
        head, _, rest = t.partition(":")
        if head == "poly":
            base_text, _, deg = rest.rpartition(":")
            return truncated_poly(_parse_spec(base_text, ring), int(deg))
        if head == "tensor":
            left, _, right = rest.partition(":")
            if not right or ":" in right:
                raise ValueError(f"tensor:A:B takes exactly two plain names: {text!r}")
            return tensor_product(_parse_spec(left, ring), _parse_spec(right, ring))
        raise ValueError(f"unknown algebra spec: {text!r}")
    if t == "quat":
        # Silently handing back the rational quaternions for another ring
        # would mislabel every downstream result; refuse instead.
        if ring != QQ:
            raise ValueError("the quaternion algebra is built over Q only")
        return quaternions()
    if t == "ring":
        return ring_as_algebra(ring)
    if t.startswith("tn") and t[2:].isdigit():
        return upper_triangular(int(t[2:]), ring)
    if t.startswith("mn") and t[2:].isdigit():
        return full_matrix(int(t[2:]), ring)
    raise ValueError(f"unknown algebra spec: {text!r}")


def from_spec(text: str, ring: RingSpec = QQ) -> StructureAlgebra:
    """Build an algebra from a compact spec string.

    Grammar: ``tn<k>``, ``mn<k>``, ``quat``, ``ring``, ``poly(SPEC,D)`` and
    ``tensor(SPEC,SPEC)``; the colon forms ``poly:SPEC:D`` and
    ``tensor:A:B`` are accepted when the arguments are not themselves
    nested.  ``quat`` lives over Q and rejects any other ring; everything
    else uses ``ring``.
    """
    try:
        return _parse_spec(text, ring)
    except ValueError:
        raise
    except Exception as exc:
        raise ValueError(f"bad algebra spec {text!r}: {exc}") from None

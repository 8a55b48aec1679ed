"""Finite-dimensional algebras presented by structure constants.

An algebra here is a free module of finite rank over a coefficient ring
(Q or Z/mZ) with a bilinear product stored as a dense table
``sc[i][j][k]``, the coefficient of basis vector ``e_k`` in ``e_i * e_j``.
Structure constants and element coordinates are raw ring values (``int``
or ``Fraction`` over Q, ``int`` residues over Z/mZ; see ``ring``), coerced
once when an algebra or element is built from outside input.
``sc`` is what documents, equality and hashing see.  Every computation
(products, validation, maps, identity checks, linear systems) reads the
product through one sparse view of it, ``_pair_table``, which lists the
nonzero ``(k, c)`` of each basis product ``e_i * e_j``.  The
product is bilinear, so checking a bilinear identity on all ordered basis
pairs checks it on the whole algebra.

Built-in constructors:

* ``full_matrix(n, ring)``       n x n matrices, basis e_ij row-major
* ``upper_triangular(n, ring)``  upper triangular n x n matrices
* ``quaternions()``              the rational quaternions, basis (1, i, j, k)
* ``ring_as_algebra(ring)``      the ring itself as a rank-1 algebra
* ``tensor_product(a, b)``       a (x) b over Q, basis e_i (x) f_j
* ``truncated_poly(a, d)``       a[x] with x^(d+1) = 0, basis e_i x^t

The dense table of a dimension-d algebra holds d^3 constants, so every
constructor, and ``algebra_from_doc``, refuses a dimension above
``MAX_DIM`` before it builds anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .ring import MAX_DIGITS, QQ, RingMismatch, RingSpec, _shown, _shown_number, array

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
    "triangle_positions",
    "algebra_to_doc",
    "algebra_from_doc",
    "from_spec",
    "MAX_DIM",
]

# Largest dimension any constructor builds: a dense table of 128^3, about
# 2.1 M constants.  tn15 (120) and mn11 (121) are the largest built-ins under it.
MAX_DIM = 128


class AlgebraMismatch(ValueError):
    """Elements or maps attached to different algebras met in one operation."""


class NonFieldRing(ValueError):
    """The construction needs the rational field as coefficient ring."""


@dataclass(frozen=True, eq=False)
class StructureAlgebra:
    """A structure-constant algebra over an exact coefficient ring.

    ``sc[i][j][k]`` is the coefficient of ``e_k`` in ``e_i * e_j`` and
    ``unity`` holds the coordinates of the multiplicative identity; both
    are coerced into raw values of ``ring`` on construction, each distinct
    cell once, so equal cells share one tuple.  ``sc`` must be a d x d x d
    array and ``unity`` an array of d values (lists or tuples).  Instances
    are immutable; equality is structural (ring, dimension, labels, table,
    unity) so separately built copies compare equal, and hash equal.
    """

    ring: RingSpec
    dim: int
    labels: tuple[str, ...]
    sc: tuple
    unity: tuple

    def __post_init__(self):
        d = self.dim
        shape = f"structure constants must be a {d} x {d} x {d} array"
        cell = self.ring.vectors(d, shape)
        object.__setattr__(self, "sc", tuple(
            tuple(map(cell, array(row, d, shape))) for row in array(self.sc, d, shape)
        ))
        unity = self.ring.vectors(d, f"unity must be an array of {d} values")
        object.__setattr__(self, "unity", unity(self.unity))

    def __eq__(self, other):
        # The package tests "not a == b": "a != b" would reach this method
        # through object.__ne__, at three times the cost on the hot paths.
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

    # -- the product view every layer reads --------------------------------

    @cached_property
    def _pair_table(self):
        """pair_table[i][j] = tuple of (k, c) with c = sc[i][j][k] nonzero.

        One view per distinct cell: equal cells share it.
        """
        views = {}

        def view(cell):
            v = views.get(cell)
            if v is None:
                v = views[cell] = tuple((k, c) for k, c in enumerate(cell) if c)
            return v

        return tuple(tuple(map(view, row)) for row in self.sc)

    # -- elements -----------------------------------------------------------

    def element(self, coords) -> "AlgElement":
        error = f"expected an array of {self.dim} coordinates"
        return AlgElement(self, tuple(map(self.ring.coerce, array(coords, self.dim, error))))

    def basis_element(self, i: int) -> "AlgElement":
        return AlgElement(self, (0,) * i + (1,) + (0,) * (self.dim - i - 1))

    def zero(self) -> "AlgElement":
        return AlgElement(self, (0,) * self.dim)

    def one(self) -> "AlgElement":
        return AlgElement(self, self.unity)

    # -- products on raw coordinate tuples ----------------------------------

    def mul_vec_vec(self, a, b) -> tuple:
        """Coordinates of a * b for coordinate vectors a and b."""
        acc = [0] * self.dim
        nonzero_b = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self._pair_table[i]
            for j, bj in nonzero_b:
                for k, c in row[j]:
                    acc[k] += ai * bj * c
        reduce = self.ring.reduce
        return tuple(reduce(x) if x else 0 for x in acc)

    def __str__(self) -> str:
        return f"<algebra dim {self.dim} over {self.ring}>"


@dataclass(frozen=True)
class AlgElement:
    """An element of a structure-constant algebra, stored by raw coordinates."""

    alg: StructureAlgebra
    coords: tuple

    def _check(self, other: "AlgElement") -> None:
        if not isinstance(other, AlgElement):
            raise TypeError(f"expected an algebra element, got {other!r}")
        if not self.alg == other.alg:
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


def _check_dim(dim: int, what: str, *sizes: int) -> None:
    """Refuse an algebra whose table would exceed MAX_DIM^3 constants.

    ``what`` names the algebra, with a ``{}`` for each of ``sizes``.  The
    name is built only once the size is refused, and each number in the
    message is shown, shortened when long, by ``_shown_number``, which
    never turns a long int into text.
    """
    if dim > MAX_DIM:
        what = what.format(*map(_shown_number, sizes))
        raise ValueError(f"{what} would have dimension {_shown_number(dim)}, "
                         f"over the limit of {MAX_DIM}")


def _build(ring, labels, entries, unity, dim) -> StructureAlgebra:
    """Assemble a dense sc table from a sparse {(i,j,k): value} dict: every
    cell without an entry is one shared zero cell."""
    zero = (0,) * dim
    sc = [[zero] * dim for _ in range(dim)]
    for (i, j, k), c in entries.items():
        cell = sc[i][j]
        if cell is zero:
            cell = sc[i][j] = [0] * dim
        cell[k] = c
    return StructureAlgebra(
        ring=ring,
        dim=dim,
        labels=tuple(labels),
        sc=sc,
        unity=tuple(unity),
    )


def _matrix_units(positions, ring: RingSpec) -> StructureAlgebra:
    """The span of the matrix units e_ab, (a, b) in ``positions`` and in
    that basis order: e_ab e_cd = e_ad when b = c, else 0.  Labels are
    ``e{a+1}{b+1}``; the unity is the sum of the diagonal units.  The
    positions must be closed under that product."""
    index = {p: k for k, p in enumerate(positions)}
    entries = {(index[(a, b)], index[(c, d)], index[(a, d)]): 1
               for (a, b), (c, d) in itertools.product(positions, repeat=2) if b == c}
    labels = [f"e{a + 1}{b + 1}" for a, b in positions]
    unity = [int(a == b) for a, b in positions]
    return _build(ring, labels, entries, unity, len(positions))


def full_matrix(n: int, ring: RingSpec = QQ) -> StructureAlgebra:
    """The algebra of n x n matrices; basis e_ij in row-major order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_dim(n * n, "mn{}", n)
    return _matrix_units([(i, j) for i in range(n) for j in range(n)], ring)


def triangle_positions(n: int) -> list[tuple[int, int]]:
    """Row-major list of the (i, j), i <= j, positions of the upper triangle,
    0-based; this fixes the basis order of ``upper_triangular``."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def upper_triangular(n: int, ring: RingSpec = QQ) -> StructureAlgebra:
    """The algebra of upper triangular n x n matrices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_dim(n * (n + 1) // 2, "tn{}", n)
    return _matrix_units(triangle_positions(n), ring)


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
    _check_dim(dim, "a tensor product of dimensions {} and {}", a.dim, db)
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
    return _build(QQ, labels, entries, unity, dim)


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
    _check_dim(dim, "a degree-{} polynomial algebra over dimension {}", degree, d)
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

    Only triples where a side can be nonzero are visited: (e_i e_j) e_k
    needs e_m e_k != 0 for some e_m in e_i e_j, and e_i (e_j e_k) needs
    e_j e_k != 0.  Every other triple has both sides zero, so skipping it
    leaves the first failure where it was.
    """
    d = alg.dim
    reduce = alg.ring.reduce
    table = alg._pair_table
    # live[j]: the k with e_j e_k != 0.
    live = [frozenset(k for k, cell in enumerate(row) if cell) for row in table]
    for i in range(d):
        row_i = table[i]
        for j in range(d):
            left = row_i[j]
            ks = live[j].union(*[live[m] for m, _ in left]) if left else live[j]
            for k in sorted(ks):
                # (e_i e_j) e_k - e_i (e_j e_k), on the coordinates it touches.
                acc = {}
                for m, c in left:
                    for t, c2 in table[m][k]:
                        acc[t] = acc.get(t, 0) + c * c2
                for m, c in table[j][k]:
                    for t, c2 in row_i[m]:
                        acc[t] = acc.get(t, 0) - c * c2
                # An exact 0 needs no reduction; over Z/m a nonzero sum may.
                if any(acc.values()) and any(map(reduce, acc.values())):
                    return ValidationReport(False, assoc_failure=(i, j, k))
    one = alg.unity
    for i in range(d):
        e = alg.basis_element(i).coords
        if (alg.mul_vec_vec(one, e), alg.mul_vec_vec(e, one)) != (e, e):
            return ValidationReport(False, unity_failure=i)
    return ValidationReport(True)


def is_commutative(alg: StructureAlgebra) -> bool:
    """True iff e_i e_j = e_j e_i for all basis pairs."""
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            if alg.sc[i][j] != alg.sc[j][i]:
                return False
    return True


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


def algebra_from_doc(doc: dict) -> StructureAlgebra:
    """Rebuild an algebra from its JSON document.

    The table is validated (associativity, unity): corrupt input raises
    ValueError.
    """
    try:
        ring = RingSpec.from_doc(doc["ring"])
        dim = doc["dim"]
        if type(dim) is not int or dim < 1:
            shown = _shown(dim) if isinstance(dim, str) else repr(dim)
            raise ValueError(f"bad algebra document: dim {shown} is not an "
                             f"integer from 1 to {MAX_DIM}")
        _check_dim(dim, "the algebra document")
        labels = doc["labels"]
        # Values go to the constructor as they are, so its coercion refuses
        # JSON floats and bools, and arrays of the wrong shape; it coerces
        # each distinct cell once.
        unity = doc["unity"]
        sc = doc["sc"]
        if len(labels) != dim or len(unity) != dim:
            raise ValueError("algebra document has inconsistent dimensions")
        labels = array(labels, dim, "bad algebra document: labels must be an array")
        labels = tuple(map(str, labels))
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"bad algebra document: {exc}") from None
    alg = StructureAlgebra(ring=ring, dim=dim, labels=labels, sc=sc, unity=unity)
    rep = validate(alg)
    if not rep.ok:
        raise ValueError(f"algebra document fails validation: {rep}")
    return alg


class _BadSpec(ValueError):
    """What is wrong with a spec string; ``from_spec`` names the whole spec."""


def _whole(text: str, what: str) -> int:
    """A size or degree in a spec: decimal digits, at most MAX_DIGITS of them."""
    t = text.strip()
    if not t.isdecimal():
        raise _BadSpec(f"the {what} {_shown(t)} is not a whole number")
    if len(t) > MAX_DIGITS:
        raise _BadSpec(f"the {what} has more than {MAX_DIGITS} digits")
    return int(t)


def _parse_spec(text: str, ring: RingSpec):
    t = text.strip()
    if t.startswith("poly(") and t.endswith(")"):
        inner = t[5:-1]
        base_text, _, deg = inner.rpartition(",")
        if not base_text:
            raise _BadSpec("poly(SPEC,D) needs a base algebra and a degree")
        return truncated_poly(_parse_spec(base_text, ring), _whole(deg, "degree"))
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
        raise _BadSpec("tensor(SPEC,SPEC) needs two algebras")
    if ":" in t:
        # Colon shorthand for non-nested forms: poly:BASE:D, tensor:A:B.
        head, _, rest = t.partition(":")
        if head == "poly":
            base_text, _, deg = rest.rpartition(":")
            if not base_text:
                raise _BadSpec("poly:BASE:D needs a base algebra and a degree")
            return truncated_poly(_parse_spec(base_text, ring), _whole(deg, "degree"))
        if head == "tensor":
            left, _, right = rest.partition(":")
            if not right or ":" in right:
                raise _BadSpec("tensor:A:B takes exactly two plain names")
            return tensor_product(_parse_spec(left, ring), _parse_spec(right, ring))
        raise _BadSpec(f"unknown form {_shown(head + ':')}")
    if t == "quat":
        # Silently handing back the rational quaternions for another ring
        # would mislabel every downstream result; refuse instead.
        if ring != QQ:
            raise ValueError("the quaternion algebra is built over Q only")
        return quaternions()
    if t == "ring":
        return ring_as_algebra(ring)
    if t.startswith("tn") and t[2:].isdecimal():
        return upper_triangular(_whole(t[2:], "size"), ring)
    if t.startswith("mn") and t[2:].isdecimal():
        return full_matrix(_whole(t[2:], "size"), ring)
    raise _BadSpec(f"unknown algebra {_shown(t)}")


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
    except _BadSpec as exc:
        raise ValueError(f"bad algebra spec {_shown(text)}: {exc}") from None
    except ValueError:
        raise
    except Exception as exc:
        raise ValueError(f"bad algebra spec {_shown(text)}: {exc}") from None

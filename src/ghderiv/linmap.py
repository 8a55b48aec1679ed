"""Linear self-maps of a structure-constant algebra and map triples.

A map is stored as a dense d x d matrix of raw ring values (see
``ring``), ``mat[i][j]``; column j holds the coordinates of the image of
basis vector e_j.  Triples (f, g,
h) bundle the three maps appearing in the two-sided and one-sided product
identities.

The ``*_family`` constructors build the closed-form solution families for
the triangular, full matrix and quaternion algebras; ``poly_lift`` and
``tensor_extend`` transport maps into truncated polynomial and tensor
product algebras, and ``tensor_coordinates`` undoes the latter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import QQ, RingSpec
from .algebra import (
    AlgebraMismatch,
    AlgElement,
    StructureAlgebra,
    full_matrix,
    quaternions,
    tensor_product,
    triangle_positions,
    truncated_poly,
    upper_triangular,
    algebra_from_doc,
    algebra_to_doc,
    from_spec,
    _same_algebra,
)

__all__ = [
    "LinMap",
    "MapTriple",
    "BadParameterCount",
    "NotATensorAlgebra",
    "right_mul_map",
    "left_mul_map",
    "tn_jordan_family",
    "tn_left_family",
    "mn_jordan_family",
    "quat_jordan_family",
    "poly_lift",
    "poly_lift_triple",
    "tensor_extend",
    "tensor_extend_triple",
    "tensor_coordinates",
    "map_to_doc",
    "map_from_doc",
    "triple_to_doc",
    "triple_from_doc",
]


class BadParameterCount(ValueError):
    """A parametric family was given the wrong number of parameters."""


class NotATensorAlgebra(ValueError):
    """Coordinate extraction needs a map on an algebra built by tensor_product."""


@dataclass(frozen=True)
class LinMap:
    """A module-linear self-map, column j = coordinates of the image of e_j.

    ``mat`` holds raw ring values; ``from_rows`` and ``from_columns``
    coerce outside input into that form.
    """

    alg: StructureAlgebra
    mat: tuple

    def __post_init__(self):
        d = self.alg.dim
        if len(self.mat) != d or any(len(r) != d for r in self.mat):
            raise ValueError(f"matrix must be {d} x {d}")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, alg: StructureAlgebra, rows) -> "LinMap":
        """Build from a row-major iterable; entries are coerced into the ring."""
        mat = tuple(tuple(map(alg.ring.coerce, row)) for row in rows)
        return cls(alg, mat)

    @classmethod
    def from_columns(cls, alg: StructureAlgebra, cols) -> "LinMap":
        cols = [tuple(map(alg.ring.coerce, col)) for col in cols]
        d = alg.dim
        mat = tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))
        return cls(alg, mat)

    @classmethod
    def from_images(cls, alg: StructureAlgebra, images) -> "LinMap":
        """Build from the list of images of the basis vectors."""
        cols = []
        for im in images:
            if not _same_algebra(im.alg, alg):
                raise AlgebraMismatch("image element lives in a different algebra")
            cols.append(im.coords)
        return cls.from_columns(alg, cols)

    @classmethod
    def zero(cls, alg: StructureAlgebra) -> "LinMap":
        return cls(alg, tuple((0,) * alg.dim for _ in range(alg.dim)))

    @classmethod
    def identity(cls, alg: StructureAlgebra) -> "LinMap":
        return cls(alg, tuple(alg.basis_element(i).coords for i in range(alg.dim)))

    # -- use ------------------------------------------------------------------

    def apply(self, x: AlgElement) -> AlgElement:
        if not _same_algebra(x.alg, self.alg):
            raise AlgebraMismatch("map and element live in different algebras")
        d = self.alg.dim
        acc = [0] * d
        for j, cj in enumerate(x.coords):
            if cj:
                for i in range(d):
                    m = self.mat[i][j]
                    if m:
                        acc[i] += m * cj
        return AlgElement(self.alg, tuple(map(self.alg.ring.reduce, acc)))

    def __call__(self, x: AlgElement) -> AlgElement:
        return self.apply(x)

    def column(self, j: int) -> tuple:
        return tuple(self.mat[i][j] for i in range(self.alg.dim))

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "LinMap") -> None:
        if not isinstance(other, LinMap):
            raise TypeError(f"expected a linear map, got {other!r}")
        if not _same_algebra(self.alg, other.alg):
            raise AlgebraMismatch("maps live in different algebras")

    def _make(self, raw_rows) -> "LinMap":
        reduce = self.alg.ring.reduce
        return LinMap(self.alg, tuple(tuple(map(reduce, r)) for r in raw_rows))

    def __add__(self, other):
        self._check(other)
        return self._make(
            (a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.mat, other.mat)
        )

    def __sub__(self, other):
        self._check(other)
        return self._make(
            (a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.mat, other.mat)
        )

    def __neg__(self):
        return self._make((-a for a in r) for r in self.mat)

    def scale(self, c) -> "LinMap":
        s = self.alg.ring.coerce(c)
        return self._make((s * a for a in r) for r in self.mat)

    def is_zero(self) -> bool:
        return not any(map(any, self.mat))


@dataclass(frozen=True)
class MapTriple:
    """The triple (f, g, h) entering the product identities."""

    f: LinMap
    g: LinMap
    h: LinMap

    def __post_init__(self):
        if not (
            _same_algebra(self.f.alg, self.g.alg)
            and _same_algebra(self.f.alg, self.h.alg)
        ):
            raise AlgebraMismatch("all three maps must share one algebra")
        # Rebase g and h onto f's algebra object so later same-algebra checks
        # hit the identity fast path instead of comparing whole sc tables.
        a = self.f.alg
        if self.g.alg is not a:
            object.__setattr__(self, "g", LinMap(a, self.g.mat))
        if self.h.alg is not a:
            object.__setattr__(self, "h", LinMap(a, self.h.mat))

    @property
    def alg(self) -> StructureAlgebra:
        return self.f.alg

    def __add__(self, other: "MapTriple") -> "MapTriple":
        return MapTriple(self.f + other.f, self.g + other.g, self.h + other.h)

    def scale(self, c) -> "MapTriple":
        return MapTriple(self.f.scale(c), self.g.scale(c), self.h.scale(c))

    @classmethod
    def zero(cls, alg: StructureAlgebra) -> "MapTriple":
        z = LinMap.zero(alg)
        return cls(z, z, z)


# ---------------------------------------------------------------------------
# multiplication operators
# ---------------------------------------------------------------------------


def right_mul_map(alpha: AlgElement) -> LinMap:
    """The operator x -> x * alpha."""
    alg = alpha.alg
    return LinMap.from_columns(
        alg, [alg.mul_basis_vec(j, alpha.coords) for j in range(alg.dim)]
    )


def left_mul_map(alpha: AlgElement) -> LinMap:
    """The operator x -> alpha * x."""
    alg = alpha.alg
    return LinMap.from_columns(
        alg, [alg.mul_vec_basis(alpha.coords, j) for j in range(alg.dim)]
    )


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------


def tn_jordan_family(n, gparams, hparams, ring: RingSpec = QQ) -> MapTriple:
    """Two-sided-identity solution family over the upper triangular algebra.

    ``gparams`` holds the n(n+1)/2 coefficients indexed by the row-major
    upper-triangle positions (k, j), k <= j; ``hparams`` the n first-row
    coefficients.  The triple is assembled column by column from the
    closed forms

        g(e_ab) = sum_{j >= b} g[(b, j)] e_aj
        h(e_ab) = g(e_ab)             for (a, b) != (1, 1)
        h(e_11) = sum_j h[j] e_1j
        f = g + h

    which is the same thing as right multiplication by the matrices
    collecting the parameters.
    """
    alg = upper_triangular(n, ring)
    positions = triangle_positions(n)
    pos_index = {p: k for k, p in enumerate(positions)}
    gp = [alg.ring.coerce(x) for x in gparams]
    hp = [alg.ring.coerce(x) for x in hparams]
    if len(gp) != len(positions):
        raise BadParameterCount(f"need {len(positions)} g parameters, got {len(gp)}")
    if len(hp) != n:
        raise BadParameterCount(f"need {n} h parameters, got {len(hp)}")

    def g_column(a, b):
        col = [0] * alg.dim
        for j in range(b, n):
            col[pos_index[(a, j)]] = gp[pos_index[(b, j)]]
        return col

    gcols, hcols = [], []
    for (a, b) in positions:
        gcols.append(g_column(a, b))
        if (a, b) == (0, 0):
            col = [0] * alg.dim
            for j in range(n):
                col[pos_index[(0, j)]] = hp[j]
            hcols.append(col)
        else:
            hcols.append(g_column(a, b))
    g = LinMap.from_columns(alg, gcols)
    h = LinMap.from_columns(alg, hcols)
    return MapTriple(g + h, g, h)


def tn_left_family(n, gparams, hparams, ring: RingSpec = QQ) -> MapTriple:
    """One-sided-identity solution family over the upper triangular algebra.

    Both maps kill every basis vector except e_11, which they send into the
    first row with the given n coefficients; f = g + h.
    """
    alg = upper_triangular(n, ring)
    positions = triangle_positions(n)
    pos_index = {p: k for k, p in enumerate(positions)}
    gp = [alg.ring.coerce(x) for x in gparams]
    hp = [alg.ring.coerce(x) for x in hparams]
    if len(gp) != n or len(hp) != n:
        raise BadParameterCount(f"need {n} parameters per map")

    def column(params, a, b):
        col = [0] * alg.dim
        if (a, b) == (0, 0):
            for j in range(n):
                col[pos_index[(0, j)]] = params[j]
        return col

    g = LinMap.from_columns(alg, [column(gp, a, b) for (a, b) in positions])
    h = LinMap.from_columns(alg, [column(hp, a, b) for (a, b) in positions])
    return MapTriple(g + h, g, h)


def mn_jordan_family(n: int, alpha: AlgElement) -> MapTriple:
    """(2 R_alpha, R_alpha, R_alpha) on the full matrix algebra containing alpha."""
    if alpha.alg.dim != n * n:
        raise BadParameterCount(
            f"alpha has {alpha.alg.dim} coordinates, expected {n * n}"
        )
    r = right_mul_map(alpha)
    return MapTriple(r.scale(2), r, r)


def quat_jordan_family(alpha: AlgElement) -> MapTriple:
    """(2 R_alpha, R_alpha, R_alpha) on the quaternions."""
    if alpha.alg.dim != 4:
        raise BadParameterCount("alpha must be a quaternion")
    r = right_mul_map(alpha)
    return MapTriple(r.scale(2), r, r)


# ---------------------------------------------------------------------------
# transport to bigger algebras
# ---------------------------------------------------------------------------


def poly_lift(f: LinMap, degree: int) -> LinMap:
    """Degreewise lift to the truncated polynomial algebra:
    e_i x^t -> f(e_i) x^t."""
    base = f.alg
    lifted = truncated_poly(base, degree)
    d = base.dim
    cols = []
    for t in range(degree + 1):
        for i in range(d):
            col = [0] * lifted.dim
            fc = f.column(i)
            for m in range(d):
                col[t * d + m] = fc[m]
            cols.append(col)
    return LinMap.from_columns(lifted, cols)


def poly_lift_triple(t: MapTriple, degree: int) -> MapTriple:
    return MapTriple(
        poly_lift(t.f, degree), poly_lift(t.g, degree), poly_lift(t.h, degree)
    )


def tensor_extend(f: LinMap, s: StructureAlgebra) -> LinMap:
    """The map f (x) id on the tensor product of f's algebra with s."""
    a = f.alg
    prod = tensor_product(a, s)
    ds = s.dim
    cols = []
    for i in range(a.dim):
        fc = f.column(i)
        for j in range(ds):
            col = [0] * prod.dim
            for m in range(a.dim):
                if fc[m]:
                    col[m * ds + j] = fc[m]
            cols.append(col)
    return LinMap.from_columns(prod, cols)


def tensor_extend_triple(t: MapTriple, s: StructureAlgebra) -> MapTriple:
    return MapTriple(
        tensor_extend(t.f, s), tensor_extend(t.g, s), tensor_extend(t.h, s)
    )


def tensor_coordinates(f: LinMap) -> list[LinMap]:
    """Coordinate maps of a self-map of a tensor product algebra.

    For F on A (x) S this returns, for each basis vector b_t of S, the map
    a -> (coordinate t of F(a (x) 1)) as a self-map of A.  Extending a map
    and taking coordinates returns the original at the slot of 1 in S and
    zero elsewhere whenever 1 is a basis vector of S.
    """
    prod = f.alg
    if prod.factors is None:
        raise NotATensorAlgebra("map does not live on a tensor product algebra")
    a, s = prod.factors
    ds = s.dim
    cols_per_t = [[] for _ in range(ds)]
    for i in range(a.dim):
        embedded = [0] * prod.dim
        for n_ in range(ds):
            if s.unity[n_]:
                embedded[i * ds + n_] = s.unity[n_]
        image = f.apply(AlgElement(prod, tuple(embedded)))
        for t in range(ds):
            cols_per_t[t].append(
                tuple(image.coords[m * ds + t] for m in range(a.dim))
            )
    return [LinMap.from_columns(a, cols) for cols in cols_per_t]


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


def _matrix_doc(f: LinMap) -> list:
    fmt = f.alg.ring.format
    return [[fmt(c) for c in row] for row in f.mat]


def map_to_doc(f: LinMap, inline_algebra: bool = True) -> dict:
    doc = {"matrix": _matrix_doc(f)}
    if inline_algebra:
        doc["algebra"] = algebra_to_doc(f.alg)
    return doc


def _algebra_from_ref(ref, ring: RingSpec | None) -> StructureAlgebra:
    if isinstance(ref, str):
        return from_spec(ref, ring if ring is not None else QQ)
    if isinstance(ref, dict):
        return algebra_from_doc(ref)
    raise ValueError(f"bad algebra reference: {ref!r}")


def map_from_doc(doc: dict, ring: RingSpec | None = None,
                 alg: StructureAlgebra | None = None) -> LinMap:
    if alg is None:
        alg = _algebra_from_ref(doc.get("algebra"), ring)
    return LinMap.from_rows(alg, [[str(x) for x in row] for row in doc["matrix"]])


def triple_to_doc(t: MapTriple, inline_algebra: bool = True) -> dict:
    doc = {"f": _matrix_doc(t.f), "g": _matrix_doc(t.g), "h": _matrix_doc(t.h)}
    if inline_algebra:
        doc["algebra"] = algebra_to_doc(t.alg)
    return doc


def triple_from_doc(doc: dict, ring: RingSpec | None = None,
                    alg: StructureAlgebra | None = None) -> MapTriple:
    if alg is None:
        alg = _algebra_from_ref(doc.get("algebra"), ring)
    def load(key):
        return LinMap.from_rows(alg, [[str(x) for x in row] for row in doc[key]])
    return MapTriple(load("f"), load("g"), load("h"))

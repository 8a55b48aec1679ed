"""Linear self-maps of a structure-constant algebra and map triples.

A map is stored as a dense d x d matrix of raw ring values (see
``ring``), ``mat[i][j]``; column j holds the coordinates of the image of
basis vector e_j.  Triples (f, g, h) bundle the three maps appearing in
the two-sided and one-sided product identities.

The ``*_family`` constructors build the paper's closed-form solution
families for the triangular, full matrix and quaternion algebras, each as
right multiplications R_x: y -> y * x (``right_mul_map``): the T_n
families are (R_G + R_H, R_G, R_H) and the others (2 R_alpha, R_alpha,
R_alpha).  Documents always carry their algebra, inline or as a spec
string, and a loaded algebra is always validated.  ``poly_lift_triple``
and ``tensor_extend_triple`` transport a triple into a truncated
polynomial or tensor product algebra, built once for all three maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import QQ, RingSpec, array
from .algebra import (
    AlgebraMismatch,
    AlgElement,
    StructureAlgebra,
    tensor_product,
    truncated_poly,
    upper_triangular,
    algebra_from_doc,
    algebra_to_doc,
    from_spec,
)

__all__ = [
    "LinMap",
    "MapTriple",
    "BadParameterCount",
    "right_mul_map",
    "left_mul_map",
    "tn_jordan_family",
    "tn_left_family",
    "mn_jordan_family",
    "quat_jordan_family",
    "poly_lift_triple",
    "tensor_extend_triple",
    "map_to_doc",
    "map_from_doc",
    "triple_to_doc",
    "triple_from_doc",
]


class BadParameterCount(ValueError):
    """A parametric family was given the wrong number of parameters."""


@dataclass(frozen=True)
class LinMap:
    """A module-linear self-map, column j = coordinates of the image of e_j.

    ``mat`` holds raw ring values; ``from_rows`` and ``from_columns``
    coerce outside input into that form: d arrays of d values each, each
    distinct row or column once.
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
        """Build from d rows; entries are coerced into the ring."""
        return cls(alg, _coerce_vectors(alg, rows))

    @classmethod
    def from_columns(cls, alg: StructureAlgebra, cols) -> "LinMap":
        """Build from d columns; entries are coerced into the ring."""
        return cls(alg, tuple(zip(*_coerce_vectors(alg, cols))))

    @classmethod
    def zero(cls, alg: StructureAlgebra) -> "LinMap":
        return cls(alg, tuple((0,) * alg.dim for _ in range(alg.dim)))

    @classmethod
    def identity(cls, alg: StructureAlgebra) -> "LinMap":
        return cls(alg, tuple(alg.basis_element(i).coords for i in range(alg.dim)))

    # -- use ------------------------------------------------------------------

    def apply(self, x: AlgElement) -> AlgElement:
        if not x.alg == self.alg:
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
        if not self.alg == other.alg:
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


def _coerce_vectors(alg: StructureAlgebra, vectors) -> tuple:
    """d arrays of d values, coerced; ValueError unless the shape is d x d."""
    d = alg.dim
    error = f"matrix must be {d} x {d}"
    return tuple(map(alg.ring.vectors(d, error), array(vectors, d, error)))


@dataclass(frozen=True)
class MapTriple:
    """The triple (f, g, h) entering the product identities."""

    f: LinMap
    g: LinMap
    h: LinMap

    def __post_init__(self):
        if not self.f.alg == self.g.alg == self.h.alg:
            raise AlgebraMismatch("all three maps must share one algebra")

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
    """The operator R_alpha: x -> x * alpha."""
    alg = alpha.alg
    return LinMap(alg, tuple(zip(*(
        alg.mul_vec_vec(alg.basis_element(j).coords, alpha.coords)
        for j in range(alg.dim)
    ))))


def left_mul_map(alpha: AlgElement) -> LinMap:
    """The operator L_alpha: x -> alpha * x."""
    alg = alpha.alg
    return LinMap(alg, tuple(zip(*(
        alg.mul_vec_vec(alpha.coords, alg.basis_element(j).coords)
        for j in range(alg.dim)
    ))))


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------


def _tn(n: int, alg: StructureAlgebra | None) -> StructureAlgebra:
    """``alg``, the caller's upper_triangular(n, ...), or a new one over Q."""
    if alg is None:
        return upper_triangular(n)
    if alg.dim != n * (n + 1) // 2:
        raise ValueError(f"an algebra of dimension {alg.dim} is not T{n}")
    return alg


def _params(alg: StructureAlgebra, values, n: int, name: str) -> tuple:
    """The ``name`` parameters, coerced; BadParameterCount unless ``values``
    is a list or tuple of ``n`` of them.  A string is not a list."""
    error = f"need an array of {n} {name} parameters"
    try:
        array(values, n, error)
    except ValueError:
        raise BadParameterCount(error) from None
    return tuple(map(alg.ring.coerce, values))


def tn_jordan_family(n, gparams, hparams,
                     alg: StructureAlgebra | None = None) -> MapTriple:
    """Two-sided-identity solution family over the upper triangular algebra:
    (R_G + R_H, R_G, R_H).

    ``gparams`` holds the n(n+1)/2 coordinates of G, indexed like the basis
    by the row-major upper-triangle positions (k, j), k <= j; H is G with
    its first row, the first n coordinates, replaced by the n ``hparams``.
    Pass ``alg``, upper_triangular(n, ring), to build the maps on an algebra
    already at hand; the default is T_n over Q.
    """
    alg = _tn(n, alg)
    gp = _params(alg, gparams, alg.dim, "g")
    hp = _params(alg, hparams, n, "h")
    g = right_mul_map(AlgElement(alg, gp))
    h = right_mul_map(AlgElement(alg, hp + gp[n:]))
    return MapTriple(g + h, g, h)


def tn_left_family(n, gparams, hparams,
                   alg: StructureAlgebra | None = None) -> MapTriple:
    """One-sided-identity solution family over the upper triangular algebra:
    (R_G + R_H, R_G, R_H), with the n ``gparams`` and the n ``hparams`` as
    the first rows of G and H and zeros elsewhere.

    Both maps kill every basis vector except e_11.  ``alg`` is as in
    ``tn_jordan_family``.
    """
    alg = _tn(n, alg)
    rest = (0,) * (alg.dim - n)
    g = right_mul_map(AlgElement(alg, _params(alg, gparams, n, "g") + rest))
    h = right_mul_map(AlgElement(alg, _params(alg, hparams, n, "h") + rest))
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


def poly_lift_triple(t: MapTriple, degree: int) -> MapTriple:
    """Lift all three maps into one truncated polynomial algebra instance."""
    lifted = truncated_poly(t.alg, degree)
    return MapTriple(*(_lift_into(lifted, m) for m in (t.f, t.g, t.h)))


def _lift_into(lifted: StructureAlgebra, f: LinMap) -> LinMap:
    """The degreewise lift e_i x^t -> f(e_i) x^t of f into ``lifted``, a
    truncated polynomial algebra over f's algebra, built by the caller."""
    d = f.alg.dim
    cols = []
    for t in range(lifted.dim // d):
        for i in range(d):
            col = [0] * lifted.dim
            col[t * d:(t + 1) * d] = f.column(i)
            cols.append(col)
    return LinMap(lifted, tuple(zip(*cols)))


def tensor_extend_triple(t: MapTriple, s: StructureAlgebra) -> MapTriple:
    """Extend all three maps into one tensor product algebra instance."""
    prod = tensor_product(t.alg, s)
    return MapTriple(*(_extend_into(prod, m) for m in (t.f, t.g, t.h)))


def _extend_into(prod: StructureAlgebra, f: LinMap) -> LinMap:
    """The map f (x) id on ``prod``, the tensor product of f's algebra
    with a second factor, built by the caller."""
    a = f.alg
    ds = prod.dim // a.dim
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


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


def _matrix_doc(f: LinMap) -> list:
    fmt = f.alg.ring.format
    return [[fmt(c) for c in row] for row in f.mat]


def map_to_doc(f: LinMap) -> dict:
    return {"matrix": _matrix_doc(f), "algebra": algebra_to_doc(f.alg)}


def _algebra_from_ref(ref, ring: RingSpec | None) -> StructureAlgebra:
    """The algebra a document names: a spec string, built over ``ring``
    (Q by default), or an inline algebra document."""
    if isinstance(ref, str):
        return from_spec(ref, ring if ring is not None else QQ)
    if isinstance(ref, dict):
        return algebra_from_doc(ref)
    raise ValueError(f"bad algebra reference: {ref!r}")


def map_from_doc(doc: dict, ring: RingSpec | None = None) -> LinMap:
    return LinMap.from_rows(_algebra_from_ref(doc.get("algebra"), ring), doc["matrix"])


def triple_to_doc(t: MapTriple) -> dict:
    return {"f": _matrix_doc(t.f), "g": _matrix_doc(t.g), "h": _matrix_doc(t.h),
            "algebra": algebra_to_doc(t.alg)}


def triple_from_doc(doc: dict, ring: RingSpec | None = None) -> MapTriple:
    alg = _algebra_from_ref(doc.get("algebra"), ring)
    return MapTriple(*(LinMap.from_rows(alg, doc[key]) for key in "fgh"))

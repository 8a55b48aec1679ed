"""Reference computations the benchmark checks ghderiv's outputs against.

Nothing here imports ghderiv.  The module rebuilds the built-in algebras
from their documented bases, evaluates every identity exactly from the
structure constants, compiles the same identities into linear rows and
ranks those rows modulo a prime.  The conventions it relies on are the
documented interface of the package: basis orders, the (f, g, h) unknown
layout of solution documents, lexicographic counterexamples and the text
form of scalars.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

# ---------------------------------------------------------------------------
# scalars: exact values are ints where integral, Fractions otherwise over Q,
# and reduced ints over Z/m
# ---------------------------------------------------------------------------

_RESIDUE = re.compile(r"\s*(-?\d+)\s*(?:mod\s*(\d+)\s*)?$")


class Ring:
    """Q (``m is None``) or Z/m."""

    def __init__(self, m: int | None = None):
        self.m = m

    @classmethod
    def from_name(cls, name: str) -> "Ring":
        return cls(None) if name == "q" else cls(int(name[1:]))

    @classmethod
    def from_doc(cls, doc: dict) -> "Ring":
        return cls(None) if doc["kind"] == "Q" else cls(int(doc["m"]))

    def doc(self) -> dict:
        return {"kind": "Q"} if self.m is None else {"kind": "Zmod", "m": self.m}

    def norm(self, v):
        if self.m is not None:
            return v % self.m
        if isinstance(v, Fraction) and v.denominator == 1:
            return v.numerator
        return v

    def parse(self, text: str):
        if self.m is None:
            return self.norm(Fraction(text.strip()))
        match = _RESIDUE.fullmatch(text)
        if not match or (match.group(2) and int(match.group(2)) != self.m):
            raise ValueError(f"bad residue {text!r} for Z/{self.m}")
        return int(match.group(1)) % self.m

    def fmt(self, v) -> str:
        if self.m is None:
            return str(Fraction(v))
        return f"{v % self.m} mod {self.m}"


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------


class Algebra:
    """Structure constants as a sparse table: (i, j) -> ((k, c), ...)."""

    def __init__(self, ring, labels, table, unity, degrees=None):
        self.ring = ring
        self.dim = len(labels)
        self.labels = list(labels)
        self.table = {key: tuple(v) for key, v in table.items() if v}
        self.unity = list(unity)
        # Polynomial degree of each basis vector, for truncated polynomials.
        self.degrees = degrees

    def prod(self, i, j):
        return self.table.get((i, j), ())

    def mul(self, x, y):
        """Product of two dense coordinate vectors."""
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        for k, c in self.prod(i, j):
                            out[k] += xi * yj * c
        return [self.ring.norm(v) for v in out]

    def is_commutative(self) -> bool:
        return all(
            self.prod(i, j) == self.prod(j, i)
            for i in range(self.dim)
            for j in range(self.dim)
        )

    def to_doc(self) -> dict:
        d, fmt = self.dim, self.ring.fmt
        sc = [[[fmt(0)] * d for _ in range(d)] for _ in range(d)]
        for (i, j), terms in self.table.items():
            for k, c in terms:
                sc[i][j][k] = fmt(c)
        return {
            "ring": self.ring.doc(),
            "dim": d,
            "labels": list(self.labels),
            "unity": [fmt(c) for c in self.unity],
            "sc": sc,
        }


def _from_entries(ring, labels, entries, unity, degrees=None) -> Algebra:
    table: dict = {}
    for (i, j, k), c in entries.items():
        c = ring.norm(c)
        if c:
            table.setdefault((i, j), []).append((k, c))
    for terms in table.values():
        terms.sort()
    return Algebra(ring, labels, table, [ring.norm(u) for u in unity], degrees)


def upper_triangular(n: int, ring: Ring) -> Algebra:
    pos = [(i, j) for i in range(n) for j in range(i, n)]
    at = {p: k for k, p in enumerate(pos)}
    entries = {
        (at[(a, b)], at[(b, d)], at[(a, d)]): 1
        for (a, b) in pos
        for (c, d) in pos
        if b == c
    }
    unity = [1 if i == j else 0 for i, j in pos]
    return _from_entries(ring, [f"e{i + 1}{j + 1}" for i, j in pos], entries, unity)


def full_matrix(n: int, ring: Ring) -> Algebra:
    entries = {
        (a * n + b, b * n + d, a * n + d): 1
        for a in range(n)
        for b in range(n)
        for d in range(n)
    }
    unity = [1 if i == j else 0 for i in range(n) for j in range(n)]
    labels = [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return _from_entries(ring, labels, entries, unity)


def quaternions() -> Algebra:
    # i^2 = j^2 = k^2 = ijk = -1 on the basis (1, i, j, k).
    cyclic = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    entries = {}
    for a in range(4):
        entries[(0, a, a)] = 1
        entries[(a, 0, a)] = 1
    for a in range(1, 4):
        entries[(a, a, 0)] = -1
    for (a, b), c in cyclic.items():
        entries[(a, b, c)] = 1
        entries[(b, a, c)] = -1
    return _from_entries(Ring(None), ["1", "i", "j", "k"], entries, [1, 0, 0, 0])


def base_ring(ring: Ring) -> Algebra:
    return _from_entries(ring, ["1"], {(0, 0, 0): 1}, [1])


def truncated_poly(a: Algebra, degree: int) -> Algebra:
    """a[x]/(x^(degree+1)), basis e_i x^t ordered by t, then i."""
    d = a.dim
    entries = {}
    for s in range(degree + 1):
        for t in range(degree + 1 - s):
            for (i, j), terms in a.table.items():
                for k, c in terms:
                    entries[(s * d + i, t * d + j, (s + t) * d + k)] = c
    labels = [f"{lab}x^{t}" for t in range(degree + 1) for lab in a.labels]
    unity = a.unity + [0] * (d * degree)
    degrees = [t for t in range(degree + 1) for _ in range(d)]
    return _from_entries(a.ring, labels, entries, unity, degrees)


def tensor_product(a: Algebra, b: Algebra) -> Algebra:
    """a (x) b, basis e_i (x) f_j ordered by i, then j."""
    db = b.dim
    entries = {}
    for (i, k), ta in a.table.items():
        for (j, l), tb in b.table.items():
            for m, ca in ta:
                for n, cb in tb:
                    key = (i * db + j, k * db + l, m * db + n)
                    entries[key] = entries.get(key, 0) + ca * cb
    labels = [f"{x}*{y}" for x in a.labels for y in b.labels]
    unity = [ua * ub for ua in a.unity for ub in b.unity]
    return _from_entries(a.ring, labels, entries, unity)


def _split_top(inner: str) -> tuple[str, str]:
    depth = 0
    for pos, ch in enumerate(inner):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "," and depth == 0:
            return inner[:pos], inner[pos + 1 :]
    raise ValueError(f"no top-level comma in {inner!r}")


def from_spec(spec: str, ring: Ring) -> Algebra:
    """The spec grammar of ``ghderiv solve --algebra`` and of documents."""
    s = spec.strip()
    if s.startswith("poly(") and s.endswith(")"):
        base, _, deg = s[5:-1].rpartition(",")
        return truncated_poly(from_spec(base, ring), int(deg))
    if s.startswith("tensor(") and s.endswith(")"):
        left, right = _split_top(s[7:-1])
        return tensor_product(from_spec(left, ring), from_spec(right, ring))
    if s.startswith("poly:"):
        base, _, deg = s[5:].rpartition(":")
        return truncated_poly(from_spec(base, ring), int(deg))
    if s.startswith("tensor:"):
        left, _, right = s[7:].partition(":")
        return tensor_product(from_spec(left, ring), from_spec(right, ring))
    if s == "quat":
        if ring.m is not None:
            raise ValueError("the quaternions live over Q only")
        return quaternions()
    if s == "ring":
        return base_ring(ring)
    if s[:2] in ("tn", "mn") and s[2:].isdigit():
        build = upper_triangular if s[:2] == "tn" else full_matrix
        return build(int(s[2:]), ring)
    raise ValueError(f"unknown spec {spec!r}")


def algebra_from_doc(doc: dict) -> Algebra:
    ring = Ring.from_doc(doc["ring"])
    d = int(doc["dim"])
    entries = {
        (i, j, k): ring.parse(doc["sc"][i][j][k])
        for i in range(d)
        for j in range(d)
        for k in range(d)
    }
    unity = [ring.parse(u) for u in doc["unity"]]
    return _from_entries(ring, doc["labels"], entries, unity)


# ---------------------------------------------------------------------------
# linear maps as dense matrices: mat[i][j] is coordinate i of the image of e_j
# ---------------------------------------------------------------------------


def columns(mat) -> list[list[tuple[int, object]]]:
    d = len(mat)
    return [[(i, mat[i][j]) for i in range(d) if mat[i][j]] for j in range(d)]


def map_from_images(images) -> list[list]:
    d = len(images)
    return [[images[j][i] for j in range(d)] for i in range(d)]


def right_mul(alg: Algebra, alpha) -> list[list]:
    """x -> x * alpha."""
    basis = [[int(k == j) for k in range(alg.dim)] for j in range(alg.dim)]
    return map_from_images([alg.mul(e, alpha) for e in basis])


def left_mul(alg: Algebra, alpha) -> list[list]:
    """x -> alpha * x."""
    basis = [[int(k == j) for k in range(alg.dim)] for j in range(alg.dim)]
    return map_from_images([alg.mul(alpha, e) for e in basis])


def euler_derivation(alg: Algebra) -> list[list]:
    """e_i x^t -> t e_i x^t, a derivation of any truncated polynomial algebra."""
    d = alg.dim
    degrees = alg.degrees or [0] * d
    return [[alg.ring.norm(degrees[j]) if i == j else 0 for j in range(d)]
            for i in range(d)]


def combine(ring: Ring, *terms) -> list[list]:
    """sum(c * mat) over (c, mat) pairs."""
    d = len(terms[0][1])
    return [
        [ring.norm(sum(c * mat[i][j] for c, mat in terms)) for j in range(d)]
        for i in range(d)
    ]


def zero_map(d: int) -> list[list]:
    return [[0] * d for _ in range(d)]


# ---------------------------------------------------------------------------
# identities, each written once as data
# ---------------------------------------------------------------------------
#
# A template equates two sums of terms (coefficient, map, shape), with a = e_i
# and b = e_j.  The shapes are M(ab), M(ba), aM(b), bM(a), M(a)b and M(b)a.
# ``square`` kinds use the first template of DERIVATION on the diagonal, the
# polarised template for i < j, and nothing for i > j.

_D = ([(1, "f", "M(ab)")], [(1, "f", "M(a)b"), (1, "f", "aM(b)")])

KINDS = {
    "derivation": [_D],
    "jordan-derivation": [
        (
            [(1, "f", "M(ab)"), (1, "f", "M(ba)")],
            [(1, "f", "M(a)b"), (1, "f", "aM(b)"), (1, "f", "M(b)a"), (1, "f", "bM(a)")],
        )
    ],
    "left-derivation": [([(1, "f", "M(ab)")], [(1, "f", "aM(b)"), (1, "f", "bM(a)")])],
    "gh-derivation": [
        ([(1, "f", "M(ab)")], [(1, "g", "M(a)b"), (1, "h", "aM(b)")]),
        ([(1, "f", "M(ab)")], [(1, "h", "M(a)b"), (1, "g", "aM(b)")]),
    ],
    "left-gh": [
        ([(1, "f", "M(ab)")], [(1, "g", "aM(b)"), (1, "h", "bM(a)")]),
        ([(1, "f", "M(ab)")], [(1, "h", "aM(b)"), (1, "g", "bM(a)")]),
    ],
    "jordan-left-gh": [
        ([(1, "f", "M(ab)"), (1, "f", "M(ba)")], [(2, "g", "aM(b)"), (2, "h", "bM(a)")])
    ],
    "left-centralizer": [([(1, "f", "M(ab)")], [(1, "f", "M(a)b")])],
    "right-centralizer": [([(1, "f", "M(ab)")], [(1, "f", "aM(b)")])],
}
SQUARE_KINDS = {"jordan-derivation"}
MAPS = ("f", "g", "h")


def templates_at(kind: str, i: int, j: int):
    if kind in SQUARE_KINDS:
        if i == j:
            return [_D]
        if i > j:
            return []
    return KINDS[kind]


# Shapes that multiply an image of M by a basis vector: shape -> (position in
# (a, b) of M's argument, position of the other factor, image on the left).
_IMAGE_SHAPES = {
    "aM(b)": (1, 0, False),
    "bM(a)": (0, 1, False),
    "M(a)b": (0, 1, True),
    "M(b)a": (1, 0, True),
}


def _image_term(shape, i, j):
    """(argument of M, other basis index, whether M's image is the left factor)."""
    arg, other, image_left = _IMAGE_SHAPES[shape]
    return (i, j)[arg], (i, j)[other], image_left


def _add_term(alg, cols, coef, shape, i, j, acc):
    """acc += coef * (term evaluated at a = e_i, b = e_j)."""
    prod = alg.prod
    if shape in ("M(ab)", "M(ba)"):
        x, y = (i, j) if shape == "M(ab)" else (j, i)
        for k, c in prod(x, y):
            for r, v in cols[k]:
                acc[r] += coef * c * v
        return
    arg, other, image_left = _image_term(shape, i, j)
    for l, v in cols[arg]:
        for m, c in prod(l, other) if image_left else prod(other, l):
            acc[m] += coef * v * c


def evaluate(kind: str, alg: Algebra, maps: dict):
    """The first failing ordered basis pair as (i, j, lhs, rhs), or None.

    ``maps`` holds dense matrices for f (and g, h for three-map kinds).
    Pairs are scanned in lexicographic order and templates in table order.
    """
    cols = {name: columns(mat) for name, mat in maps.items()}
    norm, d, m = alg.ring.norm, alg.dim, alg.ring.m
    for i in range(d):
        for j in range(d):
            for lhs_terms, rhs_terms in templates_at(kind, i, j):
                sides = []
                for terms in (lhs_terms, rhs_terms):
                    acc = [0] * d
                    for coef, name, shape in terms:
                        _add_term(alg, cols[name], coef, shape, i, j, acc)
                    sides.append(acc)
                lhs, rhs = sides
                if m is None:
                    equal = lhs == rhs
                else:
                    equal = all((x - y) % m == 0 for x, y in zip(lhs, rhs))
                if not equal:
                    return i, j, [norm(v) for v in lhs], [norm(v) for v in rhs]
    return None


def compile_rows(kind: str, alg: Algebra):
    """The identity as linear rows over the 3d^2 entries of (f, g, h).

    Unknown (map, row l, column k) has index map * d^2 + k * d + l, the
    layout of ``canonical`` in solution documents.
    """
    d, d2, prod = alg.dim, alg.dim ** 2, alg.prod

    def unknown(name, l, k):
        return MAPS.index(name) * d2 + k * d + l

    for i in range(d):
        for j in range(d):
            for lhs_terms, rhs_terms in templates_at(kind, i, j):
                rows = [{} for _ in range(d)]
                signed = [(c, n, s) for c, n, s in lhs_terms]
                signed += [(-c, n, s) for c, n, s in rhs_terms]
                for coef, name, shape in signed:
                    if shape in ("M(ab)", "M(ba)"):
                        x, y = (i, j) if shape == "M(ab)" else (j, i)
                        for k, c in prod(x, y):
                            for m in range(d):
                                key = unknown(name, m, k)
                                rows[m][key] = rows[m].get(key, 0) + coef * c
                        continue
                    arg, other, image_left = _image_term(shape, i, j)
                    for l in range(d):
                        key = unknown(name, l, arg)
                        for m, c in prod(l, other) if image_left else prod(other, l):
                            rows[m][key] = rows[m].get(key, 0) + coef * c
                for row in rows:
                    row = {k: v for k, v in row.items() if v}
                    if row:
                        yield row


# Q ranks are bounded below by ranks modulo this prime.
RANK_PRIME = 2**31 - 1


def rank_mod(rows, p: int) -> int:
    """Rank of rational rows reduced modulo the prime p (sparse echelon)."""
    pivots: dict[int, dict] = {}
    for row in rows:
        den = lcm(*(v.denominator for v in row.values() if isinstance(v, Fraction)))
        r = {}
        for c, v in row.items():
            v = int(v * den) % p
            if v:
                r[c] = v
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in r.items()}
                break
            coef = r[c]
            for k, v in piv.items():
                nv = (r.get(k, 0) - coef * v) % p
                if nv:
                    r[k] = nv
                else:
                    r.pop(k, None)
    return len(pivots)


# ---------------------------------------------------------------------------
# checking a solution-space document
# ---------------------------------------------------------------------------


def closed_form_dim(spec: str, kind: str, ring: Ring) -> int | None:
    """Dimension counts stated for the rational built-ins."""
    if ring.m is not None:
        return None
    two_sided = kind == "jordan-left-gh"
    if spec == "quat":
        return 4 if two_sided else 0
    if spec[:2] in ("tn", "mn") and spec[2:].isdigit():
        n = int(spec[2:])
        if spec[:2] == "tn":
            return n * (n + 1) // 2 + n if two_sided else 2 * n
        return n * n if two_sided else 0
    return None


def verify_space_doc(doc: dict, spec: str, kind: str, ring: Ring) -> list[str]:
    """Problems found in the output of ``ghderiv solve``; empty when sound.

    The basis triples must satisfy the identity under :func:`evaluate` and
    be linearly independent (distinct leading unknowns), and the dimension
    must equal 3d^2 minus the modular rank of :func:`compile_rows`.  Rank
    modulo a prime never exceeds the rational rank, so together the two
    prove the dimension over Q as well.
    """
    alg = from_spec(spec, ring)
    d = alg.dim
    problems = []
    if doc.get("algebra_dim") != d or doc.get("ring") != ring.doc():
        problems.append("algebra or ring differs")
    if doc.get("kind") != kind or doc.get("constraints") != "none":
        problems.append("kind or constraints differ")
    basis, canonical, dim = doc.get("basis", []), doc.get("canonical", []), doc.get("dim")
    if not (dim == len(basis) == len(canonical)):
        return problems + [f"dim {dim} disagrees with {len(basis)} basis triples"]
    lead = -1
    for k, (triple, row) in enumerate(zip(basis, canonical)):
        maps = {n: [[ring.parse(x) for x in r] for r in triple[n]] for n in MAPS}
        flat = [maps[n][l][c] for n in MAPS for c in range(d) for l in range(d)]
        if flat != [ring.parse(x) for x in row]:
            problems.append(f"basis triple {k} differs from canonical row {k}")
        first = next((c for c, v in enumerate(flat) if v), None)
        if first is None or first <= lead:
            problems.append(f"basis triple {k} is not independent of the earlier ones")
        lead = first if first is not None else lead
        if evaluate(kind, alg, maps) is not None:
            problems.append(f"basis triple {k} fails {kind}")
        if kind == "jordan-left-gh" and (spec == "quat" or spec.startswith("mn")):
            if maps["g"] != maps["h"]:
                problems.append(f"basis triple {k} has g != h")
    p = ring.m if ring.m is not None else RANK_PRIME
    want = 3 * d * d - rank_mod(compile_rows(kind, alg), p)
    if dim != want:
        problems.append(f"dim {dim}, but 3d^2 - rank mod {p} = {want}")
    closed = closed_form_dim(spec, kind, ring)
    if closed is not None and dim != closed:
        problems.append(f"dim {dim}, closed form {closed}")
    return problems


def counterexample_doc(ring: Ring, found) -> dict:
    """The ``check`` report for an :func:`evaluate` result."""
    if found is None:
        return {"holds": True}
    i, j, lhs, rhs = found
    return {
        "holds": False,
        "counterexample": {
            "i": i,
            "j": j,
            "lhs": [ring.fmt(v) for v in lhs],
            "rhs": [ring.fmt(v) for v in rhs],
        },
    }

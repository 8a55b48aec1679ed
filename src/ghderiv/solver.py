"""Exact linear solver for identity constraints on map triples.

Any identity kind compiles into a homogeneous linear system over the
3d^2 unknown matrix entries of (f, g, h).  The compiler reads each kind
from the identity table in ``identities`` (through ``templates_at``), the
same table the checkers evaluate, so rows and checkers state one identity.
Unknown order is fixed: the f block, then g, then h; inside a block,
column-major (all coordinates of the image of e_0, then of e_1, ...).
Rows are emitted in the fixed order (i, j, coordinate, template) over
ordered basis pairs, followed by any constraint rows.  Rows, solution
vectors and canonical matrices hold raw ring values (see ``ring``), the
same values the maps store and ``_linalg`` eliminates on.  With layout and
pivot order fixed, the reduced echelon form of the solution space is
unique, so solution spaces can be compared by comparing matrices.

Solving needs a field-like ring (Q or prime modulus): composite moduli
raise CompositeModulusUnsupported.  The identity checkers keep working
over composite moduli; only elimination is restricted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import _linalg
from .ring import RingMismatch
from .algebra import StructureAlgebra
from .linmap import LinMap, MapTriple, triple_to_doc
from . import identities
from .identities import IdentityKind

__all__ = [
    "Constraints",
    "LinearSystem",
    "SolutionSpace",
    "build_system",
    "nullspace",
    "solve",
    "verify_space",
    "space_equal",
    "space_contains",
    "space_member",
    "canonical_span",
    "project_gh_injectivity",
    "gh_collapse",
    "triple_to_vec",
    "vec_to_triple",
]


@dataclass(frozen=True)
class Constraints:
    """Optional extra linear conditions intersected with an identity system.

    ``force_g_eq_h`` ties the g and h blocks entrywise; ``force_f_zero``
    kills the whole f block; ``f_zero_basis`` kills f on the listed basis
    vectors only (columns of f).
    """

    force_g_eq_h: bool = False
    force_f_zero: bool = False
    f_zero_basis: tuple[int, ...] = ()

    def is_trivial(self) -> bool:
        return not (self.force_g_eq_h or self.force_f_zero or self.f_zero_basis)

    def describe(self) -> str:
        parts = []
        if self.force_g_eq_h:
            parts.append("g = h")
        if self.force_f_zero:
            parts.append("f = 0")
        if self.f_zero_basis:
            parts.append(f"f zero on basis {list(self.f_zero_basis)}")
        return ", ".join(parts) if parts else "none"


_BLOCKS = {"f": 0, "g": 1, "h": 2}


def _col(d: int, name: str, j: int, i: int) -> int:
    """The unknown for entry (i, j) of the map named ``name``."""
    return _BLOCKS[name] * d * d + j * d + i


def triple_to_vec(t: MapTriple) -> list:
    """Flatten a triple into the solver's unknown order."""
    d = t.alg.dim
    out = []
    for m in (t.f, t.g, t.h):
        for j in range(d):
            for i in range(d):
                out.append(m.mat[i][j])
    return out


def vec_to_triple(alg: StructureAlgebra, vec) -> MapTriple:
    d = alg.dim
    def block(off):
        return LinMap(
            alg,
            tuple(
                tuple(vec[off + j * d + i] for j in range(d)) for i in range(d)
            ),
        )
    return MapTriple(block(0), block(d * d), block(2 * d * d))


@dataclass(frozen=True)
class LinearSystem:
    """The compiled homogeneous system; rows are sparse {column: nonzero raw value}."""

    alg: StructureAlgebra
    kind: IdentityKind
    constraints: Constraints
    rows: tuple
    ncols: int

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def dense_rows(self):
        for row in self.rows:
            yield [row.get(c, 0) for c in range(self.ncols)]

    def to_doc(self) -> dict:
        fmt = self.alg.ring.format
        return {
            "kind": self.kind.value,
            "constraints": self.constraints.describe(),
            "ncols": self.ncols,
            "rows": [[fmt(v) for v in row] for row in self.dense_rows()],
        }

    def evaluate(self, t: MapTriple) -> bool:
        """Substitution check: does the flattened triple kill every row?"""
        vec = triple_to_vec(t)
        reduce = self.alg.ring.reduce
        return not any(
            reduce(sum(v * vec[c] for c, v in row.items())) for row in self.rows
        )


def _emit_identity_rows(alg: StructureAlgebra, kind: IdentityKind):
    """Yield the identity rows in (i, j, coordinate, template) order.

    Each row states that one output coordinate of one template instance at
    one ordered basis pair vanishes: lhs terms enter with their
    coefficient, rhs terms negated.  The templates are read from the
    identity table through ``identities.templates_at``, so the square
    identity emits its basis form on the diagonal and the polarized form
    for i < j only.  Every row is yielded, also an empty one.
    """
    d = alg.dim
    reduce = alg.ring.reduce
    table = alg._pair_table
    # An image M(e_p) times e_q on its right is read off the right action
    # of e_q; times e_q on its left, off the left action.
    actions = {"left": alg._right_action, "right": alg._left_action}
    for i in range(d):
        for j in range(d):
            x = (i, j)
            blocks = []
            for lhs, rhs in identities.templates_at(kind, i, j):
                rows = [{} for _ in range(d)]
                signed = list(lhs) + [(-coef, name, shape) for coef, name, shape in rhs]
                for coef, name, shape in signed:
                    where, arg, other = identities.SHAPES[shape]
                    if where == "apply":
                        # M(e_k) for each e_k in the product; unknown M[m][k].
                        for k, c in table[x[arg]][x[other]]:
                            for m in range(d):
                                col = _col(d, name, k, m)
                                rows[m][col] = rows[m].get(col, 0) + coef * c
                        continue
                    # Unknown M[l][x_arg] meets e_l times e_{x_other}.
                    base = _col(d, name, x[arg], 0)
                    for m, action in enumerate(actions[where][x[other]]):
                        row = rows[m]
                        for l, c in action:
                            row[base + l] = row.get(base + l, 0) + coef * c
                blocks.append([
                    {col: r for col, v in row.items() if (r := reduce(v))}
                    for row in rows
                ])
            for m in range(d):
                for rows in blocks:
                    yield rows[m]


def build_system(
    alg: StructureAlgebra,
    kind: IdentityKind,
    constraints: Constraints | None = None,
) -> LinearSystem:
    """Compile the identity (plus optional constraints) to a linear system."""
    cons = constraints if constraints is not None else Constraints()
    d = alg.dim
    minus_one = alg.ring.reduce(-1)
    rows = list(_emit_identity_rows(alg, kind))
    if cons.force_g_eq_h:
        for j in range(d):
            for i in range(d):
                rows.append({_col(d, "g", j, i): 1, _col(d, "h", j, i): minus_one})
    if cons.force_f_zero:
        for j in range(d):
            for i in range(d):
                rows.append({_col(d, "f", j, i): 1})
    for c in cons.f_zero_basis:
        if not 0 <= c < d:
            raise ValueError(f"basis index {c} out of range")
        for m in range(d):
            rows.append({_col(d, "f", c, m): 1})
    return LinearSystem(
        alg=alg, kind=kind, constraints=cons, rows=tuple(rows), ncols=3 * d * d
    )


@dataclass(frozen=True)
class SolutionSpace:
    """The solution set of an identity system, in canonical form.

    ``canonical`` is the unique reduced echelon matrix spanning the space;
    ``basis`` holds the same rows reshaped into map triples.  ``rank`` is
    the rank of the defining system, kept so dim = 3d^2 - rank stays
    checkable later.
    """

    alg: StructureAlgebra
    kind: IdentityKind
    constraints: Constraints
    basis: tuple
    dim: int
    canonical: tuple
    rank: int

    def combination(self, coeffs) -> MapTriple:
        """The linear combination sum(coeffs[k] * basis[k])."""
        if len(coeffs) != self.dim:
            raise ValueError(f"need {self.dim} coefficients")
        t = MapTriple.zero(self.alg)
        for c, b in zip(coeffs, self.basis):
            t = t + b.scale(c)
        return t

    def to_doc(self) -> dict:
        fmt = self.alg.ring.format
        return {
            "algebra_dim": self.alg.dim,
            "ring": self.alg.ring.to_doc(),
            "kind": self.kind.value,
            "constraints": self.constraints.describe(),
            "dim": self.dim,
            "basis": [triple_to_doc(t, inline_algebra=False) for t in self.basis],
            "canonical": [[fmt(v) for v in row] for row in self.canonical],
        }


def _dense(rows, ncols: int) -> tuple:
    """Sparse echelon rows as dense tuples of length ``ncols``."""
    out = []
    for row in rows:
        vec = [0] * ncols
        for c, v in row.items():
            vec[c] = v
        out.append(tuple(vec))
    return tuple(out)


def _sparse(vec) -> dict:
    return {c: v for c, v in enumerate(vec) if v}


def nullspace(system: LinearSystem) -> SolutionSpace:
    """Exact solution space with a canonical reduced-echelon basis."""
    ring = system.alg.ring
    # Empty rows carry no condition; they stay in the system for its
    # documented row layout but are not fed to elimination.
    echelon, pivots = _linalg.rref(filter(None, system.rows), ring)
    ns = _linalg.nullspace(echelon, pivots, system.ncols, ring)
    canonical_rows, _ = _linalg.rref(ns, ring)
    canonical = _dense(canonical_rows, system.ncols)
    return SolutionSpace(
        alg=system.alg,
        kind=system.kind,
        constraints=system.constraints,
        basis=tuple(vec_to_triple(system.alg, vec) for vec in canonical),
        dim=len(canonical),
        canonical=canonical,
        rank=len(echelon),
    )


def solve(alg, kind, constraints=None) -> SolutionSpace:
    """Convenience: build the system and take its nullspace."""
    return nullspace(build_system(alg, kind, constraints))


# ---------------------------------------------------------------------------
# certificates and space predicates
# ---------------------------------------------------------------------------

_PERMUTATION_SEED = 9173


def _constraints_hold(space: SolutionSpace, t: MapTriple) -> bool:
    cons = space.constraints
    if cons.force_g_eq_h and t.g.mat != t.h.mat:
        return False
    if cons.force_f_zero and not t.f.is_zero():
        return False
    for c in cons.f_zero_basis:
        if any(t.f.column(c)):
            return False
    return True


def verify_space(space: SolutionSpace) -> bool:
    """Three independent certificates for a computed solution space.

    1. substitution: every basis triple passes the identity checker (and
       the extra constraints) directly;
    2. rank-nullity: dim equals 3d^2 minus the rank of a freshly rebuilt
       and re-eliminated system;
    3. stability: re-eliminating under a seeded random row and column
       permutation reproduces the dimension.
    """
    system = build_system(space.alg, space.kind, space.constraints)
    for t in space.basis:
        if not identities.check(space.kind, t).holds:
            return False
        if not _constraints_hold(space, t):
            return False
        if not system.evaluate(t):
            return False
    ring = space.alg.ring
    echelon, _ = _linalg.rref(filter(None, system.rows), ring)
    if space.dim != system.ncols - len(echelon):
        return False
    if space.rank != len(echelon):
        return False
    rng = random.Random(_PERMUTATION_SEED)
    cols = list(range(system.ncols))
    rng.shuffle(cols)
    remap = {old: new for new, old in enumerate(cols)}
    permuted = [{remap[c]: v for c, v in row.items()} for row in system.rows if row]
    rng.shuffle(permuted)
    echelon2, _ = _linalg.rref(permuted, ring)
    return len(echelon2) == len(echelon)


def _require_comparable(s1: SolutionSpace, s2: SolutionSpace) -> None:
    if s1.alg.ring != s2.alg.ring:
        raise RingMismatch("solution spaces live over different rings")
    if s1.alg.dim != s2.alg.dim:
        raise ValueError("solution spaces live on algebras of different dimension")


def space_equal(s1: SolutionSpace, s2: SolutionSpace) -> bool:
    """Exact subspace equality via the unique canonical matrices."""
    _require_comparable(s1, s2)
    return s1.canonical == s2.canonical


def _canonical_echelon(space: SolutionSpace):
    echelon = [_sparse(row) for row in space.canonical]
    pivots = {min(row): k for k, row in enumerate(echelon)}
    return echelon, pivots


def space_contains(s1: SolutionSpace, s2: SolutionSpace) -> bool:
    """True iff every generator of s2 eliminates to zero against s1."""
    _require_comparable(s1, s2)
    echelon, pivots = _canonical_echelon(s1)
    return not any(
        _linalg.residual(_sparse(row), echelon, pivots, s1.alg.ring)
        for row in s2.canonical
    )


def space_member(space: SolutionSpace, t: MapTriple) -> bool:
    """True iff the triple lies in the space (exact reduction to zero)."""
    if t.alg.ring != space.alg.ring:
        raise RingMismatch("triple and space live over different rings")
    if t.alg.dim != space.alg.dim:
        raise ValueError("triple and space live on algebras of different dimension")
    echelon, pivots = _canonical_echelon(space)
    vec = _sparse(triple_to_vec(t))
    return not _linalg.residual(vec, echelon, pivots, space.alg.ring)


def canonical_span(alg: StructureAlgebra, triples) -> tuple:
    """Unique reduced-echelon matrix spanning the given triples.

    Output rows have the same shape as ``SolutionSpace.canonical``, so a
    closed-form family can be compared against a solved space directly.
    """
    rows = []
    for t in triples:
        if t.alg.ring != alg.ring:
            raise RingMismatch("triple lives over a different ring")
        rows.append(_sparse(triple_to_vec(t)))
    echelon, _ = _linalg.rref(rows, alg.ring)
    return _dense(echelon, 3 * alg.dim ** 2)


def project_gh_injectivity(space: SolutionSpace) -> bool:
    """Does (g, h) determine f on this space?

    Equivalent to: the projection of the space onto the (g, h) blocks has
    the same rank as the space itself, i.e. no nonzero solution has
    g = h = 0 but f != 0.
    """
    d2 = space.alg.dim ** 2
    rows = [_sparse(row[d2:]) for row in space.canonical]
    echelon, _ = _linalg.rref(rows, space.alg.ring)
    return len(echelon) == space.dim


def gh_collapse(space: SolutionSpace) -> bool:
    """True iff g = h on every solution in the space."""
    d2 = space.alg.dim ** 2
    for row in space.canonical:
        for c in range(d2):
            if row[d2 + c] != row[2 * d2 + c]:
                return False
    return True

"""Exact linear solver for identity constraints on map triples.

Any identity kind compiles into a homogeneous linear system over the
3d^2 unknown matrix entries of (f, g, h).  The compiler reads each kind
from the identity table in ``identities`` (through ``templates_at``), the
same table ``identities.check`` evaluates, so rows and checker state one
identity.
Unknown order is fixed: the f block, then g, then h; inside a block,
column-major (all coordinates of the image of e_0, then of e_1, ...).
The row layout is the fixed order (i, j, coordinate, template) over
ordered basis pairs, followed by any constraint rows.  Most identity rows
of that layout are empty; the compiler keeps only the nonempty ones,
each with its position, and the system stores those, so compiling and
elimination cost what the nonzeros cost.  Rows, solution vectors and
canonical matrices hold raw ring values (see ``ring``), the same values
the maps store and ``_linalg`` eliminates on.  Rows and canonical
matrices stay sparse {column: nonzero value} dicts up to the stored
``SolutionSpace``; only the ``to_doc`` documents are dense, and the
system's document prints the whole layout, empty rows included.  With
layout and pivot order fixed, the reduced echelon form of the solution
space is unique, so solution spaces can be compared by comparing matrices.

Solving needs a field-like ring (Q or prime modulus): composite moduli
raise CompositeModulusUnsupported.  ``identities.check`` keeps working
over composite moduli; only elimination is restricted.

The rows are solved, never evaluated: whether a triple holds is the
question of ``identities.check``, which ``verify_space`` asks of each
basis triple.  A triple lies in a solved space iff ``space_member`` says
so; the solver's one vector form is the sparse row of ``triple_to_row``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

from . import _linalg
from .ring import RingMismatch
from .algebra import StructureAlgebra
from .linmap import LinMap, MapTriple
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
    "triple_to_row",
    "row_to_triple",
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


def triple_to_row(t: MapTriple) -> dict:
    """Flatten a triple into the solver's unknown order: the sparse row
    {column: nonzero value}, its columns in ascending order."""
    d = t.alg.dim
    return {b * d * d + j * d + i: v for b, m in enumerate((t.f, t.g, t.h))
            for j, column in enumerate(zip(*m.mat)) for i, v in enumerate(column) if v}


def row_to_triple(alg: StructureAlgebra, row: dict) -> MapTriple:
    """The triple a sparse row flattens: entry (i, j) of block b is column
    b d^2 + j d + i."""
    d = alg.dim
    mats = [[[0] * d for _ in range(d)] for _ in range(3)]
    for c, v in row.items():
        b, rest = divmod(c, d * d)
        mats[b][rest % d][rest // d] = v
    return MapTriple(*(LinMap(alg, tuple(map(tuple, m))) for m in mats))


def _text_rows(rows, ncols: int, fmt) -> list:
    """Sparse rows as dense lists of length ``ncols`` of text forms; the
    text of 0 is formatted once and shared."""
    zero = fmt(0)
    out = []
    for row in rows:
        line = [zero] * ncols
        for c, v in row.items():
            line[c] = fmt(v)
        out.append(line)
    return out


@dataclass(frozen=True)
class LinearSystem:
    """The compiled homogeneous system.

    ``rows`` holds the nonempty rows only, as sparse {column: nonzero raw
    value} dicts; ``positions`` (an ``array``) holds each one's position in
    the full row layout, where the constraint rows follow the identity
    rows, and ``nrows`` counts that layout, empty rows included.
    """

    alg: StructureAlgebra
    kind: IdentityKind
    constraints: Constraints
    rows: tuple
    positions: array
    nrows: int
    ncols: int

    def to_doc(self) -> dict:
        """The dense document of the full layout; every empty row is one
        shared line of zeros."""
        fmt = self.alg.ring.format
        lines = [[fmt(0)] * self.ncols] * self.nrows
        for p, line in zip(self.positions, _text_rows(self.rows, self.ncols, fmt)):
            lines[p] = line
        return {
            "kind": self.kind.value,
            "constraints": self.constraints.describe(),
            "ncols": self.ncols,
            "rows": lines,
        }


def _emit_identity_rows(alg: StructureAlgebra, kind: IdentityKind):
    """``(rows, positions, nrows)``: the nonempty identity rows in
    (i, j, coordinate, template) order, an ``array`` of their positions,
    and the number of rows in that order, empty ones included.

    Each row states that one output coordinate of one template instance at
    one ordered basis pair vanishes: lhs terms enter with their
    coefficient, rhs terms negated.  The templates are read from the
    identity table through ``identities.templates_at``, so the square
    identity emits its basis form on the diagonal and the polarized form
    for i < j only.  ``position`` numbers every row of that order, empty
    ones included: pair (i, j) with T templates holds d T of them, and the
    row of coordinate m and template t is the m T + t-th.  A row whose
    terms are all zero, or cancel, is not kept.
    """
    d = alg.dim
    reduce = alg.ring.reduce
    table = alg._pair_table
    # Transposed views, per q and output coordinate m: the (l, c) with c
    # the e_m coordinate of e_l e_q (by_right) or of e_q e_l (by_left).
    by_right = [{} for _ in range(d)]
    by_left = [{} for _ in range(d)]
    for p, row in enumerate(table):
        for q, terms in enumerate(row):
            for m, c in terms:
                by_right[q].setdefault(m, []).append((p, c))
                by_left[p].setdefault(m, []).append((q, c))
    views = {"left": by_right, "right": by_left}
    out, positions, start = [], array("l"), 0
    for i in range(d):
        for j in range(d):
            x = (i, j)
            templates = identities.templates_at(kind, i, j)
            n = len(templates)
            # The rows of this pair by offset m n + t (coordinate m, template t).
            rows: dict = {}
            for t, (lhs, rhs) in enumerate(templates):
                signed = list(lhs) + [(-coef, name, shape) for coef, name, shape in rhs]
                for coef, name, shape in signed:
                    where, arg, other = identities.SHAPES[shape]
                    if where == "apply":
                        # M(e_k) for each e_k in the product; unknown M[m][k].
                        for k, c in table[x[arg]][x[other]]:
                            base = _col(d, name, k, 0)
                            for m in range(d):
                                row = rows.setdefault(m * n + t, {})
                                row[base + m] = row.get(base + m, 0) + coef * c
                        continue
                    # Unknown M[l][x_arg], the e_l coordinate of M(e_{x_arg}),
                    # meets e_q = e_{x_other}: M(e_p)e_q takes e_l e_q,
                    # e_q M(e_p) takes e_q e_l.
                    base = _col(d, name, x[arg], 0)
                    for m, products in views[where][x[other]].items():
                        row = rows.setdefault(m * n + t, {})
                        for l, c in products:
                            row[base + l] = row.get(base + l, 0) + coef * c
            for offset in sorted(rows):
                row = {col: r for col, v in rows[offset].items() if (r := reduce(v))}
                if row:
                    out.append(row)
                    positions.append(start + offset)
            start += d * n
    return out, positions, start


def build_system(
    alg: StructureAlgebra,
    kind: IdentityKind,
    constraints: Constraints | None = None,
) -> LinearSystem:
    """Compile the identity (plus optional constraints) to a linear system."""
    cons = constraints if constraints is not None else Constraints()
    d = alg.dim
    minus_one = alg.ring.reduce(-1)
    rows, positions, nrows = _emit_identity_rows(alg, kind)
    identity_rows = len(rows)
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
    # Constraint rows are never empty; they follow the identity rows.
    end = nrows + len(rows) - identity_rows
    positions.extend(range(nrows, end))
    return LinearSystem(alg=alg, kind=kind, constraints=cons, rows=tuple(rows),
                        positions=positions, nrows=end, ncols=3 * d * d)


@dataclass(frozen=True)
class SolutionSpace:
    """The solution set of an identity system, in canonical form.

    ``canonical`` is the unique reduced echelon matrix spanning the space,
    and the one stored form of it: the sparse rows {column: nonzero raw
    value} ``_linalg.rref`` returns, in pivot order, never mutated.  Equal
    spaces have equal tuples; holding dicts, the space is unhashable.
    ``dim`` is the row count, ``rank`` the rank 3d^2 - dim of the defining
    system, and ``basis`` the rows reshaped into map triples.
    """

    alg: StructureAlgebra
    kind: IdentityKind
    constraints: Constraints
    canonical: tuple

    @property
    def dim(self) -> int:
        return len(self.canonical)

    @property
    def rank(self) -> int:
        return 3 * self.alg.dim ** 2 - self.dim

    @cached_property
    def basis(self) -> tuple:
        return tuple(row_to_triple(self.alg, row) for row in self.canonical)

    def combination(self, coeffs) -> MapTriple:
        """The linear combination sum(coeffs[k] * basis[k]), summed in one
        pass over the rows of ``canonical`` and reduced once."""
        if len(coeffs) != self.dim:
            raise ValueError(f"need {self.dim} coefficients")
        ring = self.alg.ring
        acc: dict = {}
        for c, row in zip(map(ring.coerce, coeffs), self.canonical):
            if c:
                for col, v in row.items():
                    acc[col] = acc.get(col, 0) + c * v
        return row_to_triple(self.alg, {col: r for col, v in acc.items()
                                        if (r := ring.reduce(v))})

    def to_doc(self) -> dict:
        """The solution document.  Basis triples reshape the formatted canonical
        rows: entry (i, j) of block b is column b d^2 + j d + i."""
        d = self.alg.dim
        d2 = d * d
        canonical = _text_rows(self.canonical, 3 * d2, self.alg.ring.format)
        return {
            "algebra_dim": d,
            "ring": self.alg.ring.to_doc(),
            "kind": self.kind.value,
            "constraints": self.constraints.describe(),
            "dim": self.dim,
            "basis": [{name: [line[b * d2 + i:(b + 1) * d2:d] for i in range(d)]
                       for name, b in _BLOCKS.items()} for line in canonical],
            "canonical": canonical,
        }


def nullspace(system: LinearSystem) -> SolutionSpace:
    """Exact solution space with a canonical reduced-echelon basis."""
    canonical = _linalg.kernel(system.rows, system.ncols, system.alg.ring)
    return SolutionSpace(alg=system.alg, kind=system.kind,
                         constraints=system.constraints, canonical=tuple(canonical))


def solve(alg, kind, constraints=None) -> SolutionSpace:
    """Convenience: build the system and take its nullspace."""
    return nullspace(build_system(alg, kind, constraints))


# ---------------------------------------------------------------------------
# certificates and space predicates
# ---------------------------------------------------------------------------

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
    """Three certificates for a computed solution space.

    1. substitution: every basis triple passes the identity checker, the
       element interpreter of ``identities``, and the extra constraints:
       span(canonical) lies in the solution set;
    2. rank-nullity: dim equals 3d^2 minus the rank of a freshly rebuilt
       system, which one ``_linalg.rref`` takes with the column order
       reversed, so that it picks every pivot from the other end of the
       order than ``nullspace`` does: the solution set has dimension dim;
    3. shape: a scan of the stored nonzeros finds ``canonical`` a reduced
       echelon matrix.  Each row's smallest column is its pivot and holds
       1, the pivots strictly ascend, no row holds another row's pivot
       column, and every value is nonzero and its own ``ring.reduce``.  So
       the rows are independent and in the normal form of ``ring``.

    Together: ``canonical`` spans the solution set, and it is that space's
    unique reduced echelon form, as ``nullspace`` would store it.  Only
    certificate 2 shares code with the solver: the compiled rows and
    ``_linalg``.  It rests on one premise no certificate proves, that the
    compiled rows state exactly the identity and the constraints;
    ``tests/test_check_paths.py`` pins that.
    """
    reduce = space.alg.ring.reduce
    pivots = [min(row, default=-1) for row in space.canonical]
    held = set(pivots)
    system = build_system(space.alg, space.kind, space.constraints)
    # Certificate 3 on each row, then certificate 1.
    for row, t, pivot, last in zip(space.canonical, space.basis, pivots, [-1] + pivots):
        if pivot <= last or row.get(pivot) != 1 or sum(c in held for c in row) != 1:
            return False
        if not all(v and v == reduce(v) for v in row.values()):
            return False
        if not identities.check(space.kind, t).holds:
            return False
        if not _constraints_hold(space, t):
            return False
    # Certificate 2: the rank with the columns in reverse order.
    top = system.ncols - 1
    echelon, _ = _linalg.rref([{top - c: v for c, v in row.items()} for row in system.rows],
                              space.alg.ring)
    return space.rank == len(echelon)


def _require_comparable(s1: SolutionSpace, s2: SolutionSpace) -> None:
    if s1.alg.ring != s2.alg.ring:
        raise RingMismatch("solution spaces live over different rings")
    if s1.alg.dim != s2.alg.dim:
        raise ValueError("solution spaces live on algebras of different dimension")


def space_equal(s1: SolutionSpace, s2: SolutionSpace) -> bool:
    """Exact subspace equality via the unique canonical matrices."""
    _require_comparable(s1, s2)
    return s1.canonical == s2.canonical


def space_contains(s1: SolutionSpace, s2: SolutionSpace) -> bool:
    """True iff adding the rows of s2 leaves the reduced form of s1 as it is."""
    _require_comparable(s1, s2)
    echelon, _ = _linalg.rref(s1.canonical + s2.canonical, s1.alg.ring)
    return tuple(echelon) == s1.canonical


def space_member(space: SolutionSpace, t: MapTriple) -> bool:
    """True iff adding the triple's row leaves the space's reduced form as it is."""
    if t.alg.ring != space.alg.ring:
        raise RingMismatch("triple and space live over different rings")
    if t.alg.dim != space.alg.dim:
        raise ValueError("triple and space live on algebras of different dimension")
    echelon, _ = _linalg.rref(space.canonical + (triple_to_row(t),), space.alg.ring)
    return tuple(echelon) == space.canonical


def canonical_span(alg: StructureAlgebra, triples) -> tuple:
    """Unique reduced-echelon matrix spanning the given triples.

    Output rows are sparse {column: nonzero raw value} dicts in pivot order,
    the form of ``SolutionSpace.canonical``, so a closed-form family can be
    compared against a solved space directly.
    """
    rows = []
    for t in triples:
        if t.alg.ring != alg.ring:
            raise RingMismatch("triple lives over a different ring")
        rows.append(triple_to_row(t))
    echelon, _ = _linalg.rref(rows, alg.ring)
    return tuple(echelon)


def project_gh_injectivity(space: SolutionSpace) -> bool:
    """Does (g, h) determine f on this space?

    Equivalent to: the projection of the space onto the (g, h) blocks has
    the same rank as the space itself, i.e. no nonzero solution has
    g = h = 0 but f != 0.
    """
    d2 = space.alg.dim ** 2
    rows = [{c: v for c, v in row.items() if c >= d2} for row in space.canonical]
    echelon, _ = _linalg.rref(rows, space.alg.ring)
    return len(echelon) == space.dim


def gh_collapse(space: SolutionSpace) -> bool:
    """True iff g = h on every solution in the space."""
    d2 = space.alg.dim ** 2
    return all(row.get(c, 0) == row.get(c + d2, 0)
               for row in space.canonical for c in range(d2, 2 * d2))

"""Sparse exact Gaussian elimination over Q or a prime modulus.

Rows are dicts mapping column index to a nonzero raw value of the ring
(see :mod:`ghderiv.ring`): ``int`` or ``Fraction`` over the rationals,
``int`` residues over Z/pZ.  The ring supplies reduction and inversion;
the values themselves are the ones every other layer stores.

``rref`` works in two phases.  Forward: rows are taken shortest first, by
a stable sort, so no early long row fills every later one.  Each row has
the pivot columns it holds eliminated in ascending order (a heap picks up
columns that subtractions bring in), and the normalised remainder becomes
the row of its smallest column; rows already stored are left alone.  A
single-entry row comes before every longer one, so it meets only pivot
rows ``{c: 1}`` and is settled by one lookup.  Back: from the highest
pivot down, each row subtracts the rows of the later pivot columns it
still holds, which by then are fully reduced, so one pass is enough.  No
step visits a pivot row whose column the row being reduced does not hold.

The reduced row echelon form of a set of rows is unique, independent of
row order, and it is the only answer given here: ``rref`` returns it for
a set of rows, with its pivots, and ``kernel`` for the solution space of
a homogeneous system.  Pivots are chosen in fixed ascending column order,
first nonzero wins.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .ring import CompositeModulusUnsupported, RingSpec


def _reduce_against(row: dict, pivrows: dict, reduce) -> dict:
    """Eliminate every pivot column from ``row``; returns the residual.

    ``pivrows`` maps each pivot column to a row whose smallest column it is,
    holding a 1 there.  The pivot columns of ``row`` are eliminated in
    ascending order from a heap: subtracting the row of pivot ``c`` touches
    only columns above ``c``, and any pivot column it brings in is pushed.
    Only the pivot rows of columns that ``row`` holds, or comes to hold, are
    visited.  Against fully reduced pivot rows nothing is ever pushed.
    """
    heap = [k for k in row if k in pivrows]
    heapify(heap)
    while heap:
        c = heappop(heap)
        coef = row.pop(c, None)
        if not coef:
            continue
        for k, v in pivrows[c].items():
            if k == c:
                continue
            if k in row:
                nv = reduce(row[k] - coef * v)
                if nv:
                    row[k] = nv
                else:
                    del row[k]
            else:
                # Nonzero: a product of two nonzero field elements.
                row[k] = reduce(-coef * v)
                if k in pivrows:
                    heappush(heap, k)
    return row


def rref(rows, ring: RingSpec):
    """Reduced row echelon form of an iterable of sparse rows.

    Returns ``(echelon, pivots)`` where ``echelon`` is a list of fully
    reduced rows sorted by pivot column (each with a 1 in its pivot) and
    ``pivots`` maps pivot column to row index in ``echelon``.  Raises
    CompositeModulusUnsupported unless the ring is a field.
    """
    if not ring.is_field():
        raise CompositeModulusUnsupported(
            f"exact elimination over {ring} needs a prime modulus"
        )
    reduce = ring.reduce
    # Forward phase, shortest rows first (a stable sort): each row is reduced
    # against the pivot rows it meets and stored, normalised, under its
    # smallest column.  Older rows are never touched, so they may still hold
    # later pivot columns.
    pivrows: dict[int, dict] = {}
    for row in sorted(rows, key=len):
        if len(row) == 1:
            # A single entry {c: v} says "unknown c is 0".  Only single-entry
            # rows came before it, so c's pivot row, if any, is {c: 1}.
            (c,) = row
            pivrows.setdefault(c, {c: 1})
            continue
        r = _reduce_against(dict(row), pivrows, reduce)
        if not r:
            continue
        c = min(r)
        inv = ring.inv(r[c])
        r = {k: reduce(v * inv) for k, v in r.items()}
        r[c] = 1
        pivrows[c] = r
    # Back phase, from the highest pivot down: every pivot row above the
    # current one is already fully reduced, so one pass of subtractions
    # clears the pivot columns the current row still holds.  The row's own
    # pivot entry is set aside meanwhile, so it is not reduced by itself.
    cols = sorted(pivrows)
    for c in reversed(cols):
        r = pivrows[c]
        del r[c]
        _reduce_against(r, pivrows, reduce)
        r[c] = 1
    echelon = [pivrows[c] for c in cols]
    pivots = {c: i for i, c in enumerate(cols)}
    return echelon, pivots


def kernel(rows, ncols: int, ring: RingSpec):
    """The reduced echelon form of the solution space of the homogeneous
    system ``rows`` in ``ncols`` unknowns.

    Each free column ``fc`` of the system's reduced form gives a solution:
    1 at ``fc`` and, at each pivot column, minus that pivot row's entry in
    ``fc``.  A pivot row holds no other pivot column, so one walk over the
    pivot rows' entries fills every vector.
    """
    echelon, pivots = rref(rows, ring)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in pivots}
    for pc, idx in pivots.items():
        for c, v in echelon[idx].items():
            if c != pc:
                basis[c][pc] = ring.reduce(-v)
    canonical, _ = rref(basis.values(), ring)
    return canonical

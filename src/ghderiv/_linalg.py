"""Sparse exact Gaussian elimination over Q or a prime modulus.

Rows are dicts mapping column index to a nonzero raw value of the ring
(see :mod:`ghderiv.ring`): ``int`` or ``Fraction`` over the rationals,
``int`` residues over Z/pZ.  The ring supplies reduction and inversion;
the values themselves are the ones every other layer stores.

The reduced row echelon form of a set of rows is unique, independent of
row order, which is what makes canonical subspace comparison and
reproducible bases possible.  Pivots are chosen in fixed ascending column
order, first nonzero wins.
"""

from __future__ import annotations

from .ring import CompositeModulusUnsupported, RingSpec


def _subtract(row: dict, coef, pivrow: dict, pivot: int, reduce) -> None:
    """row -= coef * pivrow outside the pivot column, dropping zeros."""
    for k, v in pivrow.items():
        if k == pivot:
            continue
        nv = reduce(row.get(k, 0) - coef * v)
        if nv:
            row[k] = nv
        else:
            row.pop(k, None)


def _reduce_against(row: dict, pivrows: dict, reduce) -> dict:
    """Eliminate every pivot column present in ``row``; returns the residual.

    Pivot rows are fully reduced against each other, so subtracting a pivot
    row never introduces a new pivot column into ``row``; one pass over the
    pivot columns initially present is enough.
    """
    for c in sorted(k for k in row if k in pivrows):
        coef = row.pop(c, None)
        if coef:
            _subtract(row, coef, pivrows[c], c, reduce)
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
    pivrows: dict[int, dict] = {}
    for row in rows:
        r = _reduce_against(dict(row), pivrows, reduce)
        if not r:
            continue
        c = min(r)
        inv = ring.inv(r[c])
        r = {k: reduce(v * inv) for k, v in r.items()}
        r[c] = 1
        # Keep full reduction: clear the new pivot column out of older rows.
        for other in pivrows.values():
            coef = other.pop(c, None)
            if coef:
                _subtract(other, coef, r, c, reduce)
        pivrows[c] = r
    cols = sorted(pivrows)
    echelon = [pivrows[c] for c in cols]
    pivots = {c: i for i, c in enumerate(cols)}
    return echelon, pivots


def nullspace(echelon, pivots, ncols: int, ring: RingSpec):
    """Basis of the solution set of the homogeneous system, one vector per
    free column, in ascending free-column order."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = {fc: 1}
        for pc, idx in pivots.items():
            coef = echelon[idx].get(fc)
            if coef:
                v[pc] = ring.reduce(-coef)
        basis.append(v)
    return basis


def residual(vec: dict, echelon, pivots, ring: RingSpec) -> dict:
    """Remainder of ``vec`` after elimination against an echelon row set."""
    pivrows = {c: echelon[i] for c, i in pivots.items()}
    return _reduce_against(dict(vec), pivrows, ring.reduce)

"""Sparse exact Gaussian elimination over Q or a prime modulus.

Rows are dicts mapping column index to a nonzero raw value: ``Fraction``
over the rationals, plain ``int`` residues over Z/pZ.  Working on raw
values keeps the hot loop free of wrapper overhead; callers wrap results
back into :class:`~ghderiv.ring.Scalar` at the boundary.

The reduced row echelon form of a set of rows is unique, independent of
row order, which is what makes canonical subspace comparison and
reproducible bases possible.  Pivots are chosen in fixed ascending column
order, first nonzero wins.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import CompositeModulusUnsupported, RingSpec


class RationalOps:
    """Field operations on raw Fraction values."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return 1 / a

    @staticmethod
    def is_zero(a):
        return a == 0


class PrimeOps:
    """Field operations on int residues mod a prime p."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0


def ops_for(ring: RingSpec):
    """Field operations for the ring, or CompositeModulusUnsupported."""
    if ring.kind == "Q":
        return RationalOps()
    if not ring.is_field():
        raise CompositeModulusUnsupported(
            f"exact elimination over {ring} needs a prime modulus"
        )
    return PrimeOps(ring.m)


def _reduce_against(row: dict, pivrows: dict, ops) -> dict:
    """Eliminate every pivot column present in ``row``; returns the residual.

    Pivot rows are fully reduced against each other, so subtracting a pivot
    row never introduces a new pivot column into ``row``; one pass over the
    pivot columns initially present is enough.
    """
    for c in sorted(k for k in row if k in pivrows):
        coef = row.pop(c, None)
        if coef is None or ops.is_zero(coef):
            continue
        for k, v in pivrows[c].items():
            if k == c:
                continue
            nv = ops.sub(row.get(k, ops.zero), ops.mul(coef, v))
            if ops.is_zero(nv):
                row.pop(k, None)
            else:
                row[k] = nv
    return row


def rref(rows, ops):
    """Reduced row echelon form of an iterable of sparse rows.

    Returns ``(echelon, pivots)`` where ``echelon`` is a list of fully
    reduced rows sorted by pivot column (each with a 1 in its pivot) and
    ``pivots`` maps pivot column to row index in ``echelon``.
    """
    pivrows: dict[int, dict] = {}
    for row in rows:
        r = _reduce_against(dict(row), pivrows, ops)
        if not r:
            continue
        c = min(r)
        inv = ops.inv(r[c])
        r = {k: ops.mul(v, inv) for k, v in r.items()}
        r[c] = ops.one
        # Keep full reduction: clear the new pivot column out of older rows.
        for other in pivrows.values():
            coef = other.get(c)
            if coef is None or ops.is_zero(coef):
                continue
            del other[c]
            for k, v in r.items():
                if k == c:
                    continue
                nv = ops.sub(other.get(k, ops.zero), ops.mul(coef, v))
                if ops.is_zero(nv):
                    other.pop(k, None)
                else:
                    other[k] = nv
        pivrows[c] = r
    cols = sorted(pivrows)
    echelon = [pivrows[c] for c in cols]
    pivots = {c: i for i, c in enumerate(cols)}
    return echelon, pivots


def nullspace(echelon, pivots, ncols: int, ops):
    """Basis of the solution set of the homogeneous system, one vector per
    free column, in ascending free-column order."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = {fc: ops.one}
        for pc, idx in pivots.items():
            coef = echelon[idx].get(fc)
            if coef is not None and not ops.is_zero(coef):
                v[pc] = ops.neg(coef)
        basis.append(v)
    return basis


def residual(vec: dict, echelon, pivots, ops) -> dict:
    """Remainder of ``vec`` after elimination against an echelon row set."""
    pivrows = {c: echelon[i] for c, i in pivots.items()}
    return _reduce_against(dict(vec), pivrows, ops)

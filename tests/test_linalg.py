"""Sparse exact elimination, pinned to a dense textbook reference.

``_linalg.rref`` reduces rows forward and back-substitutes once at the end.
The reduced echelon form is unique, so a plain dense Gauss-Jordan written
here must give the same matrix on any input, over Q and over Z/p.
``_linalg.kernel`` is pinned the same way, to a dense nullspace.
"""

import copy

from hypothesis import given, settings, strategies as st

from ghderiv import _linalg
from ghderiv.ring import QQ, Zmod


def dense_gauss_jordan(rows, ncols, ring):
    """Textbook Gauss-Jordan on a dense copy: for each column in turn, swap
    a nonzero entry up, scale it to 1 and clear the column everywhere else.
    Returns the nonzero rows."""
    m = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        below = [i for i in range(rank, len(m)) if m[i][c]]
        if not below:
            continue
        i = below[0]
        m[rank], m[i] = m[i], m[rank]
        inv = ring.inv(m[rank][c])
        m[rank] = [ring.reduce(v * inv) for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [ring.reduce(a - f * b) for a, b in zip(m[i], m[rank])]
        rank += 1
    return m[:rank]


def _ring_and_values(draw):
    ring = draw(st.sampled_from([QQ, Zmod(2), Zmod(5)]))
    if ring.m is None:
        values = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    else:
        values = st.integers(1, ring.m - 1)
    return ring, values.filter(bool).map(ring.coerce)


@st.composite
def sparse_system(draw):
    ring, values = _ring_and_values(draw)
    ncols = draw(st.integers(1, 10))
    row = st.dictionaries(st.integers(0, ncols - 1), values, max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    return ring, ncols, rows


@st.composite
def single_entry_system(draw):
    """Mostly single-entry rows, many of them repeated, led by a longer row
    and a single entry on its smallest column, in either order: the single
    entry then either meets a pivot row holding further entries or is the
    pivot row the longer row is reduced against."""
    ring, values = _ring_and_values(draw)
    ncols = draw(st.integers(2, 8))
    longer = draw(st.dictionaries(st.integers(0, ncols - 1), values,
                                  min_size=2, max_size=ncols))
    lead = [longer, {min(longer): draw(values)}]
    if draw(st.booleans()):
        lead.reverse()
    single = st.builds(lambda c, v: {c: v}, st.integers(0, ncols - 1), values)
    other = st.dictionaries(st.integers(0, ncols - 1), values, min_size=2, max_size=ncols)
    rest = draw(st.lists(st.one_of(single, single, other), max_size=10))
    repeats = draw(st.lists(st.sampled_from(lead + rest), max_size=6))
    return ring, ncols, lead + rest + repeats


def _assert_rref_matches_dense_gauss_jordan(system, rnd):
    ring, ncols, rows = system
    before = copy.deepcopy(rows)
    echelon, pivots = _linalg.rref(iter(rows), ring)
    assert rows == before
    dense = [[row.get(c, 0) for c in range(ncols)] for row in echelon]
    assert dense == dense_gauss_jordan(rows, ncols, ring)
    assert pivots == {min(row): k for k, row in enumerate(echelon)}
    # Stored values are nonzero, and whole numbers are ints.
    for row in echelon:
        for v in row.values():
            assert v and (type(v) is int or v.denominator != 1)
    # Each pivot column is nonzero in its own row and nowhere else.
    for c, k in pivots.items():
        assert [i for i, row in enumerate(echelon) if c in row] == [k]
        assert echelon[k][c] == 1
    # Row order does not matter.
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert _linalg.rref(shuffled, ring) == (echelon, pivots)
    # Every input row lies in the span of the echelon: adding it leaves the
    # echelon unchanged.
    for row in rows:
        assert _linalg.rref(echelon + [row], ring)[0] == echelon


@settings(max_examples=300, deadline=None)
@given(sparse_system(), st.randoms(use_true_random=False))
def test_rref_matches_dense_gauss_jordan(system, rnd):
    _assert_rref_matches_dense_gauss_jordan(system, rnd)


@settings(max_examples=300, deadline=None)
@given(single_entry_system(), st.randoms(use_true_random=False))
def test_rref_settles_single_entry_rows_as_dense_gauss_jordan(system, rnd):
    _assert_rref_matches_dense_gauss_jordan(system, rnd)


def dense_nullspace(rows, ncols, ring):
    """One vector per free column of the dense reduced form: 1 there, minus
    each pivot row's entry in that column at the pivot."""
    reduced = dense_gauss_jordan(rows, ncols, ring)
    pivots = [next(c for c, v in enumerate(r) if v) for r in reduced]
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in zip(reduced, pivots):
            vec[pc] = ring.reduce(-r[fc])
        basis.append({c: v for c, v in enumerate(vec) if v})
    return basis


@settings(max_examples=300, deadline=None)
@given(sparse_system())
def test_nullspace_matches_dense_reference(system):
    ring, ncols, rows = system
    basis = _linalg.kernel(rows, ncols, ring)
    rank = len(_linalg.rref(rows, ring)[0])
    reference = dense_gauss_jordan(dense_nullspace(rows, ncols, ring), ncols, ring)
    assert [[vec.get(c, 0) for c in range(ncols)] for vec in basis] == reference
    assert rank == len(dense_gauss_jordan(rows, ncols, ring))
    assert len(basis) == ncols - rank
    for vec in basis:
        for row in rows:
            assert not ring.reduce(sum(v * vec.get(c, 0) for c, v in row.items()))

"""Tests of the benchmark's reference code, on cases worked by hand.

    python3 -m pytest perfbench
"""

import pytest

import reference as ref

Q, Z5 = ref.Ring(None), ref.Ring(5)
# T2 has basis e11, e12, e22; the nonzero products are
# e11 e11 = e11, e11 e12 = e12, e12 e22 = e12, e22 e22 = e22.
T2_TABLE = {(0, 0): ((0, 1),), (0, 1): ((1, 1),), (1, 2): ((1, 1),), (2, 2): ((2, 1),)}


def unit(d, i, j):
    """The matrix sending e_j to e_i and every other basis vector to 0."""
    return [[int((r, c) == (i, j)) for c in range(d)] for r in range(d)]


def t2_left_basis():
    """The one-sided solutions on T2 in reduced echelon order.

    f = g + h with g(e11), h(e11) in span(e11, e12) and g, h zero elsewhere;
    the pivots are f(e11)_11, f(e11)_12, g(e11)_11, g(e11)_12.
    """
    zero = ref.zero_map(3)
    neg = lambda m: [[-v for v in row] for row in m]
    e11, e12 = unit(3, 0, 0), unit(3, 1, 0)
    return [
        {"f": e11, "g": zero, "h": e11},
        {"f": e12, "g": zero, "h": e12},
        {"f": zero, "g": e11, "h": neg(e11)},
        {"f": zero, "g": e12, "h": neg(e12)},
    ]


def space_doc(triples, kind, ring=Q):
    """A solution document in the layout ghderiv solve writes."""
    fmt = ring.fmt
    d = len(triples[0]["f"]) if triples else 3
    return {
        "algebra_dim": d,
        "ring": ring.doc(),
        "kind": kind,
        "constraints": "none",
        "dim": len(triples),
        "basis": [{n: [[fmt(v) for v in row] for row in t[n]] for n in ref.MAPS}
                  for t in triples],
        "canonical": [[fmt(t[n][l][c]) for n in ref.MAPS for c in range(d) for l in range(d)]
                      for t in triples],
    }


def test_t2_structure_constants():
    alg = ref.from_spec("tn2", Q)
    assert alg.table == T2_TABLE
    assert alg.unity == [1, 0, 1]
    assert not alg.is_commutative()


def test_builders_agree_with_known_products():
    q = ref.from_spec("quat", Q)
    assert q.prod(1, 2) == ((3, 1),) and q.prod(2, 1) == ((3, -1),)
    assert q.prod(3, 3) == ((0, -1),)
    m2 = ref.from_spec("mn2", Q)  # e12 e21 = e11, e21 e12 = e22
    assert m2.prod(1, 2) == ((0, 1),) and m2.prod(2, 1) == ((3, 1),)
    dual = ref.from_spec("poly(ring,1)", Q)  # 1, x with x^2 = 0
    assert dual.table == {(0, 0): ((0, 1),), (0, 1): ((1, 1),), (1, 0): ((1, 1),)}
    assert ref.from_spec("poly:ring:1", Q).table == dual.table
    assert ref.from_spec("tensor(tn2,tn2)", Q).dim == 9
    with pytest.raises(ValueError):
        ref.from_spec("quat", Z5)


def test_algebra_document_round_trip():
    alg = ref.from_spec("poly(tn2,1)", Z5)
    back = ref.algebra_from_doc(alg.to_doc())
    assert back.table == alg.table and back.unity == alg.unity


def test_t2_one_sided_family_holds():
    alg = ref.from_spec("tn2", Q)
    for triple in t2_left_basis():
        assert ref.evaluate("left-gh", alg, triple) is None
        assert ref.evaluate("jordan-left-gh", alg, triple) is None


def test_wrong_triple_is_rejected_with_the_first_failing_pair():
    alg = ref.from_spec("tn2", Q)
    ident, zero = [[int(i == j) for j in range(3)] for i in range(3)], ref.zero_map(3)
    # f = id, g = h = 0: at (e11, e11) the left side is e11, the right side 0.
    found = ref.evaluate("left-gh", alg, {"f": ident, "g": zero, "h": zero})
    assert found == (0, 0, [1, 0, 0], [0, 0, 0])
    # The square form on the diagonal: id(e11^2) = e11, e11 e11 + e11 e11 = 2 e11.
    found = ref.evaluate("jordan-derivation", alg, {"f": ident})
    assert found == (0, 0, [1, 0, 0], [2, 0, 0])
    assert ref.counterexample_doc(Z5, (0, 1, [1, 0, 4], [0, 0, 0])) == {
        "holds": False,
        "counterexample": {"i": 0, "j": 1, "lhs": ["1 mod 5", "0 mod 5", "4 mod 5"],
                           "rhs": ["0 mod 5", "0 mod 5", "0 mod 5"]},
    }


def test_multiplication_maps_are_centralizers():
    alg = ref.from_spec("tn3", Z5)
    alpha = [1, 2, 3, 4, 1, 2]
    left, right = ref.left_mul(alg, alpha), ref.right_mul(alg, alpha)
    assert ref.evaluate("left-centralizer", alg, {"f": left}) is None
    assert ref.evaluate("right-centralizer", alg, {"f": right}) is None
    assert ref.evaluate("left-centralizer", alg, {"f": right}) is not None
    inner = ref.combine(Z5, (1, right), (-1, left))
    assert ref.evaluate("derivation", alg, {"f": inner}) is None


@pytest.mark.parametrize("kind, dim", [("left-gh", 4), ("jordan-left-gh", 5)])
def test_t2_dimensions_from_the_modular_rank(kind, dim):
    alg = ref.from_spec("tn2", Q)
    rows = list(ref.compile_rows(kind, alg))
    assert 27 - ref.rank_mod(rows, ref.RANK_PRIME) == dim
    assert 27 - ref.rank_mod(rows, 5) == dim


def test_rank_mod_clears_denominators():
    from fractions import Fraction

    rows = [{0: Fraction(1, 2), 1: 1}, {0: 1, 1: 2}, {2: Fraction(2, 3)}]
    assert ref.rank_mod(rows, 7) == 2


def test_sound_space_document_passes():
    doc = space_doc(t2_left_basis(), "left-gh")
    assert ref.verify_space_doc(doc, "tn2", "left-gh", Q) == []


def test_wrong_dimension_is_rejected():
    doc = space_doc(t2_left_basis()[:3], "left-gh")
    problems = ref.verify_space_doc(doc, "tn2", "left-gh", Q)
    assert any("rank" in p for p in problems) and any("closed form" in p for p in problems)


def test_wrong_basis_triple_is_rejected():
    triples = t2_left_basis()
    triples[3] = dict(triples[3], h=unit(3, 2, 2))  # h(e22) = e22 breaks the identity
    problems = ref.verify_space_doc(space_doc(triples, "left-gh"), "tn2", "left-gh", Q)
    assert "basis triple 3 fails left-gh" in problems


def test_dependent_basis_is_rejected():
    triples = t2_left_basis()
    triples[1] = triples[0]
    problems = ref.verify_space_doc(space_doc(triples, "left-gh"), "tn2", "left-gh", Q)
    assert "basis triple 1 is not independent of the earlier ones" in problems

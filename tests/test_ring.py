"""Exact scalar arithmetic over Q and Z/mZ.

The rest of the package leans on three promises made here: arithmetic is
exact (Fractions over Q, reduced residues mod m), text forms round-trip,
and 2-torsion-freeness is decided correctly (that hypothesis gates the
square-identity arguments downstream).
"""

import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ghderiv.algebra import upper_triangular
from ghderiv.identities import IdentityKind, check
from ghderiv.linmap import LinMap, MapTriple
from ghderiv.ring import (
    QQ,
    NotAUnit,
    RingMismatch,
    RingSpec,
    Scalar,
    Zmod,
)
from ghderiv.solver import canonical_span, solve


def test_q_basics():
    a = Scalar(QQ, Fraction(2, 3))
    b = Scalar(QQ, Fraction(-1, 6))
    assert str(a + b) == "1/2"
    assert str(a * b) == "-1/9"
    assert str(-b) == "1/6"
    assert (a - a).is_zero()
    assert a + 1 == Scalar(QQ, Fraction(5, 3))
    assert 2 * a == Scalar(QQ, Fraction(4, 3))


def test_zmod_normalizes_into_range():
    z7 = Zmod(7)
    assert Scalar(z7, 12).value == 5
    assert Scalar(z7, -1).value == 6
    assert str(Scalar(z7, 3) * Scalar(z7, 5)) == "1 mod 7"
    assert (Scalar(z7, 3) + Scalar(z7, 4)).is_zero()


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatch):
        Scalar(QQ, 1) + Scalar(Zmod(5), 1)
    with pytest.raises(RingMismatch):
        Scalar(Zmod(5), 1) * Scalar(Zmod(7), 1)


def test_inv_unit():
    assert Scalar(QQ, Fraction(3, 4)).inv() == Scalar(QQ, Fraction(4, 3))
    assert Scalar(Zmod(7), 3).inv().value == 5
    with pytest.raises(NotAUnit):
        Scalar(QQ, 0).inv()
    with pytest.raises(NotAUnit):
        Scalar(Zmod(6), 2).inv()


def test_parse_round_trip_q():
    for text in ["5/6", "-7", "0", "22/7", "-3/9"]:
        s = Scalar.parse(text, QQ)
        assert Scalar.parse(str(s), QQ) == s
    with pytest.raises(ValueError):
        Scalar.parse("1/0", QQ)
    with pytest.raises(ValueError):
        Scalar.parse("x", QQ)


def test_parse_round_trip_zmod():
    z7 = Zmod(7)
    assert Scalar.parse("3 mod 7", z7).value == 3
    assert Scalar.parse("-2", z7).value == 5
    assert Scalar.parse(str(Scalar(z7, 6)), z7).value == 6
    with pytest.raises(ValueError):
        Scalar.parse("3 mod 5", z7)  # literal names the wrong modulus
    with pytest.raises(ValueError):
        Scalar.parse("1/2", z7)


def test_ring_names_and_docs():
    assert RingSpec.from_name("q") == QQ
    assert RingSpec.from_name("Z5") == Zmod(5)
    assert RingSpec.from_name("zmod:12") == Zmod(12)
    with pytest.raises(ValueError):
        RingSpec.from_name("gf9")
    for r in (QQ, Zmod(4), Zmod(7)):
        assert RingSpec.from_doc(r.to_doc()) == r


def test_two_torsion_free_iff_odd_modulus():
    assert QQ.two_torsion_free()
    for m in range(2, 101):
        assert Zmod(m).two_torsion_free() == (m % 2 == 1)
    # The defining property itself: 2a = 0 with a nonzero needs an even m.
    z4 = Zmod(4)
    a = Scalar(z4, 2)
    assert (a + a).is_zero() and not a.is_zero()


def test_is_field():
    assert QQ.is_field()
    assert Zmod(7).is_field()
    assert not Zmod(6).is_field()
    with pytest.raises(ValueError):
        Zmod(1)  # modulus below 2 is rejected outright


qq_scalars = st.fractions(max_denominator=50).map(lambda f: Scalar(QQ, f))


@given(qq_scalars, qq_scalars, qq_scalars)
def test_q_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Scalar(QQ, 0)


@given(st.integers(-100, 100), st.integers(-100, 100), st.integers(2, 30))
def test_zmod_matches_integer_arithmetic(x, y, m):
    r = Zmod(m)
    assert (Scalar(r, x) + Scalar(r, y)).value == (x + y) % m
    assert (Scalar(r, x) * Scalar(r, y)).value == (x * y) % m
    assert (-Scalar(r, x)).value == (-x) % m


@given(st.integers(1, 6))
def test_z7_units_invert(u):
    s = Scalar(Zmod(7), u)
    assert (s * s.inv()).value == 1


def test_scalar_str_is_stable():
    assert str(Scalar(QQ, Fraction(10, 4))) == "5/2"
    assert str(Scalar(Zmod(12), 25)) == "1 mod 12"


def test_only_exact_inputs_are_coerced():
    for ring in (QQ, Zmod(5)):
        for bad in (0.1, 2.0, True, False, Decimal("0.5"), None, 1j):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                ring.scalar(bad)
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                Scalar(ring, bad)
    assert QQ.scalar("0.1") == Scalar(QQ, Fraction(1, 10))
    assert QQ.coerce(Scalar(QQ, 3)) == 3
    with pytest.raises(RingMismatch):
        QQ.coerce(Scalar(Zmod(5), 1))
    # Every layer that takes outside values coerces through the ring.
    t2 = upper_triangular(2)
    with pytest.raises(ValueError, match="0.5"):
        t2.element([0.5, 0, 0])
    with pytest.raises(ValueError, match="0.5"):
        t2.one().scale(0.5)
    with pytest.raises(ValueError, match="True"):
        LinMap.from_rows(t2, [[True, 0, 0], [0, 0, 0], [0, 0, 0]])


# ---------------------------------------------------------------------------
# the raw value format every layer computes on
# ---------------------------------------------------------------------------


def assert_raw(ring, values):
    """Each value is in the ring's normal form: int or Fraction over Q
    (never a float, never boxed), an int in [0, m) over Z/mZ."""
    for v in values:
        if ring.m is None:
            assert type(v) in (int, Fraction), repr(v)
        else:
            assert type(v) is int and 0 <= v < ring.m, repr(v)


@given(st.sampled_from([QQ, Zmod(2), Zmod(4), Zmod(5), Zmod(12)]), st.data())
def test_ring_results_are_normalised_raw_values(ring, data):
    inputs = (st.one_of(st.integers(-50, 50), st.fractions(max_denominator=50))
              if ring == QQ else st.integers(-50, 50))
    a, b = ring.coerce(data.draw(inputs)), ring.coerce(data.draw(inputs))
    results = [a, b, ring.reduce(a + b), ring.reduce(a - b), ring.reduce(a * b),
               ring.reduce(-a), ring.parse(ring.format(a))]
    sa, sb = Scalar(ring, a), Scalar(ring, b)
    results += [(sa + sb).value, (sa - 7).value, (3 * sb).value, (-sa).value]
    for v in (a, b):
        try:
            inv = ring.inv(v)
        except NotAUnit:
            assert ring.m is not None or v == 0
        else:
            results += [inv, Scalar(ring, v).inv().value]
            assert ring.reduce(inv * v) == 1
    assert_raw(ring, results)


def test_inverting_an_int_over_q_stays_exact():
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(Fraction(1, 4)) == 4 and type(QQ.inv(Fraction(1, 4))) is int


def _random_triples(draw, ring, alg, count):
    entries = st.fractions(-9, 9, max_denominator=9) if ring == QQ else st.integers(-9, 9)
    d = alg.dim
    return [
        MapTriple(*(
            LinMap.from_rows(alg, [[draw(entries) for _ in range(d)] for _ in range(d)])
            for _ in range(3)
        ))
        for _ in range(count)
    ]


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_solver_output_is_raw(data):
    ring = data.draw(st.sampled_from([QQ, Zmod(5)]))
    kind = data.draw(st.sampled_from(list(IdentityKind)))
    alg = upper_triangular(2, ring)
    triples = _random_triples(data.draw, ring, alg, 2)
    for row in canonical_span(alg, triples):
        assert_raw(ring, row)
    sp = solve(alg, kind)
    for row in sp.canonical:
        assert_raw(ring, row)
    for t in list(sp.basis) + triples:
        for m in (t.f, t.g, t.h):
            for row in m.mat:
                assert_raw(ring, row)
        ce = check(kind, t).counterexample
        if ce is not None:
            assert_raw(ring, ce.lhs.coords + ce.rhs.coords)

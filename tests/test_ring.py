"""Exact scalar arithmetic over Q and Z/mZ.

The rest of the package leans on three promises made here: arithmetic is
exact (Fractions over Q, reduced residues mod m), text forms round-trip,
and 2-torsion-freeness is decided correctly (that hypothesis gates the
square-identity arguments downstream).
"""

import json
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ghderiv.algebra import (
    StructureAlgebra,
    algebra_from_doc,
    algebra_to_doc,
    tensor_product,
    upper_triangular,
)
from ghderiv.identities import IdentityKind, check
from ghderiv.linmap import LinMap, MapTriple, map_from_doc, triple_from_doc
from ghderiv import ring as ring_mod
from ghderiv.cli import main
from ghderiv.ring import (
    MAX_DIGITS,
    MAX_EXPONENT,
    PRIME_TEST_BOUND,
    QQ,
    NotAUnit,
    RingMismatch,
    RingSpec,
    Zmod,
    _is_prime,
)
from ghderiv.solver import canonical_span, solve, space_equal, verify_space


def test_q_basics():
    a, b = QQ.coerce(Fraction(2, 3)), QQ.coerce(Fraction(-1, 6))
    r = QQ.reduce
    assert QQ.format(r(a + b)) == "1/2"
    assert QQ.format(r(a * b)) == "-1/9"
    assert QQ.format(r(-b)) == "1/6"
    assert r(a - a) == 0 and type(r(a - a)) is int
    assert r(a + 1) == Fraction(5, 3)
    assert r(2 * a) == Fraction(4, 3)


def test_zmod_normalizes_into_range():
    z7 = Zmod(7)
    assert z7.coerce(12) == 5
    assert z7.coerce(-1) == 6
    assert z7.format(z7.reduce(3 * 5)) == "1 mod 7"
    assert z7.reduce(3 + 4) == 0


def test_ring_mismatch_rejected():
    # Raw values carry no ring; algebras and spaces do, and refuse to mix.
    with pytest.raises(RingMismatch):
        tensor_product(upper_triangular(2), upper_triangular(2, Zmod(5)))
    with pytest.raises(RingMismatch):
        space_equal(solve(upper_triangular(2, Zmod(5)), IdentityKind.LEFT_GH),
                    solve(upper_triangular(2, Zmod(7)), IdentityKind.LEFT_GH))


def test_inv_unit():
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)
    assert Zmod(7).inv(3) == 5
    with pytest.raises(NotAUnit):
        QQ.inv(0)
    with pytest.raises(NotAUnit):
        Zmod(6).inv(2)


def test_parse_round_trip_q():
    for text in ["5/6", "-7", "0", "22/7", "-3/9"]:
        s = QQ.parse(text)
        assert QQ.parse(QQ.format(s)) == s
    with pytest.raises(ValueError):
        QQ.parse("1/0")
    with pytest.raises(ValueError):
        QQ.parse("x")


def test_decimal_literals_parse_exactly():
    assert QQ.parse("0.1") == Fraction(1, 10)
    assert QQ.parse("1e3") == 1000 and type(QQ.parse("1e3")) is int
    assert QQ.parse("2.5e-3") == Fraction(1, 400)
    assert QQ.parse(f"1E+{MAX_EXPONENT}") == 10 ** MAX_EXPONENT
    assert QQ.parse(f"1e-{MAX_EXPONENT}") == Fraction(1, 10 ** MAX_EXPONENT)


@pytest.mark.parametrize("text", [
    "1e999999999", "1e-999999999", f"1E+{MAX_EXPONENT + 1}", "1e1_000_000",
    " 2.5e00009999 ", "1e" + "9" * 5000,
])
def test_huge_exponent_is_refused_before_fraction(monkeypatch, text):
    # Fraction(text) would build 10**exponent; it must never be reached.
    class Unreachable(Fraction):
        def __new__(cls, numerator=0, denominator=None):
            if isinstance(numerator, str):
                raise AssertionError(f"Fraction({numerator[:20]!r}) reached")
            return super().__new__(cls, numerator, denominator)

    monkeypatch.setattr(ring_mod, "Fraction", Unreachable)
    with pytest.raises(ValueError, match=f"bad rational literal.*exponent above {MAX_EXPONENT}"):
        QQ.parse(text)


@pytest.mark.parametrize("ring, literal", [
    ("q", "1" + "0" * 4000 + "e1000"),
    ("q", "1" * 5000),
    ("z5", "7" * 5000),
], ids=["exponent", "rational", "residue"])
def test_check_refuses_a_literal_over_the_digit_budget(monkeypatch, capsys, tmp_path,
                                                       ring, literal):
    # Each used to parse, or to fail in int(), and then exit 1 with Python's
    # set_int_max_str_digits() message, which names no literal.
    class Unreachable(Fraction):
        def __new__(cls, numerator=0, denominator=None):
            if isinstance(numerator, str):
                raise AssertionError(f"Fraction({numerator[:20]!r}) reached")
            return super().__new__(cls, numerator, denominator)

    monkeypatch.setattr(ring_mod, "Fraction", Unreachable)
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"matrix": [[literal]], "algebra": "ring"}))
    argv = ["check", "--kind", "left-gh", "--map", str(path), "--ring", ring]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    what = "rational" if ring == "q" else "residue"
    assert out == ""
    assert err == (f"error: bad map document: bad {what} literal {literal[:20]!r}... "
                   f"({len(literal)} characters): more than {MAX_DIGITS} digits\n")


def test_solve_refuses_a_modulus_over_the_digit_budget(capsys):
    name = "z" + "7" * 5000
    assert main(["solve", "--algebra", "ring", "--kind", "left-gh", "--ring", name]) == 1
    assert capsys.readouterr().err == (
        f"error: bad ring name {name[:20]!r}... (5001 characters): "
        f"a modulus of more than {MAX_DIGITS} digits\n")


@pytest.mark.parametrize("ring, literal", [
    ("q", "9" * MAX_DIGITS),
    ("q", "-" + "9" * (MAX_DIGITS - MAX_EXPONENT) + f"e{MAX_EXPONENT}"),
    ("q", "1/" + "9" * (MAX_DIGITS - 1)),
    ("q", "9" * (MAX_DIGITS - MAX_EXPONENT) + f"e-{MAX_EXPONENT}"),
    ("z" + "9" * MAX_DIGITS, "8" * MAX_DIGITS),
    ("q", "." + "9" * MAX_EXPONENT + f"e-{MAX_EXPONENT}"),
], ids=["integer", "exponent", "fraction", "negative-exponent", "residue",
        "denominator-past-the-budget"])
def test_a_literal_at_the_digit_budget_parses_and_its_square_formats(ring, literal):
    ring = RingSpec.from_name(ring)
    value = ring.parse(literal)
    assert value
    text = ring.format(ring.reduce(value * value + value * value))
    assert len(text) > MAX_DIGITS


def test_coerce_refuses_a_number_over_the_digit_budget():
    # A JSON integer of 2,001 to 4,300 digits used to load, past the budget
    # that bounds text, and to fail later while formatting a product.
    big = 10 ** MAX_DIGITS
    for ring in (QQ, Zmod(5)):
        assert ring.coerce(big - 1) == ring.reduce(big - 1)
        assert ring.coerce(-(big - 1)) == ring.reduce(-(big - 1))
        for value in (big, -big, Fraction(1, big), Fraction(big + 1, 3)):
            shown = f"{str(value)[:20]!r}... ({len(str(value))} characters)"
            with pytest.raises(ValueError, match=re.escape(
                    f"bad scalar {shown}: more than {MAX_DIGITS} digits")):
                ring.coerce(value)
    # Inverses of computed values are not bound by it, and neither is a
    # parsed literal, which its own text bounds.
    assert QQ.inv(big) == Fraction(1, big) and QQ.inv(Fraction(1, big)) == big
    assert QQ.parse("." + "9" * MAX_EXPONENT + f"e-{MAX_EXPONENT}").denominator == big


def test_ring_document_refuses_a_modulus_over_the_digit_budget():
    m = int("7" * 3000)
    with pytest.raises(ValueError, match=re.escape(
            f"bad ring document: the modulus '77777777777777777777'... (3000 characters) "
            f"has more than {MAX_DIGITS} digits")):
        RingSpec.from_doc({"kind": "Zmod", "m": m})
    m = 10 ** MAX_DIGITS - 1
    assert RingSpec.from_doc({"kind": "Zmod", "m": m}) == Zmod(m)


# Python refuses to turn an int of more than 4,300 digits into text, so a
# message that named such a number through str() raised Python's own
# set_int_max_str_digits() ValueError instead.
def test_coerce_names_a_number_past_pythons_text_limit():
    for value, shown in ((10 ** 5000, "'10000000000000000000'... (5001 characters)"),
                         (Fraction(-1, 10 ** 5000), "'-1/10000000000000000'... (5004 characters)")):
        with pytest.raises(ValueError, match=re.escape(
                f"bad scalar {shown}: more than {MAX_DIGITS} digits")):
            QQ.coerce(value)


def test_ring_document_names_a_modulus_past_pythons_text_limit():
    with pytest.raises(ValueError, match=re.escape(
            "bad ring document: the modulus '10000000000000000000'... (5001 characters) "
            f"has more than {MAX_DIGITS} digits")):
        RingSpec.from_doc({"kind": "Zmod", "m": 10 ** 5000 + 1})


def test_check_shortens_a_residue_literals_modulus(capsys, tmp_path):
    # Both moduli used to be printed whole: 2,004 bytes of stderr here.
    literal = "1 mod " + "7" * 1900
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"matrix": [[literal]], "algebra": "ring"}))
    assert main(["check", "--kind", "left-gh", "--map", str(path), "--ring", "z5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: bad map document: literal '1 mod 77777777777777'... "
                   "(1906 characters) names modulus '77777777777777777777'... "
                   "(1900 characters), ring has 5\n")
    assert len(err) < 400
    with pytest.raises(ValueError, match=re.escape(
            "literal '1 mod 5' names modulus 5, ring has '10000000000000000000'... "
            "(5001 characters)")):
        Zmod(10 ** 5000 + 1).parse("1 mod 5")


def test_parse_round_trip_zmod():
    z7 = Zmod(7)
    assert z7.parse("3 mod 7") == 3
    assert z7.parse("-2") == 5
    assert z7.parse(z7.format(6)) == 6
    with pytest.raises(ValueError):
        z7.parse("3 mod 5")  # literal names the wrong modulus
    with pytest.raises(ValueError):
        z7.parse("1/2")


def test_ring_names_and_docs():
    assert RingSpec.from_name("q") == QQ
    assert RingSpec.from_name("Z5") == Zmod(5)
    assert RingSpec.from_name("zmod:12") == Zmod(12)
    with pytest.raises(ValueError):
        RingSpec.from_name("gf9")
    for r in (QQ, Zmod(4), Zmod(7)):
        assert RingSpec.from_doc(r.to_doc()) == r


def test_a_zmod_document_without_a_modulus_names_both():
    with pytest.raises(ValueError, match=re.escape(
            "bad ring document: a Zmod ring needs its modulus 'm'")):
        RingSpec.from_doc({"kind": "Zmod"})


def test_check_names_the_missing_modulus_of_an_inline_algebra(capsys, tmp_path):
    # The message used to be "bad algebra document: 'm'", the key's repr alone.
    alg = algebra_to_doc(upper_triangular(2, Zmod(5)))
    alg["ring"] = {"kind": "Zmod"}
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"matrix": [["1", "0", "0"]] * 3, "algebra": alg}))
    assert main(["check", "--kind", "left-gh", "--map", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: bad map document: bad ring document: "
                   "a Zmod ring needs its modulus 'm'\n")


@pytest.mark.parametrize("make", [
    lambda: Zmod(None),
    lambda: Zmod(True),
    lambda: Zmod(1),
    lambda: RingSpec.from_doc({"kind": "Zmod", "m": None}),
], ids=["None", "True", "1", "document-null"])
def test_a_modulus_is_an_integer_from_2_and_never_names_q(make):
    # A RingSpec without a modulus is Q, so Zmod must refuse None rather
    # than hand back the rationals.
    with pytest.raises(ValueError, match=r"^modulus must be an integer >= 2$"):
        make()


def test_two_torsion_free_iff_odd_modulus():
    assert QQ.two_torsion_free()
    for m in range(2, 101):
        assert Zmod(m).two_torsion_free() == (m % 2 == 1)
    # The defining property itself: 2a = 0 with a nonzero needs an even m.
    z4 = Zmod(4)
    a = z4.coerce(2)
    assert z4.reduce(a + a) == 0 and a != 0


def test_is_field():
    assert QQ.is_field()
    assert Zmod(7).is_field()
    assert not Zmod(6).is_field()
    with pytest.raises(ValueError):
        Zmod(1)  # modulus below 2 is rejected outright


def test_is_prime_matches_trial_division():
    small = [p for p in range(2, 317) if all(p % q for q in range(2, p))]
    for n in range(10 ** 5):
        want = n >= 2 and all(n % p for p in small if p * p <= n)
        assert _is_prime(n) == want, n


def test_is_prime_on_pseudoprimes_and_large_moduli():
    # A strong pseudoprime to the bases 2, 3, 5 and 7, and Carmichael numbers
    # (that pseudoprime is one too).
    for n in (3215031751, 561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,
              825265, 321197185, 9746347772161):
        assert not _is_prime(n), n
    # The least strong pseudoprime to every prime base from 2 to 37; base 41
    # catches it.
    assert not _is_prime(399165290221 * 798330580441)
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 13 - 1, 1000000007):
        assert _is_prime(p), p
    # At or above the bound the answer would be a guess: refuse, even for a
    # prime such as 2^89 - 1.
    for m in (PRIME_TEST_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="cannot decide"):
            Zmod(m).is_field()


def test_solving_over_a_large_prime_modulus():
    sp = solve(upper_triangular(2, ring=Zmod(2 ** 61 - 1)), IdentityKind.JORDAN_LEFT_GH)
    assert sp.dim == 5 and verify_space(sp)


qq_values = st.fractions(max_denominator=50).map(QQ.coerce)


@given(qq_values, qq_values, qq_values)
def test_q_ring_axioms(a, b, c):
    r = QQ.reduce
    assert r(r(a + b) + c) == r(a + r(b + c))
    assert r(a + b) == r(b + a)
    assert r(r(a * b) * c) == r(a * r(b * c))
    assert r(a * r(b + c)) == r(r(a * b) + r(a * c))
    assert r(a + r(-a)) == 0


@given(st.integers(-100, 100), st.integers(-100, 100), st.integers(2, 30))
def test_zmod_matches_integer_arithmetic(x, y, m):
    r = Zmod(m)
    assert r.reduce(r.coerce(x) + r.coerce(y)) == (x + y) % m
    assert r.reduce(r.coerce(x) * r.coerce(y)) == (x * y) % m
    assert r.reduce(-r.coerce(x)) == (-x) % m


@given(st.integers(1, 6))
def test_z7_units_invert(u):
    z7 = Zmod(7)
    assert z7.reduce(u * z7.inv(u)) == 1


def test_scalar_str_is_stable():
    assert QQ.format(QQ.coerce(Fraction(10, 4))) == "5/2"
    assert Zmod(12).format(Zmod(12).coerce(25)) == "1 mod 12"


def test_only_exact_inputs_are_coerced():
    for ring in (QQ, Zmod(5)):
        for bad in (0.1, 2.0, True, False, Decimal("0.5"), None, 1j):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                ring.coerce(bad)
    assert QQ.coerce("0.1") == Fraction(1, 10)
    # Every layer that takes outside values coerces through the ring.
    t2 = upper_triangular(2)
    with pytest.raises(ValueError, match="0.5"):
        t2.element([0.5, 0, 0])
    with pytest.raises(ValueError, match="0.5"):
        t2.one().scale(0.5)
    with pytest.raises(ValueError, match="True"):
        LinMap.from_rows(t2, [[True, 0, 0], [0, 0, 0], [0, 0, 0]])


# ---------------------------------------------------------------------------
# per-document memo: RingSpec.coercer
# ---------------------------------------------------------------------------


# Each pair is an accepted value, then a rejected one that compares and
# hashes equal to it (or, for Decimal, equals its parsed value).
_LOOKALIKES = [(1, True), (0, False), (0, 0.0), (2, 2.0), ("1", Decimal(1))]


@pytest.mark.parametrize("ring", [QQ, Zmod(5)])
@pytest.mark.parametrize("good, bad", _LOOKALIKES)
def test_coercer_memo_lets_no_lookalike_through(ring, good, bad):
    coerce = ring.coercer()
    assert coerce(good) == ring.coerce(good)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        coerce(bad)
    t2 = upper_triangular(2, ring)
    # A table row and a map row that meet the good value first.
    sc = [[list(cell) for cell in row] for row in t2.sc]
    sc[0][0][1:3] = [good, bad]
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        StructureAlgebra(ring=ring, dim=3, labels=t2.labels, sc=sc, unity=t2.unity)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        LinMap.from_rows(t2, [[good, bad, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        LinMap.from_columns(t2, [[good, 0, 0], [bad, 0, 0], [0, 0, 0]])
    # A whole cell or row equal to one met before: [bad, 0, 0] after
    # [good, 0, 0] must not be handed the good vector's values.
    doc = algebra_to_doc(t2)
    doc["sc"][0][0] = [good, 0, 0]
    doc["sc"][1][0] = [bad, 0, 0]
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        algebra_from_doc(doc)
    rows = [[good, 0, 0], [bad, 0, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        map_from_doc({"matrix": rows, "algebra": "tn2"}, ring)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        triple_from_doc({"f": rows, "g": rows, "h": rows, "algebra": "tn2"}, ring)


@pytest.mark.parametrize("ring", [QQ, Zmod(5)])
def test_coercer_text_and_int_give_the_same_raw_value(ring):
    coerce = ring.coercer()
    for text, n in (("1", 1), ("0", 0), ("-3", -3), ("12", 12)):
        a, b = coerce(text), coerce(n)
        assert a == b == ring.coerce(n) and type(a) is type(b) is int
    if ring == QQ:
        assert coerce("6/4") == coerce(Fraction(3, 2)) == Fraction(3, 2)


def test_coercer_keeps_every_error_and_its_order():
    coerce = QQ.coercer()
    for _ in range(2):  # a failing value is never remembered
        with pytest.raises(ValueError, match=re.escape("bad rational literal '1/0': ")):
            coerce("1/0")
    with pytest.raises(ValueError, match="bad rational literal 'x'"):
        LinMap.from_rows(upper_triangular(2), [["0", "x", "1/0"], ["0"] * 3, ["0"] * 3])
    z5 = Zmod(5)
    msg = "literal '3 mod 7' names modulus 7, ring has 5"
    with pytest.raises(ValueError, match=re.escape(msg)):
        LinMap.from_rows(upper_triangular(2, z5),
                         [["1", "0", "0"], ["3 mod 7", "1/2", "0"], ["0"] * 3])
    with pytest.raises(ValueError, match=re.escape(msg)):
        z5.coercer()("3 mod 7")


def test_coercers_share_no_state(monkeypatch):
    calls = []
    original = RingSpec.coerce

    def counted(self, value):
        calls.append(value)
        return original(self, value)

    monkeypatch.setattr(RingSpec, "coerce", counted)
    first, second = Zmod(5).coercer(), Zmod(5).coercer()
    assert [first("7"), first("7"), first(8), first(8)] == [2, 2, 3, 3]
    assert calls == ["7", 8]
    assert second("7") == 2
    assert calls == ["7", 8, "7"]
    # Values of other types are never remembered.
    assert first(Fraction(4)) == first(Fraction(4)) == 4
    assert calls[3:] == [Fraction(4)] * 2


@pytest.mark.parametrize("ring", [QQ, Zmod(5)])
def test_vectors_are_coerced_once_and_shared(ring):
    vector = ring.vectors(2, "want 2")
    a = vector([1, "0"])
    assert a == (1, 0) and vector([1, "0"]) is a and vector((1, "0")) is a
    # Fractions are never keyed, yet give the same raw values.
    assert vector([Fraction(1), 0]) == a
    for bad in ("10", [1, 0, 0], [1], None, {"0": 1, "1": 0}):
        with pytest.raises(ValueError, match="^want 2$"):
            vector(bad)


# ---------------------------------------------------------------------------
# the raw value format every layer computes on
# ---------------------------------------------------------------------------


def assert_raw(ring, values):
    """Each value is in the ring's normal form: over Q an int, or a Fraction
    that is not a whole number (never a float, never boxed); an int in
    [0, m) over Z/mZ."""
    for v in values:
        if ring.m is None:
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1), repr(v)
        else:
            assert type(v) is int and 0 <= v < ring.m, repr(v)


@given(st.sampled_from([QQ, Zmod(2), Zmod(4), Zmod(5), Zmod(12)]), st.data())
def test_ring_results_are_normalised_raw_values(ring, data):
    inputs = (st.one_of(st.integers(-50, 50), st.fractions(max_denominator=50))
              if ring == QQ else st.integers(-50, 50))
    a, b = ring.coerce(data.draw(inputs)), ring.coerce(data.draw(inputs))
    results = [a, b, ring.reduce(a + b), ring.reduce(a - b), ring.reduce(a * b),
               ring.reduce(-a), ring.reduce(a - 7), ring.reduce(3 * b),
               ring.parse(ring.format(a))]
    for v in (a, b):
        try:
            inv = ring.inv(v)
        except NotAUnit:
            assert ring.m is not None or v == 0
        else:
            results.append(inv)
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
        assert_raw(ring, row.values())
    sp = solve(alg, kind)
    for row in sp.canonical:
        assert_raw(ring, row.values())
    for t in list(sp.basis) + triples:
        for m in (t.f, t.g, t.h):
            for row in m.mat:
                assert_raw(ring, row)
        ce = check(kind, t).counterexample
        if ce is not None:
            assert_raw(ring, ce.lhs.coords + ce.rhs.coords)


@pytest.mark.parametrize("spec", ["tn3", "quat", "poly(ring,1)"])
def test_whole_numbers_in_solver_output_are_ints(solved, spec):
    # Normalising pivot rows multiplies by Fraction inverses; whole-number
    # products of that must come back as ints.
    sp = solved(spec, IdentityKind.JORDAN_LEFT_GH)
    for row in sp.canonical:
        assert_raw(QQ, row.values())
    for t in sp.basis:
        for m in (t.f, t.g, t.h):
            for row in m.mat:
                assert_raw(QQ, row)

"""Structure-constant algebras: constructors, validation, products.

The multiplication tables built here are the ground truth everything else
rests on, so each constructor gets spot checks done by hand (matrix units,
quaternion table, truncated polynomial grading) plus a full associativity
and unity sweep via validate().
"""

import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ghderiv import algebra as algebra_mod
from ghderiv.cli import main
from ghderiv.ring import QQ, Zmod
from ghderiv.algebra import (
    MAX_DIM,
    AlgebraMismatch,
    NonFieldRing,
    StructureAlgebra,
    algebra_from_doc,
    algebra_to_doc,
    from_spec,
    full_matrix,
    is_commutative,
    jordan_product,
    quaternions,
    ring_as_algebra,
    tensor_product,
    triangle_positions,
    truncated_poly,
    upper_triangular,
    validate,
)


# ---------------------------------------------------------------------------
# constructor oracles
# ---------------------------------------------------------------------------


def test_full_matrix_products_by_hand():
    m2 = full_matrix(2)
    e11, e12, e21, e22 = (m2.basis_element(k) for k in range(4))
    assert e11 * e12 == e12
    assert e12 * e21 == e11
    assert e21 * e12 == e22
    assert e12 * e11 == m2.zero()
    assert e12 * e12 == m2.zero()
    assert m2.one() == e11 + e22
    assert m2.labels == ("e11", "e12", "e21", "e22")


def test_upper_triangular_is_the_expected_subalgebra():
    t2 = upper_triangular(2)
    e11, e12, e22 = (t2.basis_element(k) for k in range(3))
    assert e11 * e12 == e12
    assert e12 * e22 == e12
    assert e12 * e11 == t2.zero()
    assert e22 * e12 == t2.zero()
    assert t2.one() == e11 + e22
    assert triangle_positions(2) == [(0, 0), (0, 1), (1, 1)]
    assert triangle_positions(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def test_quaternion_table_by_hand():
    q = quaternions()
    one, i, j, k = (q.basis_element(t) for t in range(4))
    assert i * i == -one
    assert j * j == -one
    assert k * k == -one
    assert i * j == k
    assert j * i == -k
    assert j * k == i
    assert k * i == j
    assert i * j * k == -one
    # Anticommuting imaginaries have vanishing Jordan products.
    assert jordan_product(i, j) == q.zero()
    assert jordan_product(i, i) == (-one).scale(2)


def test_ring_as_algebra_is_rank_one():
    a = ring_as_algebra(QQ)
    assert a.dim == 1
    assert a.one() * a.one() == a.one()
    z4 = ring_as_algebra(Zmod(4))
    two = z4.element([2])
    assert (two * two).is_zero()


def test_truncated_poly_grading():
    # Basis order: all of A at degree 0, then at degree 1, ...
    base = upper_triangular(2)
    p = truncated_poly(base, 2)
    assert p.dim == 9
    d = base.dim

    def at(t, i):
        return p.basis_element(t * d + i)

    # (e11 x) (e12 x) = e12 x^2, and anything above degree 2 dies.
    assert at(1, 0) * at(1, 1) == at(2, 1)
    assert (at(1, 1) * at(2, 2)).is_zero()
    assert at(0, 0) * at(2, 1) == at(2, 1)
    assert p.one() * at(2, 2) == at(2, 2)


def test_tensor_product_structure():
    t2 = upper_triangular(2)
    dual = truncated_poly(ring_as_algebra(QQ), 1)
    p = tensor_product(t2, dual)
    assert p.dim == t2.dim * dual.dim

    def at(i, j):
        return p.basis_element(i * dual.dim + j)

    # (e11 (x) 1)(e12 (x) x) = e12 (x) x
    assert at(0, 0) * at(1, 1) == at(1, 1)
    # (e12 (x) x)(e22 (x) x) = e12 (x) x^2 = 0 in the truncation
    assert (at(1, 1) * at(2, 1)).is_zero()
    assert p.one() == at(0, 0) + at(2, 0)


def test_tensor_product_needs_q():
    z5 = ring_as_algebra(Zmod(5))
    with pytest.raises(NonFieldRing):
        tensor_product(z5, z5)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "alg",
    [
        full_matrix(2),
        full_matrix(3),
        upper_triangular(2),
        upper_triangular(3),
        upper_triangular(4),
        quaternions(),
        ring_as_algebra(QQ),
        ring_as_algebra(Zmod(4)),
        truncated_poly(upper_triangular(2), 2),
        truncated_poly(quaternions(), 1),
        tensor_product(upper_triangular(2), truncated_poly(ring_as_algebra(QQ), 1)),
        full_matrix(2, Zmod(5)),
    ],
    ids=lambda a: f"dim{a.dim}-{a.ring}",
)
def test_constructors_validate(alg):
    rep = validate(alg)
    assert rep.ok
    assert rep.assoc_failure is None
    assert rep.unity_failure is None


def test_validate_catches_tampering():
    t2 = upper_triangular(2)
    sc = [[[c for c in cell] for cell in row] for row in t2.sc]
    sc[0][1][2] = 1  # e11*e12 gains a spurious e22 component
    bad = StructureAlgebra(
        ring=t2.ring, dim=t2.dim, labels=t2.labels,
        sc=tuple(tuple(tuple(cell) for cell in row) for row in sc),
        unity=t2.unity,
    )
    rep = validate(bad)
    assert not rep.ok

    bad_unity = StructureAlgebra(
        ring=t2.ring, dim=t2.dim, labels=t2.labels, sc=t2.sc,
        unity=(1, 1, 1),
    )
    rep2 = validate(bad_unity)
    assert not rep2.ok
    assert rep2.unity_failure is not None


# ---------------------------------------------------------------------------
# validation against a dense reference, and commutativity
# ---------------------------------------------------------------------------


def _dense_mul(alg, a, b):
    """a * b read densely off ``sc``; zero coordinates of a and b add nothing."""
    d = alg.dim
    terms = [(u * w, alg.sc[p][q]) for p, u in enumerate(a) if u
             for q, w in enumerate(b) if w]
    return [alg.ring.reduce(sum(s * cell[k] for s, cell in terms)) for k in range(d)]


def dense_validate(alg):
    """validate() written densely from ``sc``: (assoc failure, unity failure)."""
    d = alg.dim
    e = [[int(k == i) for k in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if (_dense_mul(alg, _dense_mul(alg, e[i], e[j]), e[k])
                        != _dense_mul(alg, e[i], _dense_mul(alg, e[j], e[k]))):
                    return (i, j, k), None
    for i in range(d):
        if _dense_mul(alg, alg.unity, e[i]) != e[i] or _dense_mul(alg, e[i], alg.unity) != e[i]:
            return None, i
    return None, None


@st.composite
def tampered_algebra(draw):
    """A built-in table moved to Q or Z/5, with a few constants and unity
    coordinates overwritten; often no longer associative or unital.  The
    bases of dimension 6 and 9 are sparse enough that ``validate`` skips
    most basis triples."""
    base = from_spec(draw(st.sampled_from(
        ["tn2", "mn2", "quat", "poly(ring,1)",
         "tn3", "mn3", "poly(tn2,1)", "tensor(tn2,tn2)"])))
    ring = draw(st.sampled_from([QQ, Zmod(5)]))
    d = base.dim
    sc = [[list(cell) for cell in row] for row in base.sc]
    unity = list(base.unity)
    index = st.integers(0, d - 1)
    value = st.integers(-2, 2)
    for _ in range(draw(st.integers(0, 3))):
        sc[draw(index)][draw(index)][draw(index)] = draw(value)
    if draw(st.booleans()):
        unity[draw(index)] = draw(value)
    return StructureAlgebra(ring=ring, dim=d, labels=base.labels, sc=sc, unity=unity)


@settings(max_examples=150, deadline=None)
@given(tampered_algebra())
def test_validate_matches_dense_computation(alg):
    rep = validate(alg)
    want = dense_validate(alg)
    assert (rep.assoc_failure, rep.unity_failure) == want
    assert rep.ok is (want == (None, None))


def test_is_commutative():
    assert is_commutative(ring_as_algebra(QQ))
    assert is_commutative(truncated_poly(ring_as_algebra(QQ), 3))
    assert not is_commutative(upper_triangular(2))
    assert not is_commutative(full_matrix(2))
    assert not is_commutative(quaternions())


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def test_element_arithmetic():
    t2 = upper_triangular(2)
    a = t2.element([1, 2, 3])
    b = t2.element(["1/2", "0", "-3"])
    assert (a + b).coords == t2.element(["3/2", "2", "0"]).coords
    assert (a - a).is_zero()
    assert a.scale(2) == t2.element([2, 4, 6])
    assert (-b).coords == t2.element(["-1/2", "0", "3"]).coords
    # Product by distributivity: only e11e11, e12e22, e22e22 survive.
    assert a * b == t2.element(["1/2", "-6", "-9"])


@pytest.mark.parametrize("coords", ["100", "1", [1, 0], [1, 0, 0, 0], (x for x in (1, 0, 0))],
                         ids=["string", "short-string", "short", "long", "generator"])
def test_element_coordinates_must_be_an_array_of_dim_values(coords):
    # A string used to be read as its characters: "100" gave e11.
    with pytest.raises(ValueError, match=r"^expected an array of 3 coordinates$"):
        upper_triangular(2).element(coords)


def test_cross_algebra_operations_rejected():
    t2, m2 = upper_triangular(2), full_matrix(2)
    with pytest.raises(AlgebraMismatch):
        t2.basis_element(0) * m2.basis_element(0)
    with pytest.raises(AlgebraMismatch):
        t2.basis_element(0) + m2.basis_element(0)


def test_structural_equality_of_separately_built_copies():
    assert upper_triangular(3) == upper_triangular(3)
    assert full_matrix(2) != full_matrix(2, Zmod(5))
    assert upper_triangular(2) != full_matrix(2)
    # Equal algebras hash equal, so they share one set or dict entry.
    assert len({from_spec("tn2"), from_spec("tn2")}) == 1
    assert hash(tensor_product(ring_as_algebra(QQ), quaternions())) == hash(
        tensor_product(ring_as_algebra(QQ), quaternions()))


# ---------------------------------------------------------------------------
# serialization and spec strings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    ["tn2", "tn4", "mn3", "quat", "ring", "poly(ring,2)",
     "tensor(ring,ring)", "poly:tn2:1", "tensor:tn2:ring", "poly(quat,1)"],
)
def test_doc_round_trip(spec):
    a = from_spec(spec)
    b = algebra_from_doc(algebra_to_doc(a))
    assert a == b


def test_from_spec_ring_threading():
    a = from_spec("tn2", Zmod(5))
    assert a.ring == Zmod(5)
    assert from_spec("mn2").ring == QQ


def test_from_spec_rejects_garbage(capsys):
    for bad in ["tn", "tnx", "mn0", "poly(ring)", "tensor(ring)", "widget", ""]:
        with pytest.raises(ValueError):
            from_spec(bad)
    # The message names the whole spec and says what is wrong with it.
    for bad, reason in [
        ("poly(tn2,x)", "the degree 'x' is not a whole number"),
        ("poly:tn2", "poly:BASE:D needs a base algebra and a degree"),
        ("poly(tn2,1.5)", "the degree '1.5' is not a whole number"),
    ]:
        message = f"bad algebra spec {bad!r}: {reason}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_spec(bad)
        assert main(["solve", "--algebra", bad, "--kind", "left-gh"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_from_doc_strict_rejects_broken_table():
    doc = algebra_to_doc(upper_triangular(2))
    doc["sc"][0][1][2] = "1"  # corrupt one structure constant
    with pytest.raises(ValueError, match="fails validation"):
        algebra_from_doc(doc)


_SHAPE = "structure constants must be a 3 x 3 x 3 array"


@pytest.mark.parametrize("mangle, message", [
    (lambda doc: doc["sc"][1][2].append("0"), _SHAPE),
    (lambda doc: doc["sc"][1].append(["0"] * 3), _SHAPE),
    (lambda doc: doc["sc"].append([["0"] * 3] * 3), _SHAPE),
    (lambda doc: doc["sc"][1].__setitem__(2, "000"), _SHAPE),
    (lambda doc: doc["sc"][1].__setitem__(2, ["0"] * 2), _SHAPE),
    (lambda doc: doc["sc"].__setitem__(2, "000"), _SHAPE),
    (lambda doc: doc.__setitem__("unity", "100"), "unity must be an array of 3 values"),
    (lambda doc: doc.__setitem__("labels", "abc"),
     "bad algebra document: labels must be an array"),
], ids=["long-cell", "extra-cell", "extra-row", "string-cell", "short-cell",
        "string-row", "string-unity", "string-labels"])
def test_document_arrays_must_hold_exactly_dim_values(mangle, message):
    doc = algebra_to_doc(upper_triangular(2))
    mangle(doc)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        algebra_from_doc(doc)


def test_first_bad_literal_in_a_document_is_reported():
    # Constants are parsed once per distinct text, in table order, so the
    # first bad literal is the one named, as when each was parsed alone.
    doc = algebra_to_doc(upper_triangular(2))
    doc["sc"][0][1][2] = "1/0"
    doc["sc"][1][1][0] = "x"
    doc["sc"][2][2][0] = "1/0"
    with pytest.raises(ValueError, match=re.escape("bad rational literal '1/0': ")):
        algebra_from_doc(doc)
    doc = algebra_to_doc(upper_triangular(2, Zmod(5)))
    doc["sc"][0][0][1] = "3 mod 7"
    doc["sc"][0][0][2] = "1/2"
    with pytest.raises(ValueError, match=re.escape(
            "literal '3 mod 7' names modulus 7, ring has 5")):
        algebra_from_doc(doc)


# The built-in specs, over Q and, where the algebra exists there, Z/5.
BUILT_INS = [(spec, ring) for spec in (
    "ring", "tn2", "tn3", "tn4", "mn2", "mn3", "poly(tn2,2)", "poly(mn2,1)",
    "poly(ring,3)", "quat", "tensor(tn2,tn2)", "tensor(quat,ring)", "tensor(mn2,tn2)",
) for ring in (QQ, Zmod(5)) if ring == QQ or not spec.startswith(("quat", "tensor"))]


@pytest.mark.parametrize("spec, ring", BUILT_INS, ids=lambda x: str(x))
def test_sparse_build_matches_a_dense_table(monkeypatch, spec, ring):
    built = []
    build = algebra_mod._build

    def recording(ring, labels, entries, unity, dim):
        built.append((entries, dim))
        return build(ring, labels, entries, unity, dim)

    monkeypatch.setattr(algebra_mod, "_build", recording)
    alg = from_spec(spec, ring)
    entries, d = built[-1]
    assert alg.sc == tuple(
        tuple(tuple(ring.coerce(entries.get((i, j, k), 0)) for k in range(d))
              for j in range(d))
        for i in range(d))
    assert alg._pair_table == tuple(
        tuple(tuple((k, c) for k, c in enumerate(cell) if c) for cell in row)
        for row in alg.sc)
    # Equal cells are one tuple.
    cells = [cell for row in alg.sc for cell in row]
    assert len(set(map(id, cells))) == len(set(cells))


# ---------------------------------------------------------------------------
# size limit
# ---------------------------------------------------------------------------


def test_oversized_algebras_fail_before_any_table(monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(algebra_mod, "_build", no_build)
    assert MAX_DIM == 128
    for spec, dim in (("tn16", 136), ("mn12", 144)):
        with pytest.raises(ValueError, match=f"dimension {dim}, over the limit of 128"):
            from_spec(spec)
    doc = {"ring": {"kind": "Q"}, "dim": 10**9, "labels": [], "unity": [], "sc": []}
    with pytest.raises(ValueError, match="dimension 1000000000, over the limit of 128"):
        algebra_from_doc(doc)
    assert main(["solve", "--algebra", "tn", "--n", "16", "--kind", "left-gh"]) == 1
    assert "dimension 136, over the limit of 128" in capsys.readouterr().err
    # The factors of a composite spec, stood in for by their dimension alone:
    # tn15 and mn11 are under the limit, their poly and tensor forms are not.
    monkeypatch.setattr(algebra_mod, "upper_triangular",
                        lambda n, ring: SimpleNamespace(dim=n * (n + 1) // 2, ring=ring))
    monkeypatch.setattr(algebra_mod, "full_matrix",
                        lambda n, ring: SimpleNamespace(dim=n * n, ring=ring))
    for spec, dim in (("poly(tn15,1)", 240), ("tensor(mn11,mn11)", 14641)):
        with pytest.raises(ValueError, match=f"dimension {dim}, over the limit of 128"):
            from_spec(spec)


def test_sizes_past_the_int_to_text_limit_are_refused_by_name(monkeypatch):
    # Python refuses to turn an int of more than 4,300 digits into text, so
    # neither the size nor the name may be formatted before the check.
    def no_build(*args, **kwargs):
        raise AssertionError("a table was built")

    base = ring_as_algebra(QQ)
    monkeypatch.setattr(algebra_mod, "_build", no_build)
    n = 10 ** 5000
    long = lambda head, count: f"{head!r}... ({count} characters)"
    for build, want in (
        (lambda: upper_triangular(n), f"tn{long('1' + '0' * 19, 5001)} would have "
                                      f"dimension {long('5' + '0' * 19, 10000)}"),
        (lambda: full_matrix(n), f"mn{long('1' + '0' * 19, 5001)} would have "
                                 f"dimension {long('1' + '0' * 19, 10001)}"),
        (lambda: truncated_poly(base, n),
         f"a degree-{long('1' + '0' * 19, 5001)} polynomial algebra over dimension 1 "
         f"would have dimension {long('1' + '0' * 19, 5001)}"),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == f"{want}, over the limit of {MAX_DIM}"


def test_algebra_document_dim_is_a_json_integer_from_1_to_max_dim():
    doc = algebra_to_doc(upper_triangular(2))
    for bad in ("3", 0, -1, None, [3], "1" * 5000):
        shown = "'11111111111111111111'... (5000 characters)" if bad == "1" * 5000 else repr(bad)
        with pytest.raises(ValueError, match=re.escape(
                f"bad algebra document: dim {shown} is not an integer from 1 to {MAX_DIM}")):
            algebra_from_doc({**doc, "dim": bad})
    with pytest.raises(ValueError, match=re.escape(
            "the algebra document would have dimension '77777777777777777777'... "
            f"(3000 characters), over the limit of {MAX_DIM}")):
        algebra_from_doc({**doc, "dim": int("7" * 3000)})
    # With empty tables, dim 0 used to load as a 0-dimensional algebra.
    empty = {"ring": {"kind": "Q"}, "dim": 0, "labels": [], "unity": [], "sc": []}
    with pytest.raises(ValueError, match="dim 0 is not an integer from 1 to"):
        algebra_from_doc(empty)
    assert algebra_from_doc(doc) == upper_triangular(2)


def test_an_algebra_of_dimension_max_dim_is_built(monkeypatch):
    base = ring_as_algebra(QQ)
    built = []
    monkeypatch.setattr(algebra_mod, "_build", lambda *args: built.append(args[-1]))
    truncated_poly(base, MAX_DIM - 1)
    assert built == [MAX_DIM]
    with pytest.raises(ValueError, match="dimension 129, over the limit of 128"):
        truncated_poly(base, MAX_DIM)

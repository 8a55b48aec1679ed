"""The bundled results catalog: registry hygiene, the full run, determinism."""

import pytest

from ghderiv import catalog
from ghderiv.catalog import (
    CatalogEntry,
    CheckFailed,
    Context,
    entries,
    q_pair_algebra,
    require,
    run_catalog,
    traceability_table,
    worked_cases,
)
from ghderiv.algebra import is_commutative, validate
from ghderiv.linmap import LinMap, MapTriple, poly_lift_triple
from ghderiv.identities import IdentityKind
from ghderiv.ring import QQ

from test_solver import twisted

EXPECTED_CASE_IDS = {
    "case-z4-doubling",
    "case-t2-left-not-two-sided",
    "case-t2-two-sided-not-left",
    "case-t2-jordan-not-left",
    "case-t2-left-nonzero",
    "case-t2-jordan-not-centralizer",
    "case-m2-jordan-not-left",
    "case-m2-jordan-not-centralizer",
    "case-quat-doubling",
    "case-quat-right-not-left-centralizer",
}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_is_well_formed():
    es = entries()
    ids = [e.id for e in es]
    assert len(ids) == len(set(ids)) == 52
    for e in es:
        assert e.title and e.claim
        assert e.origin in ("formula", "elementary", "recomputed")
        assert callable(e.run)
    assert sum(1 for e in es if e.note_only) == 1


def test_registry_contains_the_worked_cases():
    ids = {e.id for e in entries()}
    assert EXPECTED_CASE_IDS <= ids


# ---------------------------------------------------------------------------
# the full run
# ---------------------------------------------------------------------------


def test_full_catalog_passes(catalog_report):
    assert catalog_report.ok
    assert catalog_report.counts() == {"pass": 51, "note": 1}
    bad = [r.id for r in catalog_report.results if r.status == "fail"]
    assert bad == []


# The entries that check what a basis change does not keep, each with why.
BASIS_BOUND = {
    **{cid: "its matrices are frozen in the standard basis"
       for cid in EXPECTED_CASE_IDS - {"case-z4-doubling"}},
    "decompose-one-sided-t2": "its matrices are frozen in the standard basis",
    **{f"dim-tri-{kind}-{n}": "its family comes from matrix positions"
       for kind in ("jordan", "left") for n in (2, 3, 4)},
}


class TwistedContext(Context):
    """Every algebra in a re-based copy, except where ``twisted`` cannot
    re-base it: over Z/4 (det P = 2 is no unit) or below dimension 3."""

    def alg(self, spec, ring=QQ):
        key = ("twisted", spec, ring)
        if key not in self._algebras:
            a = super().alg(spec, ring)
            self._algebras[key] = a if ring.m == 4 or a.dim < 3 else twisted(a)
        return self._algebras[key]


def test_basis_free_claims_hold_in_a_twisted_basis(monkeypatch):
    monkeypatch.setattr(catalog, "Context", TwistedContext)
    report = run_catalog()
    by_status = {}
    for r in report.results:
        by_status.setdefault(r.status, set()).add(r.id)
    assert by_status["fail"] == set(BASIS_BOUND)
    assert by_status["note"] == {"note-doubled-substitution"}
    assert len(by_status["pass"]) == 35
    assert set(by_status) == {"pass", "fail", "note"}


def test_results_sorted_and_complete(catalog_report):
    got = [r.id for r in catalog_report.results]
    assert got == sorted(got)
    assert set(got) == {e.id for e in entries()}


def test_note_entry_reports_both_outcomes(catalog_report):
    (note,) = [r for r in catalog_report.results if r.status == "note"]
    assert note.id == "note-doubled-substitution"
    # The audit answers no on the triangular case and yes on the zero triple.
    assert "False" in note.detail
    assert "True" in note.detail


def test_report_document_shape(catalog_report):
    doc = catalog_report.to_doc()
    assert doc["ok"] is True
    assert doc["counts"] == {"pass": 51, "note": 1}
    assert len(doc["entries"]) == 52
    for row in doc["entries"]:
        assert set(row) == {"id", "title", "origin", "status", "detail", "seconds"}
        assert isinstance(row["seconds"], float)


def test_every_detail_is_informative(catalog_report):
    for r in catalog_report.results:
        assert r.detail.strip(), f"{r.id} has an empty detail line"


def test_polylift_names_the_dimension_it_checks(catalog_report):
    details = {r.id: r.detail for r in catalog_report.results}
    dims = {"tn2": (5, 4), "mn2": (4, 0), "quat": (4, 0)}
    for spec, (two_sided, one_sided) in dims.items():
        for kind, dim in (("jordan-left-gh", two_sided), ("left-gh", one_sided)):
            detail = details[f"polylift-{spec}-{kind}"]
            if dim:
                assert detail.startswith(f"{dim} basis triples lifted to degree 3 stay solutions")
            else:
                assert detail.startswith("the space has dimension 0: nothing needs lifting")


def test_polylift_catches_a_lift_that_drops_f_above_degree_0(monkeypatch):
    # The basis check is not vacuous: with f's columns written into degree 0
    # only, every nonzero space fails, and a zero space has nothing to lift.
    def degree_0_f(t, degree):
        lifted = poly_lift_triple(t, degree)
        d, p = t.alg.dim, lifted.alg
        cols = [lifted.f.column(i) if i < d else [0] * p.dim for i in range(p.dim)]
        return MapTriple(LinMap.from_columns(p, cols), lifted.g, lifted.h)

    monkeypatch.setattr(catalog, "poly_lift_triple", degree_0_f)
    status = {r.id: r.status for r in run_catalog("polylift-").results}
    assert status == {
        "polylift-mn2-jordan-left-gh": "fail",
        "polylift-mn2-left-gh": "pass",
        "polylift-quat-jordan-left-gh": "fail",
        "polylift-quat-left-gh": "pass",
        "polylift-tn2-jordan-left-gh": "fail",
        "polylift-tn2-left-gh": "fail",
    }


# ---------------------------------------------------------------------------
# filtering and determinism
# ---------------------------------------------------------------------------


def test_filtering_by_substring():
    rep = run_catalog("modfive")
    assert [r.id for r in rep.results] == [
        "modfive-full-2",
        "modfive-tri-2",
        "modfive-tri-3",
    ]
    assert rep.ok


def test_filter_with_no_match_is_empty():
    rep = run_catalog("no-such-entry")
    assert rep.results == []
    assert rep.ok  # vacuously


def _strip_seconds(doc):
    return [{k: v for k, v in row.items() if k != "seconds"}
            for row in doc["entries"]]


def test_repeated_runs_are_identical_up_to_timing():
    a = run_catalog("polylift-tn2").to_doc()
    b = run_catalog("polylift-tn2").to_doc()
    assert _strip_seconds(a) == _strip_seconds(b)
    assert a["counts"] == b["counts"] == {"pass": 2}


# ---------------------------------------------------------------------------
# failure handling
# ---------------------------------------------------------------------------


def test_require_raises_check_failed():
    require(True, "fine")
    with pytest.raises(CheckFailed):
        require(False, "broken")
    assert issubclass(CheckFailed, AssertionError)


def test_failing_entries_are_reported_not_raised(monkeypatch):
    def boom(ctx):
        raise CheckFailed("the claim is false")

    def crash(ctx):
        raise ZeroDivisionError("bug in the runner")

    fake = [
        CatalogEntry("zz-bad", "bad", "claim", "elementary", boom),
        CatalogEntry("zz-crash", "crash", "claim", "elementary", crash),
        CatalogEntry("zz-noted", "noted", "claim", "recomputed", boom,
                     note_only=True),
    ]
    monkeypatch.setattr(catalog, "entries", lambda: fake)
    rep = run_catalog()
    by_id = {r.id: r for r in rep.results}
    assert by_id["zz-bad"].status == "fail"
    assert by_id["zz-bad"].detail == "the claim is false"
    assert by_id["zz-crash"].status == "fail"
    assert "ZeroDivisionError" in by_id["zz-crash"].detail
    # A note-only entry can never fail the suite.
    assert by_id["zz-noted"].status == "note"
    assert not rep.ok


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_worked_cases_are_triples():
    cases = worked_cases()
    assert set(cases) == EXPECTED_CASE_IDS
    # Derived from the registry: the witnessed entries, in registry order.
    assert list(cases) == [e.id for e in entries() if e.witness is not None]
    for t in cases.values():
        assert isinstance(t, MapTriple)


def test_each_case_witness_matches_worked_cases():
    ctx = Context()
    cases = worked_cases(ctx)
    for e in entries():
        if e.witness is not None:
            assert e.witness(ctx) == cases[e.id]


def test_context_memoizes():
    ctx = Context()
    assert ctx.alg("tn2") is ctx.alg("tn2")
    a = ctx.alg("tn2")
    s1 = ctx.space(a, IdentityKind.LEFT_GH)
    s2 = ctx.space(a, IdentityKind.LEFT_GH)
    assert s1 is s2


def test_q_pair_algebra_structure():
    a = q_pair_algebra()
    assert validate(a).ok
    assert is_commutative(a)
    u, v = a.basis_element(0), a.basis_element(1)
    assert u * u == u and v * v == v
    assert (u * v).is_zero()
    assert a.one() == u + v


def test_traceability_table_lists_everything(catalog_report):
    table = traceability_table(catalog_report)
    lines = table.splitlines()
    assert lines[0].startswith("| entry |")
    for e in entries():
        assert any(f"| {e.id} |" in ln or ln.startswith(f"| {e.id} ")
                   for ln in lines), f"{e.id} missing from the table"

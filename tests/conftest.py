import pytest

import ghderiv as G

# Every built-in algebra the property suites quantify over.
ALGEBRA_SPECS = ("tn2", "tn3", "tn4", "mn2", "mn3", "quat", "ring", "poly(ring,1)")


@pytest.fixture(scope="session")
def algebras():
    return {s: G.from_spec(s) for s in ALGEBRA_SPECS}


@pytest.fixture(scope="session")
def solved():
    """Memoized solve-and-certify: every space handed out passed verify_space.

    A thin wrapper over one catalog.Context; ``solved.cache`` holds every
    certified space.  ``spec`` is a spec string, built over ``ring``, or
    an algebra.
    """
    from ghderiv import catalog

    ctx = catalog.Context()

    def get(spec, kind, constraints=None, ring=G.QQ):
        alg = spec if isinstance(spec, G.StructureAlgebra) else ctx.alg(spec, ring)
        return ctx.space(alg, kind, constraints)

    get.cache = ctx.spaces
    return get


@pytest.fixture(scope="session")
def catalog_report():
    from ghderiv import catalog

    return catalog.run_catalog()

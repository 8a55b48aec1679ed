"""Exact checkers, solvers and a results catalog for product-rule
identities (derivation-like and centralizer-like) on finite dimensional
structure-constant algebras over Q and Z/mZ."""

from .ring import (
    QQ,
    CompositeModulusUnsupported,
    NotAUnit,
    RingMismatch,
    RingSpec,
    Zmod,
)
from .algebra import (
    AlgebraMismatch,
    AlgElement,
    NonFieldRing,
    StructureAlgebra,
    ValidationReport,
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
from .linmap import (
    BadParameterCount,
    LinMap,
    MapTriple,
    left_mul_map,
    map_from_doc,
    map_to_doc,
    mn_jordan_family,
    poly_lift_triple,
    quat_jordan_family,
    right_mul_map,
    tensor_extend_triple,
    tn_jordan_family,
    tn_left_family,
    triple_from_doc,
    triple_to_doc,
)
from .identities import (
    CheckReport,
    Counterexample,
    IdentityKind,
    LeftGHDecomposition,
    PreconditionFailed,
    audit_doubled_substitution,
    check,
    decompose_left_gh,
    identity_sides,
)
from .solver import (
    Constraints,
    LinearSystem,
    SolutionSpace,
    build_system,
    canonical_span,
    gh_collapse,
    nullspace,
    project_gh_injectivity,
    row_to_triple,
    solve,
    space_contains,
    space_equal,
    space_member,
    triple_to_row,
    verify_space,
)
from .catalog import RunReport, entries, run_catalog, worked_cases

__version__ = "0.1.0"

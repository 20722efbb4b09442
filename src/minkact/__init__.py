"""Exact-arithmetic tools for isometry group actions on Minkowski 4-space.

The package models the Lie algebra of the isometry group of R^{3,1} over the
rationals, decides closure and conjugacy questions exactly, and carries a
catalog of every connected group acting with cohomogeneity one, together with
machine-checkable evidence (orbit stratifications, properness certificates
and refutations, orbit-space invariants).  See the ``minkact`` command line
for the verifier.
"""

from .algebra import (
    AlgebraElement,
    GENERATOR_ORDER,
    NotClosedError,
    adjoint,
    bracket,
    cartan_involution,
    coords10,
    element,
    fundamental_field,
    lift_constraints,
    standard_generator,
)
from .catalog import (
    CatalogEntry,
    CatalogReport,
    MatchResult,
    VerificationReport,
    builtin_catalog,
    catalog,
    entry_by_id,
    match_catalog,
    nonproperness_witness,
    verify_all,
    verify_entry,
)
from .group import (
    Isometry,
    NumericIsometry,
    compose,
    exp_element,
    invert,
    lorentz_ok,
    translation,
)
from .linalg import CausalClass, CausalKind, causal_type, frac, mink_inner, vec4
from .orbits import (
    ExpInvariant,
    OrbitSpaceKind,
    OrbitSpaceSpec,
    Poly,
    cohomogeneity,
    invariant_function_check,
    orbit_dimension,
    orbit_space_report,
    sample_points,
)
from .properness import (
    check_witness,
    clock_certificate,
    fixed_point_nonproper_certificate,
    fixed_point_witness,
    nilpotent_pair_witness,
    parameter_recovery_check,
    recover_element,
)
from .subalgebra import (
    NotClosed,
    OneParamType,
    Subalgebra,
    SubalgebraInvariants,
    closure_check,
    invariants,
    normalize_translations,
    one_param_type,
    require_closed,
)

__version__ = "1.0.0"

__all__ = [
    "AlgebraElement",
    "CatalogEntry",
    "CatalogReport",
    "CausalClass",
    "CausalKind",
    "ExpInvariant",
    "GENERATOR_ORDER",
    "Isometry",
    "MatchResult",
    "NotClosed",
    "NotClosedError",
    "NumericIsometry",
    "OneParamType",
    "OrbitSpaceKind",
    "OrbitSpaceSpec",
    "Poly",
    "Subalgebra",
    "SubalgebraInvariants",
    "VerificationReport",
    "adjoint",
    "bracket",
    "builtin_catalog",
    "cartan_involution",
    "catalog",
    "causal_type",
    "check_witness",
    "closure_check",
    "cohomogeneity",
    "clock_certificate",
    "compose",
    "coords10",
    "element",
    "entry_by_id",
    "exp_element",
    "fixed_point_nonproper_certificate",
    "fixed_point_witness",
    "frac",
    "fundamental_field",
    "invariant_function_check",
    "invariants",
    "invert",
    "lift_constraints",
    "lorentz_ok",
    "match_catalog",
    "mink_inner",
    "nilpotent_pair_witness",
    "nonproperness_witness",
    "normalize_translations",
    "one_param_type",
    "orbit_dimension",
    "orbit_space_report",
    "parameter_recovery_check",
    "recover_element",
    "require_closed",
    "sample_points",
    "standard_generator",
    "translation",
    "vec4",
    "verify_all",
    "verify_entry",
]

"""Exact-arithmetic tools for isometry group actions on Minkowski 4-space.

The package models the Lie algebra of the isometry group of R^{3,1} over the
rationals, decides closure and conjugacy questions exactly, and carries a
catalog of every connected group acting with cohomogeneity one, together with
machine-checkable evidence (orbit stratifications, properness certificates
and refutations, orbit-space invariants).  See the ``minkact`` command line
for the verifier.
"""

import types

from .algebra import (
    AlgebraElement,
    GENERATOR_ORDER,
    NotClosedError,
    adjoint,
    bracket,
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
    compose,
    exp_element,
    exp_map,
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
    orbit_space_spec,
)
from .properness import (
    check_witness,
    clock_certificate,
    fixed_point_nonproper_certificate,
    fixed_point_witness,
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

# every public name imported above, so that the exports are listed once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))

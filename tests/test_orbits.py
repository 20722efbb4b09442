"""Orbit dimensions, invariant certification, and orbit-space evidence."""

from fractions import Fraction

import pytest

from minkact.algebra import standard_generator
from minkact.linalg import CausalKind, vec4
from minkact.orbits import (
    EvidenceFailedError,
    ExpInvariant,
    NotInvariantError,
    OrbitSpaceKind,
    OrbitSpaceSpec,
    Poly,
    cohomogeneity,
    invariant_function_check,
    lie_derivative,
    orbit_dimension,
    orbit_space_report,
    sample_points,
)
from minkact.subalgebra import require_closed

YK1 = standard_generator("Yk1")
YA = standard_generator("Ya")
YN1 = standard_generator("Yn1")
YN2 = standard_generator("Yn2")
E1 = standard_generator("e1")
E2 = standard_generator("e2")
E3 = standard_generator("e3")
E4 = standard_generator("e4")
ELL = E3 - E4

P1, P2, P3, P4 = (Poly.var(k) for k in range(4))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_poly_arithmetic():
    f = (P1 + P2) * (P1 + P2)
    assert f == P1 * P1 + (P1 * P2).scale(2) + P2 * P2
    assert (f - f).is_zero()


def test_poly_diff_and_eval():
    f = P1 * P1 * P4 + P3.scale(-2)
    assert f.diff(0) == (P1 * P4).scale(2)
    assert f.diff(3) == P1 * P1
    assert f.eval((2, 0, 1, 3)) == 10


def test_poly_nonzero_point():
    f = P1 * P2 - Poly.const(6)
    p = f.nonzero_point()
    assert f.eval(p) != 0
    assert Poly().nonzero_point() is None


def test_covector_form():
    f = Poly.covector((1, 0, -1, 2))
    assert f.eval((5, 7, 3, 1)) == 5 - 3 + 2


def test_lie_derivative_of_radius_under_rotation_vanishes():
    assert lie_derivative(P1 * P1 + P2 * P2, YK1).is_zero()
    assert lie_derivative(P1, YK1) == P2


# ---------------------------------------------------------------------------
# orbit dimension
# ---------------------------------------------------------------------------


def test_rotation_with_null_rotations_has_two_dim_orbit():
    h = require_closed((YK1, YN1, YN2))
    rep = orbit_dimension(h, (1, 2, 3, 5))
    # the three fields at this point satisfy one linear relation
    assert rep.dim == 2
    assert rep.point == (1, 2, 3, 5)
    assert len(rep.tangent_basis) == 2


def test_orbit_dimension_at_fixed_point_is_zero():
    h = require_closed((YK1, YA))
    rep = orbit_dimension(h, (0, 0, 0, 0))
    assert rep.dim == 0


def test_translation_orbit_is_everywhere_three_dim_spacelike():
    h = require_closed((E1, E2, E3))
    rep = orbit_dimension(h, (7, -2, Fraction(1, 3), 9))
    assert rep.dim == 3
    assert rep.causal.kind is CausalKind.SPACELIKE


# ---------------------------------------------------------------------------
# invariant certification
# ---------------------------------------------------------------------------


def test_planar_radius_is_invariant_for_rotation_cylinder():
    h = require_closed((YK1, E3, E4))
    cert = invariant_function_check(h, P1 * P1 + P2 * P2)
    assert cert.n_elements == 3


def test_spatial_radius_is_invariant_for_rotation_group():
    h = require_closed((standard_generator("Yk1"),
                        standard_generator("Yk2"),
                        standard_generator("Yk3"),
                        E4))
    invariant_function_check(h, P1 * P1 + P2 * P2 + P3 * P3)


def test_non_invariant_raises_with_witness():
    h = require_closed((E1, E2, E3))
    with pytest.raises(NotInvariantError) as err:
        invariant_function_check(h, P1)
    assert err.value.element_index == 0
    assert err.value.value == 1
    assert err.value.derivative == Poly.const(1)


def test_exp_invariant_certifies_drifting_boost():
    lam = Fraction(5, 2)
    h = require_closed((YA + E1.scaled(lam), E2, ELL))
    inv = ExpInvariant(level_cov=(0, 0, 1, 1), exp_cov=(1, 0, 0, 0), scale=lam)
    cert = inv.certify(h)
    assert cert.n_elements == 3
    assert inv.value_exact((0, 9, 2, 3)) == 5
    with pytest.raises(ValueError):
        inv.value_exact((1, 0, 0, 0))  # exponent does not vanish here


def test_exp_invariant_rejects_wrong_scale():
    h = require_closed((YA + E1.scaled(2), E2, ELL))
    inv = ExpInvariant(level_cov=(0, 0, 1, 1), exp_cov=(1, 0, 0, 0), scale=Fraction(3))
    with pytest.raises(NotInvariantError):
        inv.certify(h)


# ---------------------------------------------------------------------------
# cohomogeneity sampling
# ---------------------------------------------------------------------------


def test_sample_points_deterministic_and_bounded():
    pts = sample_points(42, 8)
    assert pts == sample_points(42, 8)
    assert len(pts) == 8
    assert all(abs(x) <= 10 for p in pts for x in p)
    assert pts != sample_points(43, 8)


def test_cohomogeneity_of_rotation_boost_null_group():
    h = require_closed((YK1, YA, YN1, YN2))
    rep = cohomogeneity(h, extra_points=((0, 0, 0, 0), (0, 0, 1, -1)))
    assert rep.max_orbit_dim == 3
    assert rep.cohomogeneity == 1
    assert rep.observed_dims() == (3, 1, 0)


def test_cohomogeneity_strata_record_every_point():
    h = require_closed((E1, E2))
    rep = cohomogeneity(h, samples=5)
    assert len(rep.strata) == 5
    assert rep.observed_dims() == (2,)
    assert rep.cohomogeneity == 2


def test_empty_survey_reports_cohomogeneity_four():
    rep = cohomogeneity(require_closed((E1, E2)), samples=0)
    assert rep.strata == ()
    assert rep.max_orbit_dim == 0
    assert rep.cohomogeneity == 4


# ---------------------------------------------------------------------------
# orbit-space evidence
# ---------------------------------------------------------------------------


def test_line_evidence_for_spacelike_translations():
    h = require_closed((E1, E2, E3))
    spec = OrbitSpaceSpec(
        kind=OrbitSpaceKind.LINE,
        invariant=P4,
        transversal=(vec4(0, 0, 0, 0), vec4(0, 0, 0, 1), vec4(0, 0, 0, -3)),
    )
    rep = orbit_space_report(h, spec, cohomogeneity(h))
    assert rep.kind is OrbitSpaceKind.LINE
    assert rep.singular is None
    assert any("polynomial identity" in n for n in rep.notes)


def test_halfline_evidence_for_rotation_cylinder():
    h = require_closed((YK1, E3, E4))
    spec = OrbitSpaceSpec(
        kind=OrbitSpaceKind.HALFLINE,
        invariant=P1 * P1 + P2 * P2,
        transversal=(vec4(0, 0, 0, 0), vec4(1, 0, 0, 0), vec4(2, 0, 0, 0)),
        singular=(2, CausalKind.LORENTZIAN),
        singular_witnesses=(vec4(0, 0, 0, 0), vec4(0, 0, 5, -1)),
    )
    rep = orbit_space_report(h, spec, cohomogeneity(h))
    assert rep.kind is OrbitSpaceKind.HALFLINE
    assert rep.singular == (2, CausalKind.LORENTZIAN)
    assert any("singular orbit verified" in n for n in rep.notes)


def test_duplicate_transversal_levels_fail():
    h = require_closed((E1, E2, E3))
    spec = OrbitSpaceSpec(
        kind=OrbitSpaceKind.LINE,
        invariant=P4,
        transversal=(vec4(0, 0, 0, 1), vec4(5, 5, 5, 1)),
    )
    with pytest.raises(EvidenceFailedError):
        orbit_space_report(h, spec, cohomogeneity(h))


def test_wrong_singular_class_fails():
    h = require_closed((YK1, E3, E4))
    spec = OrbitSpaceSpec(
        kind=OrbitSpaceKind.HALFLINE,
        invariant=P1 * P1 + P2 * P2,
        transversal=(vec4(0, 0, 0, 0), vec4(1, 0, 0, 0)),
        singular=(2, CausalKind.SPACELIKE),  # really Lorentzian
        singular_witnesses=(vec4(0, 0, 0, 0),),
    )
    with pytest.raises(EvidenceFailedError):
        orbit_space_report(h, spec, cohomogeneity(h))


def test_transversal_missing_boundary_fails():
    h = require_closed((YK1, E3, E4))
    spec = OrbitSpaceSpec(
        kind=OrbitSpaceKind.HALFLINE,
        invariant=P1 * P1 + P2 * P2,
        transversal=(vec4(1, 0, 0, 0), vec4(2, 0, 0, 0)),
        singular=(2, CausalKind.LORENTZIAN),
        singular_witnesses=(vec4(0, 0, 0, 0),),
    )
    with pytest.raises(EvidenceFailedError):
        orbit_space_report(h, spec, cohomogeneity(h))

"""Orbit dimensions, invariant certification, and orbit-space evidence."""

import importlib
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkact.algebra import (
    AlgebraElement,
    adjoint,
    fundamental_field,
    linear_from_coords,
    standard_generator,
)
from minkact.catalog import catalog, entry_by_id
from minkact.group import act, cayley_so3, compose, rational_boost_34, translation
from minkact.linalg import (CausalKind, causal_type, echelon_basis, integral, matvec, rank_of,
                            vec4)
from minkact.orbits import (
    EvidenceFailedError,
    ExpInvariant,
    NotInvariantError,
    OrbitSpaceKind,
    OrbitSpaceSpec,
    Poly,
    QuadraticPoint,
    cohomogeneity,
    generic_orbit_dimension,
    invariant_function_check,
    killing_matrix,
    lie_derivative,
    orbit_dimension,
    orbit_space_report,
    orbit_space_spec,
    quadratic_point,
)
from minkact.subalgebra import Subalgebra, closure_check, require_closed

ORBITS_MODULE = importlib.import_module("minkact.orbits")

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


def test_cached_orbit_report_cannot_be_assigned():
    # orbit_dimension hands out the report it caches, so a write would change
    # every later answer for that subalgebra and point
    entry = entry_by_id("T2:SO2xR11")
    h = require_closed(entry.build(entry.defaults[0]))
    rep = orbit_dimension(h, (1, 2, 3, 5))
    for name, value in (("dim", 0), ("point", (0, 0, 0, 0)), ("causal", None)):
        with pytest.raises(AttributeError):
            setattr(rep, name, value)
    again = orbit_dimension(h, (1, 2, 3, 5))
    assert again is rep
    assert (again.dim, again.point) == (3, (1, 2, 3, 5))
    assert again.causal.kind is CausalKind.LORENTZIAN


def fraction_path_report(basis, p):
    """The Fraction route: fields, then echelon_basis, then causal_type; as
    the (point, dim, tangent_basis, causal) that :func:`report_fields` reads."""
    p = tuple(Fraction(x) for x in p)
    tangent = echelon_basis([fundamental_field(b, p) for b in basis])
    return p, len(tangent), tuple(tangent), causal_type(tangent)


def report_fields(rep):
    return rep.point, rep.dim, rep.tangent_basis, rep.causal


big_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=10**6)
# many zeros: sparse generators, fixed points, rank drops
entries = st.just(Fraction(0)) | st.integers(-3, 3).map(Fraction) | big_rationals


@st.composite
def killing_bases(draw):
    """1-6 random elements of the isometry algebra, some of them dependent."""
    basis = []
    for _ in range(draw(st.integers(1, 6))):
        if basis and draw(st.booleans()):
            b1, b2 = draw(st.sampled_from(basis)), draw(st.sampled_from(basis))
            basis.append(b1.scaled(draw(entries)) + b2.scaled(draw(entries)))
        else:
            coords = draw(st.lists(entries, min_size=6, max_size=6))
            trans = draw(st.lists(entries, min_size=4, max_size=4))
            basis.append(AlgebraElement(linear_from_coords(coords), vec4(*trans)))
    return basis


points = st.just((0, 0, 0, 0)) | st.lists(entries, min_size=4, max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(killing_bases(), points, st.integers(0, 10**6))
@example([YK1, YN1, YN2], (1, 2, 3, 5), 42)
@example([YK1, YA], (0, 0, 0, 0), 42)
@example([E3 - E4, E3.scaled(Fraction(1, 999999)) - E4.scaled(Fraction(1, 999999))],
         (Fraction(1, 10**6), 0, 0, 0), 866494)
def test_orbit_dimension_matches_the_fraction_path(basis, p, seed):
    # orbit_dimension and the survey read only the basis, so a non-closed one serves here
    h = Subalgebra(tuple(basis), {})
    rep = orbit_dimension(h, p)
    assert report_fields(rep) == fraction_path_report(basis, p)
    assert all(type(x) is Fraction for row in rep.tangent_basis for x in row)
    survey = cohomogeneity(h, seed=seed, samples=4)
    assert [s.point for s in survey.strata] == list(ORBITS_MODULE._samples(seed, 4)[0])
    for s in survey.strata:
        assert report_fields(s) == fraction_path_report(basis, s.point)


def test_conjugates_build_their_own_killing_rows():
    h = require_closed((YA + E1.scaled(Fraction(5, 2)), E2, ELL))
    p = (Fraction(1, 3), 2, Fraction(-5, 7), 1)
    assert report_fields(orbit_dimension(h, p)) == fraction_path_report(h.basis, p)
    assert "killing_rows" in vars(h)
    g = compose(translation(vec4(1, Fraction(-1, 2), 3, 0)),
                compose(cayley_so3(1, Fraction(1, 2), 0), rational_boost_34(Fraction(1, 3))))
    conj = Subalgebra(tuple(adjoint(g, b) for b in h.basis), h.structure)
    assert "killing_rows" not in vars(conj)
    assert conj.killing_rows != h.killing_rows
    assert conj.killing_rows == tuple(
        integral([(*row, t) for row, t in zip(b.linear, b.trans)])[0] for b in conj.basis)
    assert report_fields(orbit_dimension(conj, p)) == fraction_path_report(conj.basis, p)


# ---------------------------------------------------------------------------
# invariant certification
# ---------------------------------------------------------------------------


def test_planar_radius_is_invariant_for_rotation_cylinder():
    h = require_closed((YK1, E3, E4))
    assert invariant_function_check(h, P1 * P1 + P2 * P2) is None


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
    assert invariant_function_check(h, inv) is None
    assert inv.eval((0, 9, 2, 3)) == 5
    with pytest.raises(ValueError):
        inv.eval((1, 0, 0, 0))  # exponent does not vanish here


def test_exp_invariant_rejects_wrong_scale():
    h = require_closed((YA + E1.scaled(2), E2, ELL))
    inv = ExpInvariant(level_cov=(0, 0, 1, 1), exp_cov=(1, 0, 0, 0), scale=Fraction(3))
    with pytest.raises(NotInvariantError):
        invariant_function_check(h, inv)


# ---------------------------------------------------------------------------
# cohomogeneity sampling
# ---------------------------------------------------------------------------


def test_sample_points_deterministic_and_bounded():
    def sample_points(seed, n):
        return ORBITS_MODULE._samples(seed, n)[0]

    pts = sample_points(42, 8)
    assert pts == sample_points(42, 8)
    assert len(pts) == 8
    assert all(abs(x) <= 10 for p in pts for x in p)
    assert pts != sample_points(43, 8)
    # drawn once and shared by every survey, so callers get immutable tuples
    assert pts is sample_points(42, 8)
    assert type(pts) is tuple and all(type(p) is tuple for p in pts)
    assert pts[:3] == sample_points(42, 3)


def test_survey_ranks_without_causal_classes(monkeypatch):
    entry = entry_by_id("T4:K1AN")
    h = require_closed(entry.build(entry.defaults[0]))
    calls = []
    real = ORBITS_MODULE.causal_class
    monkeypatch.setattr(ORBITS_MODULE, "causal_class", lambda rows: calls.append(rows) or real(rows))
    rep = cohomogeneity(h)
    assert len(rep.strata) == 32 and calls == []
    # the first read derives a report's causal class, later reads reuse it
    assert [s.causal for s in rep.strata] == [s.causal for s in rep.strata]
    assert len(calls) == 32


@pytest.mark.parametrize("seed", [42, 866494])
def test_survey_reports_derive_what_orbit_dimension_computes(seed):
    insts = [(entry, closure_check(entry.build(params)))
             for entry in catalog() for params in entry.defaults]
    insts = [(entry, h) for entry, h in insts if isinstance(h, Subalgebra)]
    assert len(insts) == 34
    for entry, h in insts:
        for rep in cohomogeneity(h, seed=seed).strata:
            got = rep.dim, rep.tangent_basis, rep.causal
            want = orbit_dimension(h, rep.point)
            assert got == (want.dim, want.tangent_basis, want.causal), entry.entry_id


# translation (1,2,3,5) after a rotation and a boost: moves the translation
# ideal off the coordinate axes, so its echelon rows carry fractions
CONJUGATOR = compose(translation(vec4(1, 2, 3, 5)),
                     compose(cayley_so3(Fraction(1, 2), Fraction(1, 3), Fraction(-1, 5)),
                             rational_boost_34(Fraction(1, 3))))


def _moved(g, p):
    """p under the isometry g, for a rational or a quadratic point."""
    if isinstance(p, QuadraticPoint):
        return QuadraticPoint(act(g, p.rational), matvec(g.V, p.surd), p.d)
    return act(g, p)


def _surveyed_instantiations():
    """Every closed catalog default and its CONJUGATOR conjugate, with the
    declared stratum points moved along."""
    for entry in catalog():
        for i, params in enumerate(entry.defaults):
            h = closure_check(entry.build(params))
            if isinstance(h, Subalgebra):
                points = entry.stratum_points(params)
                yield pytest.param(entry, h, points, id=f"{entry.entry_id}-{i}")
                conj = Subalgebra(tuple(adjoint(CONJUGATOR, b) for b in h.basis), h.structure)
                yield pytest.param(entry, conj, [_moved(CONJUGATOR, p) for p in points],
                                   id=f"{entry.entry_id}-{i}-conjugate")


SURVEYED = list(_surveyed_instantiations())


def test_surveyed_instantiations_cover_every_quotient_shape():
    cases = [case.values for case in SURVEYED]
    shapes = {(entry.entry_id, h.quotient_rows[0], len(h.quotient_rows[1]))
              for entry, h, _ in cases}
    assert len(cases) == 68
    assert sum(entry.orbit_space is not None for entry, _, _ in cases) == 2 * 8
    assert ("T1:R3", 3, 0) in shapes  # t = 3, an empty quotient
    assert any(eid.startswith("T4:") and t == 0 for eid, t, _ in shapes)
    assert any(eid == "T3:N-aK1bA-l" for eid, _, _ in shapes)


@pytest.mark.parametrize("entry,h,points", SURVEYED)
def test_survey_rank_on_the_translation_quotient_is_the_killing_rank(entry, h, points):
    survey = cohomogeneity(h, seed=42, extra_points=points)
    assert len(survey.strata) == 32 + len(points)
    for rep in survey.strata:
        half = 2 if isinstance(rep.point, QuadraticPoint) else 1  # the realification
        assert rep.dim == rank_of(killing_matrix(h, rep.point)) // half
    if entry.orbit_space is not None:  # reads each lazily derived echelon
        for rep in survey.strata:
            assert report_fields(rep) == report_fields(orbit_dimension(h, rep.point))


SCREW_13 = require_closed(entry_by_id("T3:nilpotent-pair").build(
    {"lam": Fraction(1), "mu": Fraction(3)}))


@pytest.mark.parametrize("rational,surd,rank", [
    ((0, 0, Fraction(-3, 2), 0), (0, 0, Fraction(1, 2), 0), 2),   # sigma^2 + 3 sigma = 1
    ((0, 0, Fraction(-3, 2), 0), (0, 0, Fraction(-1, 2), 0), 2),  # the other root
    ((1, 0, Fraction(7, 2), -5), (0, 0, Fraction(1, 2), 0), 2),  # same sigma = p3 + p4
    ((1, 2, 0, 0), (0, 1, 1, 0), 3),
    ((0, 0, 0, 0), (3, 0, 0, -1), 3),
], ids=["root", "other-root", "on-stratum", "generic", "surd-only"])
def test_orbit_rank_at_a_q_sqrt_13_point_matches_sympy(rational, surd, rank):
    import sympy

    p = quadratic_point(rational, surd, 13)
    coords = [sympy.nsimplify(a) + sympy.sqrt(13) * sympy.nsimplify(b)
              for a, b in zip(rational, surd)]
    fields = [[sum(sympy.nsimplify(x) * c for x, c in zip(row, coords)) + sympy.nsimplify(t)
               for row, t in zip(b.linear, b.trans)] for b in SCREW_13.basis]
    assert orbit_dimension(SCREW_13, p).dim == sympy.Matrix(fields).rank(simplify=True) == rank


# every minor of the Killing matrix has degree <= 4, and a polynomial of degree
# <= 4 that vanishes on the principal lattice {q in N^4 : |q| <= 4} is zero
# (unisolvence), so the largest rank there is the generic rank
PRINCIPAL_LATTICE = [q for q in product(range(5), repeat=4) if sum(q) <= 4]
small_entries = st.just(Fraction(0)) | st.fractions(min_value=-3, max_value=3,
                                                    max_denominator=3)


@st.composite
def small_bases(draw):
    """1-6 random elements with small rational entries, some of them dependent."""
    basis = []
    for _ in range(draw(st.integers(1, 6))):
        if basis and draw(st.booleans()):
            b1, b2 = draw(st.sampled_from(basis)), draw(st.sampled_from(basis))
            basis.append(b1.scaled(draw(small_entries)) + b2.scaled(draw(small_entries)))
        else:
            coords = draw(st.lists(small_entries, min_size=6, max_size=6))
            trans = draw(st.lists(small_entries, min_size=4, max_size=4))
            basis.append(AlgebraElement(linear_from_coords(coords), vec4(*trans)))
    return basis


@settings(max_examples=100, deadline=None)
@given(small_bases())
@example([YK1, YN1, YN2])  # Excluded:K1N, rank 2 everywhere
@example([YN1, YN2, YK1.scaled(2) - YA, ELL])  # T3:N-aK1bA-l, rank 4 off sigma = 0
def test_generic_orbit_dimension_is_the_principal_lattice_max(basis):
    h = Subalgebra(tuple(basis), {})  # the rank reads only the basis
    assert generic_orbit_dimension(h) == max(rank_of(killing_matrix(h, q))
                                             for q in PRINCIPAL_LATTICE)


@pytest.mark.parametrize("basis,rank", [
    ((), 0),
    ((E1, E2), 2),
    ((YK1, YN1, YN2), 2),
    ((standard_generator("Yk3"), YA, YN2), 2),
    ((YK1, YA, YN1, YN2), 3),
    ((YA + E1.scaled(Fraction(-2)), E2, ELL), 3),
    ((YN1, YN2, YK1.scaled(2) - YA, ELL), 4),
    ((YK1, YA, YN1, YN2, ELL), 4),
    ((YK1, E1), 2),  # not closed: the rotation moves e1, so p1 is no free coordinate to drop
], ids=["empty", "plane", "K1N", "SO21", "K1AN", "drifting-boost", "mixture", "K1AN-l",
        "not-closed"])
def test_generic_orbit_dimension_matches_sympy_symbolic_rank(basis, rank):
    import sympy

    p = sympy.symbols("p1:5")
    fields = [[sum(sympy.Rational(x.numerator, x.denominator) * c for x, c in zip(row, p))
               + sympy.Rational(t.numerator, t.denominator)
               for row, t in zip(b.linear, b.trans)] for b in basis]
    assert generic_orbit_dimension(Subalgebra(basis, {})) == sympy.Matrix(fields).rank() == rank


@settings(max_examples=100, deadline=None)
@given(small_bases(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@example([YK1, YA, YN1, YN2], [1, 2, 3, 5])  # fixes the origin, so rank 3 is generic
@example([YA, E1, E2, E3], [1, 2, 0, 3])  # rank 3 on p3 = 0 only, and no fixed point
def test_a_rank_seen_at_a_point_leaves_the_generic_dimension(basis, point):
    h = Subalgebra(tuple(basis), {})
    seen = orbit_dimension(h, point).dim
    assert generic_orbit_dimension(h, seen) == generic_orbit_dimension(h) >= seen


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


def test_empty_survey_reports_the_exact_cohomogeneity():
    rep = cohomogeneity(require_closed((E1, E2)), samples=0)
    assert rep.strata == ()
    assert rep.max_orbit_dim == 2
    assert rep.cohomogeneity == 2
    assert rep.observed_dims() == (2,)


def test_one_sample_reports_the_exact_cohomogeneity():
    # one sample can sit on a lower stratum (T4:AN at seed 66 has a
    # 1-dimensional orbit there); the cohomogeneity must not follow it
    insts = [closure_check(entry.build(params)) for entry in catalog()
             for params in entry.defaults]
    insts = [h for h in insts if isinstance(h, Subalgebra)]
    assert len(insts) == 34
    for seed in range(200):
        for h in insts:
            rep = cohomogeneity(h, seed=seed, samples=1)
            assert rep.cohomogeneity == 4 - generic_orbit_dimension(h), seed
            assert max(rep.observed_dims()) == rep.max_orbit_dim, seed


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
    assert orbit_space_report(h, spec, cohomogeneity(h)) is spec


def test_halfline_evidence_for_rotation_cylinder():
    h = require_closed((YK1, E3, E4))
    spec = OrbitSpaceSpec(
        kind=OrbitSpaceKind.HALFLINE,
        invariant=P1 * P1 + P2 * P2,
        transversal=(vec4(0, 0, 0, 0), vec4(1, 0, 0, 0), vec4(2, 0, 0, 0)),
        singular=(2, CausalKind.LORENTZIAN),
    )
    assert orbit_space_report(h, spec, cohomogeneity(h)) is spec


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
    )
    with pytest.raises(EvidenceFailedError):
        orbit_space_report(h, spec, cohomogeneity(h))


def test_halfline_without_singular_orbit_fails():
    # a half-line spec without a singular orbit is a failed obligation, not a
    # crash
    h = require_closed((YK1, E3, E4))
    spec = OrbitSpaceSpec(
        kind=OrbitSpaceKind.HALFLINE,
        invariant=P1 * P1 + P2 * P2,
        transversal=(vec4(0, 0, 0, 0), vec4(1, 0, 0, 0), vec4(2, 0, 0, 0)),
    )
    with pytest.raises(EvidenceFailedError, match="no singular orbit"):
        orbit_space_report(h, spec, cohomogeneity(h))


def test_transversal_missing_boundary_fails():
    h = require_closed((YK1, E3, E4))
    spec = OrbitSpaceSpec(
        kind=OrbitSpaceKind.HALFLINE,
        invariant=P1 * P1 + P2 * P2,
        transversal=(vec4(1, 0, 0, 0), vec4(2, 0, 0, 0)),
        singular=(2, CausalKind.LORENTZIAN),
    )
    with pytest.raises(EvidenceFailedError):
        orbit_space_report(h, spec, cohomogeneity(h))


def test_a_shifted_halfline_invariant_fails_where_it_is_negative():
    h = require_closed((YK1, E3, E4))
    spec = OrbitSpaceSpec(
        kind=OrbitSpaceKind.HALFLINE,
        invariant=P1 * P1 + P2 * P2 - Poly.const(1),
        transversal=(vec4(0, 0, 0, 0), vec4(1, 0, 0, 0), vec4(2, 0, 0, 0)),
        singular=(3, CausalKind.LORENTZIAN),
    )
    with pytest.raises(EvidenceFailedError, match=r"invariant is negative at \(0,0,0,0\)"):
        orbit_space_report(h, spec, cohomogeneity(h))


def test_open_orbits_have_no_orbit_space():
    # Excluded:AN-l has four-dimensional orbits: no form is invariant and no
    # exponential is semi-invariant
    with pytest.raises(EvidenceFailedError,
                       match="no invariant form or exponential semi-invariant"):
        orbit_space_spec(require_closed(entry_by_id("Excluded:AN-l").build({})))
